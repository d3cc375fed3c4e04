// PRAM program container, builder, EREW validation, and writer-table
// analysis.
//
// The writer table is the static analysis the execution scheme relies on:
// for every (step π, operand variable v) it records the index w of the last
// step before π that writes v (or kInitial when v still holds its input
// value).  At run time, a Compute task reading v for step π accepts a
// memory cell only if its timestamp equals stamp(w) — this is how tardy
// clobbers are detected instead of silently consumed.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "pram/ir.h"

namespace apex::pram {

/// Sentinel writer index: the variable still holds its initial value.
inline constexpr std::uint32_t kInitial = std::numeric_limits<std::uint32_t>::max();

/// Timestamp carried by the write of step `s` (steps are 0-based; stamp 0 is
/// reserved for initial values, matching sim::Cell's never-written default).
inline constexpr sim::Word stamp_of_step(std::uint32_t s) noexcept {
  return static_cast<sim::Word>(s) + 1;
}
inline constexpr sim::Word stamp_of_writer(std::uint32_t w) noexcept {
  return w == kInitial ? 0 : stamp_of_step(w);
}

struct Step {
  std::vector<Instr> instrs;  ///< One per thread.
};

// ---- the EREW rule ---------------------------------------------------------

/// The rule an EREW violation breaks.
enum class ErewRule : std::uint8_t {
  kStepWidth,          ///< The step does not hold one instruction per thread.
  kOutOfRange,         ///< An operand variable is not below nvars.
  kShared,             ///< A second thread reads (or writes) the variable.
  kEmptySegment,       ///< A gather_dyn segment of length 0.
  kSegmentOutOfRange,  ///< A gather_dyn segment reaching past nvars.
  kSegmentWrite,       ///< A same-step write inside a gather_dyn segment.
};

/// The operand of an instruction a violation is about: z is the write,
/// x, y and c the reads.
enum class Operand : std::uint8_t { kZ, kX, kY, kC };

/// One violation of the EREW discipline.  `thread` and `operand` place it
/// in the step (the writer's z for kSegmentWrite); `var` is the variable;
/// seg_base/seg_len are the gather_dyn segment of the three segment rules.
struct ErewViolation {
  ErewRule rule = ErewRule::kShared;
  std::size_t step = 0;
  std::size_t thread = 0;
  Operand operand = Operand::kZ;
  std::uint32_t var = 0;
  std::uint32_t seg_base = 0;
  std::uint32_t seg_len = 0;

  /// Program::validate_erew's message for it, in a program of `nvars`
  /// variables.
  std::string message(std::size_t nvars) const;
};

/// Receives the EREW pass's violations.
class ErewSink {
 public:
  /// Called for each violation in the order the pass meets them: step by
  /// step; within a step thread by thread (an instruction's reads x, y, c,
  /// its segment, then its write); then the step's segment writes, by
  /// segment in first-use order and writer in thread order.
  virtual void violation(const ErewViolation& v) = 0;
  /// Step `s` is checked: no later violation names it.
  virtual void step_checked(std::size_t s) { (void)s; }

 protected:
  ~ErewSink() = default;
};

/// What one EREW pass found besides the violations themselves.
struct ErewScan {
  std::size_t violations = 0;
  bool nondet = false;      ///< Some instruction is nondeterministic.
  bool dyn_gather = false;  ///< Some instruction is a kGatherDyn.
};

/// The EREW rule, as one pass over `steps`: in every step each variable is
/// read by at most one thread and written by at most one thread, every
/// operand and gather_dyn segment lies inside nvars, and no thread writes
/// inside a segment a gather_dyn of the same step reads.  A variable may
/// be both read and written in one step (possibly by different threads):
/// the split Compute/Copy execution orders all reads of a step before all
/// writes, so pre-step values are always well-defined.  Each violation
/// goes to `sink`, and the pass goes on; with no sink the first one throws
/// std::invalid_argument with its message().
ErewScan scan_erew(std::size_t nthreads, std::size_t nvars,
                   const std::vector<Step>& steps, ErewSink* sink);

/// Per-instruction operand provenance for one step.
struct OperandWriters {
  std::uint32_t x = kInitial;
  std::uint32_t y = kInitial;
  std::uint32_t c = kInitial;
};

class Program {
 public:
  /// Runs the EREW pass once (scan_erew), reporting to `sink`.  With no
  /// sink the first violation throws std::invalid_argument; with one, the
  /// constructor throws std::invalid_argument once the pass has reported
  /// every violation.
  Program(std::size_t nthreads, std::size_t nvars, std::vector<Step> steps,
          ErewSink* sink = nullptr);

  std::size_t nthreads() const noexcept { return nthreads_; }
  std::size_t nvars() const noexcept { return nvars_; }
  std::size_t nsteps() const noexcept { return steps_.size(); }
  const Step& step(std::size_t s) const { return steps_.at(s); }

  /// True if any instruction in any step is nondeterministic.
  bool is_nondeterministic() const noexcept { return nondet_; }

  /// Operand provenance of thread `t` at step `s`.
  const OperandWriters& writers(std::size_t s, std::size_t t) const {
    return writers_.at(s).at(t);
  }

  /// The step that most recently wrote `var` strictly before step `s`
  /// (kInitial if none).  Backed by a sparse per-variable index of write
  /// steps (binary search over that variable's writes), so graph-scale
  /// programs don't pay the O(nsteps * nvars) dense table the old layout
  /// materialized.  Executors resolving computed-index (kGatherDyn)
  /// targets call this on their hot path.
  std::uint32_t last_writer_before(std::size_t s, std::uint32_t var) const;

  /// True if any instruction is a kGatherDyn (data-dependent window).
  /// Executors use this to budget the extra operand read per task.
  bool has_dyn_gather() const noexcept { return has_dyn_gather_; }

  /// Validates the EREW discipline (scan_erew): throws
  /// std::invalid_argument with the first violation's message.  (The
  /// constructor runs the same pass; public for direct testing.)
  static void validate_erew(std::size_t nthreads, std::size_t nvars,
                            const std::vector<Step>& steps);

  std::string to_string() const;

 private:
  void build_writer_tables();

  std::size_t nthreads_;
  std::size_t nvars_;
  std::vector<Step> steps_;
  std::vector<std::vector<OperandWriters>> writers_;  ///< [step][thread]
  // Sparse last-writer index: write_steps_ holds, per variable, the sorted
  // list of steps that write it; write_offsets_ (nvars+1) delimits each
  // variable's slice (CSR-shaped).
  std::vector<std::uint32_t> write_steps_;
  std::vector<std::uint32_t> write_offsets_;
  bool nondet_ = false;
  bool has_dyn_gather_ = false;
};

/// Fluent builder:
///   ProgramBuilder b(n, vars);
///   b.step().thread(0, Instr::add(z, x, y)).thread(1, ...);
///   b.step().all([](std::size_t i) { return Instr::copy(out(i), in(i)); });
///   Program p = b.build();   // validates EREW
class ProgramBuilder {
 public:
  ProgramBuilder(std::size_t nthreads, std::size_t nvars)
      : nthreads_(nthreads), nvars_(nvars) {}

  class StepBuilder {
   public:
    StepBuilder(ProgramBuilder& parent, std::size_t index)
        : parent_(&parent), index_(index) {}

    /// Assign an instruction to thread `t` in this step.
    StepBuilder& thread(std::size_t t, Instr ins);

    /// Assign every thread an instruction via a generator.
    template <typename Gen>
    StepBuilder& all(Gen&& gen) {
      for (std::size_t t = 0; t < parent_->nthreads_; ++t)
        thread(t, gen(t));
      return *this;
    }

   private:
    ProgramBuilder* parent_;
    std::size_t index_;
  };

  /// Append a new (initially all-Nop) step.
  StepBuilder step();

  std::size_t nthreads() const noexcept { return nthreads_; }
  std::size_t nvars() const noexcept { return nvars_; }

  Program build();

 private:
  friend class StepBuilder;
  std::size_t nthreads_;
  std::size_t nvars_;
  std::vector<Step> steps_;
};

}  // namespace apex::pram
