// PRAM program container, builder, EREW validation, and the writer index.
//
// The writer index is the static analysis the execution scheme relies on:
// for an operand variable v read at step π it answers the index w of the
// last step before π that writes v (or kInitial when v still holds its
// input value).  At run time, a Compute task reading v for step π accepts a
// memory cell only if its timestamp equals stamp(w) — this is how tardy
// clobbers are detected instead of silently consumed.  Program stores that
// answer once, as a sparse per-variable list of write steps
// (last_writer_before); whole-program readers that want every operand's
// answer get it from one forward walk (walk_writers), which stores nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
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

/// One instruction's operand provenance: for each operand it reads, the
/// last step before its own that writes it (kInitial if none).  Operands
/// the op does not read stay kInitial.
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

  /// The step that most recently wrote `var` strictly before step `s`
  /// (kInitial if none): a binary search over that variable's write steps.
  /// Both executors call it for a computed-index (kGatherDyn) target, and
  /// the simulator's f for every operand.
  std::uint32_t last_writer_before(std::size_t s, std::uint32_t var) const;

  /// Calls f(s, t, instruction, OperandWriters) for every instruction,
  /// step by step and thread by thread, with the answers last_writer_before
  /// gives for its operands: one forward walk over a transient last-writer
  /// array instead of a search per operand.  Stores nothing.
  template <typename F>
  void walk_writers(F&& f) const {
    std::vector<std::uint32_t> last(nvars_, kInitial);
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      const std::vector<Instr>& instrs = steps_[s].instrs;
      for (std::size_t t = 0; t < instrs.size(); ++t) {
        const Instr& ins = instrs[t];
        OperandWriters w;
        const int r = reads_of(ins.op);
        if (r >= 1) w.x = last[ins.x];
        if (r >= 2) w.y = last[ins.y];
        if (r >= 3) w.c = last[ins.c];
        f(s, t, ins, w);
      }
      // A step's reads see the writes before it: its own land after.
      for (const Instr& ins : instrs)
        if (writes_dest(ins.op)) last[ins.z] = static_cast<std::uint32_t>(s);
    }
  }

  /// True if any instruction is a kGatherDyn (data-dependent window).
  /// Executors use this to budget the extra operand read per task.
  bool has_dyn_gather() const noexcept { return has_dyn_gather_; }

  /// Validates the EREW discipline (scan_erew): throws
  /// std::invalid_argument with the first violation's message.  (The
  /// constructor runs the same pass; public for direct testing.)
  static void validate_erew(std::size_t nthreads, std::size_t nvars,
                            const std::vector<Step>& steps);

  /// Writes the IR dump to `os` as it goes; to_string() collects it.
  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  void build_write_index();

  std::size_t nthreads_;
  std::size_t nvars_;
  std::vector<Step> steps_;
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
