// The agreement protocol (paper §3, Fig. 2).
//
// Processors repeatedly execute identical CYCLES.  One cycle:
//   line 1   choose a bin Bin_i uniformly at random           (1 local step)
//   lines 2-4  binary-search Bin_i for its first empty cell j
//              ("empty" = stamp != current phase)             (⌈log2(B+1)⌉ reads)
//   line 5+  if j = 1: evaluate f_i^(π) and write (v, π) to Bin_i[1]
//            else: re-read Bin_i[j-1]; if it is filled, copy its value to
//            Bin_i[j] with stamp π; a stale re-read (the cell was clobbered
//            between the search probe and now) writes nothing.
//   pad with no-ops so EVERY cycle costs exactly ω steps, independent of
//   all random choices (§3 "Work Per Cycle").
//
// ω = Θ(log log n) because B = β·log n, so the search is ⌈log2(B+1)⌉ =
// Θ(log log n) probes and everything else is O(1).
//
// After O(n log n) cycles — O(n log n log log n) work — every bin has, with
// high probability, a unique stable value readable from its upper half
// (Theorem 1).
//
// Two forms run a cycle: agreement_cycle, a SubTask that agreement_proc, the
// benches and the tests await, and the execution scheme's hot driver, which
// runs the cycle inline in its own coroutine frame.  Both are built from the
// non-suspending helpers below ("One cycle's decisions").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>

#include "agreement/bin_array.h"
#include "check/mutation.h"
#include "clock/phase_clock.h"
#include "sim/proc.h"
#include "sim/simulator.h"
#include "sim/subtask.h"

namespace apex::agreement {

/// Result of evaluating f_i^(π): the computed value, or nullopt when the
/// evaluation could not complete (e.g. the execution scheme's Compute task
/// found an operand not yet written — the cycle then writes nothing and the
/// task is retried by a later cycle).
using TaskResult = std::optional<sim::Word>;

/// Evaluates the nondeterministic function f_i^(π) for bin `i` in phase
/// `phase`.  May read shared memory and draw from ctx.rng(); must cost at
/// most `AgreementConfig::compute_steps` atomic steps on every invocation.
using TaskFn = std::function<sim::SubTask<TaskResult>(
    sim::Ctx& ctx, std::size_t i, sim::Word phase)>;

struct AgreementConfig {
  std::size_t n = 0;            ///< Number of values = number of bins.
  std::size_t beta = 8;         ///< Bin has B = β·lg n cells.
  std::size_t compute_steps = 1;///< Upper bound on TaskFn's step cost.

  std::size_t cells_per_bin() const { return BinArray::cells_for(n, beta); }

  /// Binary-search probe count: fixed for a given B (range [−1, B] halves
  /// deterministically), hence identical across cycles.
  std::size_t search_probes() const {
    return ceil_log2(cells_per_bin() + 1);
  }

  /// ω: the exact per-cycle step budget.  Covers the worst of the two write
  /// branches: 1 (bin choice) + probes + max(compute_steps + 1, 2).
  std::uint64_t omega() const {
    const std::uint64_t tail =
        std::max<std::uint64_t>(compute_steps + 1, 2);
    return 1 + search_probes() + tail;
  }
};

/// Everything a processor needs to run agreement cycles.
struct AgreementRuntime;

/// Record of one executed cycle, for the Lemma inspectors (timing fields
/// are global work-unit indices, matching the paper's S[C], D[C], F[C]).
struct CycleRecord {
  std::size_t proc = 0;
  std::size_t bin = 0;
  sim::Word phase = 0;     ///< The phase stamp this cycle used (may be stale).
  std::uint64_t s_time = 0;///< Global time at cycle start.
  std::uint64_t d_time = 0;///< Global time after the search, before writing.
  std::uint64_t f_time = 0;///< Global time at cycle end (after padding).
  int wrote_cell = -1;     ///< Cell index written, -1 if the cycle wrote nothing.
  sim::Word wrote_value = 0;
  bool evaluated_f = false;///< True when the cycle computed f (wrote cell 0).
};

/// Protocol-level observer (out-of-band; must not mutate shared memory).
class AgreementObserver {
 public:
  virtual ~AgreementObserver() = default;
  virtual void on_cycle(const CycleRecord&) {}
  /// A processor's local phase estimate changed to `phase`.
  virtual void on_phase_enter(std::size_t /*proc*/, sim::Word /*phase*/) {}
};

struct AgreementRuntime {
  AgreementConfig cfg;
  BinArray* bins = nullptr;
  clockx::PhaseClock* clock = nullptr;
  TaskFn task;
  AgreementObserver* observer = nullptr;
};

/// One cycle of the agreement procedure (Fig. 2), at phase estimate `phase`.
/// Costs exactly cfg.omega() atomic steps.  One coroutine frame: only f
/// (rt.task) is a nested SubTask.
sim::SubTask<void> agreement_cycle(sim::Ctx& ctx, AgreementRuntime& rt,
                                   sim::Word phase);

/// The standalone driver (§3): loop cycles forever; every lg n cycles,
/// invoke Update-Clock and re-read the Phase Clock (phase = tick + 1).
/// Used by the Theorem 1 / Lemma benches; the full execution scheme runs
/// the same cycle inline in its own driver (src/exec).
sim::ProcTask agreement_proc(sim::Ctx& ctx, AgreementRuntime& rt);

// ---- One cycle's decisions, for drivers that inline the cycle -------------
//
// agreement_cycle is these helpers plus its steps.  The execution scheme's
// driver performs the same steps in its own coroutine frame and calls the
// same helpers between them, in the same grants, so the two forms share
// every decision and repeat only their sequence of co_awaits:
//
//   rec = open_cycle; i = draw_bin; local                     (line 1)
//   BinSearch: probes × read                                   (lines 2-4)
//   j == 0:     v = f; if v: write(cell 0, v, write_stamp)     (lines 5-9)
//   0 < j < B:  prev = read(cell j-1);
//               if copy_forward(prev): write(cell j, .., write_stamp)
//   pad_steps × local; close_cycle                             (ω padding)
//
// The Copy task reads agreed values with UpperHalfScan.

/// Opens the record of a cycle that `ctx` starts now at phase `phase`.
inline CycleRecord open_cycle(sim::Ctx& ctx, sim::Word phase) {
  CycleRecord rec;
  rec.proc = ctx.id();
  rec.phase = phase;
  rec.s_time = ctx.simulator().total_work();
  return rec;
}

/// Line 1: a uniformly random bin (one draw from ctx.rng(); the cycle
/// charges it as one local step).
inline std::size_t draw_bin(sim::Ctx& ctx, const BinArray& bins) {
  return static_cast<std::size_t>(ctx.rng().below(bins.bins()));
}

/// Lines 2-4: binary search of a bin for its first empty cell at `phase`,
/// one probe read per step.  Keeps lo = highest index observed filled (or
/// -1) and hi = lowest index observed empty (or B); the range halves
/// deterministically, so the probe count depends only on B, never on
/// contents: exactly ⌈log2(B+1)⌉ probes (§3 "Work Per Cycle" needs cycle
/// cost independent of contents), the ones after the range resolves
/// re-reading cell 0 as padding.  With holes present the result may land
/// on a hole rather than the true frontier, exactly as the paper's analysis
/// allows.  A driver runs
///   while (s.searching()) s.observe(co_await ctx.read(s.probe()));
class BinSearch {
 public:
  BinSearch(const BinArray& bins, std::size_t bin, sim::Word phase) noexcept
      : bins_(&bins),
        bin_(bin),
        phase_(phase),
        probes_left_(ceil_log2(bins.cells_per_bin() + 1)),
        hi_(static_cast<std::ptrdiff_t>(bins.cells_per_bin())) {}

  bool searching() const noexcept { return probes_left_ != 0; }

  /// Address the next probe reads.
  std::size_t probe() const noexcept {
    return bins_->addr(bin_, resolved() ? 0 : static_cast<std::size_t>(mid()));
  }

  /// Folds in the cell the probe read.
  void observe(sim::Cell c) noexcept {
    --probes_left_;
    if (resolved()) return;
    if (c.stamp == phase_)
      lo_ = mid();
    else
      hi_ = mid();
  }

  /// The cell index found, in [0, B]; B means the bin is full.
  std::size_t first_empty() const noexcept {
    return static_cast<std::size_t>(hi_);
  }

 private:
  bool resolved() const noexcept { return hi_ - lo_ <= 1; }
  std::ptrdiff_t mid() const noexcept { return lo_ + (hi_ - lo_) / 2; }

  const BinArray* bins_;
  std::size_t bin_;
  sim::Word phase_;
  std::size_t probes_left_;
  std::ptrdiff_t lo_ = -1;
  std::ptrdiff_t hi_;
};

/// The stamp a cycle at `phase` writes its bin cell with.  The kStaleStamp
/// self-test mutation (check/mutation.h) models a processor that stops
/// refreshing its write timestamp once the clock has ticked.
inline sim::Word write_stamp(sim::Word phase) noexcept {
  if (check::mutation_enabled(check::Mutation::kStaleStamp) && phase > 1)
    return phase - 1;
  return phase;
}

/// Lines 10-11: the value to copy forward from the re-read previous cell
/// `prev`.  The search observed that cell filled, but it may have been
/// clobbered since; a stale value must never be given a current stamp, so
/// a `prev` not filled at `phase` yields nullopt and the cycle writes
/// nothing.  kCopyOffByOne is the self-test's off-by-one copy.
inline std::optional<sim::Word> copy_forward(sim::Cell prev,
                                             sim::Word phase) noexcept {
  if (prev.stamp != phase) return std::nullopt;
  if (check::mutation_enabled(check::Mutation::kCopyOffByOne))
    return prev.value + 1;
  return prev.value;
}

/// Local steps that pad a cycle which has used `used` steps to exactly ω,
/// whatever branch it took (§3 "Work Per Cycle").
inline std::uint64_t pad_steps(std::uint64_t used, std::uint64_t omega) {
  if (used > omega)
    throw std::logic_error("agreement_cycle: omega underestimates cycle cost");
  return omega - used;
}

/// Closes `rec` at cycle end and hands it to `observer`, if any.  Buffered
/// step events are delivered first, so an observer consuming both streams
/// (e.g. ClockOracle) sees them interleaved exactly as the single-step
/// engine interleaves them.
inline void close_cycle(sim::Ctx& ctx, AgreementObserver* observer,
                        CycleRecord& rec) {
  rec.f_time = ctx.simulator().total_work();
  if (observer != nullptr) {
    ctx.simulator().flush_observers();
    observer->on_cycle(rec);
  }
}

/// Obtaining the agreement value NewVal[i] (paper §3): scan the upper half
/// of Bin_i and stop at the first cell filled at `phase`.  Expected O(1)
/// probes once Accessibility holds (at least half the scanned cells are
/// filled); at most B − ⌊B/2⌋ reads when the bin is not ready, in which
/// case value() stays nullopt and the caller retries later.  A driver runs
///   while (s.scanning()) s.observe(co_await ctx.read(s.probe()));
class UpperHalfScan {
 public:
  UpperHalfScan(const BinArray& bins, std::size_t bin, sim::Word phase) noexcept
      : addr_(bins.addr(bin, bins.upper_half_begin())),
        end_(bins.addr(bin, bins.cells_per_bin())),
        phase_(phase) {}

  bool scanning() const noexcept { return !value_ && addr_ != end_; }

  /// Address the next probe reads.
  std::size_t probe() const noexcept { return addr_; }

  /// Folds in the cell the probe read.
  void observe(sim::Cell c) noexcept {
    if (c.stamp == phase_)
      value_ = c.value;
    else
      ++addr_;
  }

  const std::optional<sim::Word>& value() const noexcept { return value_; }

 private:
  std::size_t addr_;
  std::size_t end_;
  sim::Word phase_;
  std::optional<sim::Word> value_;
};

}  // namespace apex::agreement
