// The Phase Clock (paper §2.1, construction contract from [Aumann-Rabin 94]).
//
// Contract required by the execution scheme and the agreement protocol:
//   * Update-Clock: O(1) atomic steps; processors call it to participate in
//     advancing the clock.
//   * Read-Clock: Θ(log n) atomic steps; returns the current integral clock
//     value (monotone per reader).
//   * For constants 0 < α1 <= α2: at least α1·n invocations of Update-Clock
//     are necessary and α2·n are sufficient to advance the clock by one,
//     regardless of WHICH processors invoke it.
//
// Construction (a substitution: docs/ARCHITECTURE.md, "Substitutions"):
// an array of m = n per-slot counters in shared memory.  Update-Clock
// increments a uniformly random slot (one read + one write; the
// read-then-write pair is not atomic, so concurrent increments can
// occasionally be lost — that loss is a constant factor absorbed into
// [α1, α2], which bench E8 measures).
// Read-Clock samples s = Θ(log n) random slots, scales the sampled sum by
// m/s to estimate the total number of updates U, and returns ⌊U / τ⌋ with
// τ = α·n, clamped to be monotone per reader.
//
// Under the oblivious adversary both the slot choices and the sample choices
// are uniform and independent of the schedule, so slot counts concentrate
// around U/m and the estimate concentrates around U — giving the bracketing
// the contract demands, with high probability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/memory.h"
#include "sim/proc.h"
#include "sim/subtask.h"
#include "util/math.h"
#include "util/rng.h"

namespace apex::clockx {

/// Out-of-band listener for the clock's TRUE tick ⌊U / τ⌋, where U sums the
/// positive deltas of the clock's slot writes (see PhaseClock::set_listener).
class TickListener {
 public:
  virtual ~TickListener() = default;
  /// The true tick advanced to `tick`; called once per advance, in order
  /// (tick 1, 2, ...).
  virtual void on_tick(std::uint64_t tick) = 0;
};

/// The slot count m = n and the sample count s = 3·lg(n) are fixed by n,
/// as in the host executor's clock.
struct ClockConfig {
  std::size_t nprocs = 0;      ///< n.
  double alpha = 6.0;          ///< Tick threshold τ = α·n updates.
};

class PhaseClock {
 public:
  /// Carves the counter region out of `mem` via extend().
  PhaseClock(sim::Memory& mem, ClockConfig cfg);

  // ---- In-model procedures (cost counted in work) -------------------------

  /// Update-Clock: O(1) — read a random slot, write slot+1 (2 steps).
  sim::SubTask<void> update(sim::Ctx& ctx);

  /// Read-Clock: Θ(log n) — s sampled reads + 1 local estimate step.
  /// Returns the clock value, monotone per calling processor.
  sim::SubTask<std::uint64_t> read(sim::Ctx& ctx);

  // ---- The procedures' decisions, for drivers that inline them ------------
  //
  // update() and read() above are these helpers plus their steps.  A hot
  // driver (the execution scheme's) performs the same steps in its own
  // frame and calls the same helpers between them, in the same grants:
  //   Update-Clock:  a = draw_slot; c = read(a); write(a, update_value(a, c))
  //   Read-Clock:    samples() × { sum += read(draw_slot).value }; local;
  //                  tick = read_estimate(id, sum)

  /// Address of a uniformly random counter slot (one draw from ctx.rng()).
  std::size_t draw_slot(sim::Ctx& ctx) const {
    return base_ + static_cast<std::size_t>(ctx.rng().below(m_));
  }

  /// The value Update-Clock writes to slot `addr` after reading `seen`
  /// there.  Runs the tick-listener hook, so call it in the grant of the
  /// write (see set_listener).
  sim::Word update_value(std::size_t addr, sim::Word seen);

  /// Read-Clock's result for processor `proc` from the sum of its s sampled
  /// slots: the estimated tick, clamped to be monotone per processor.
  std::uint64_t read_estimate(std::size_t proc, std::uint64_t sampled);

  // ---- Out-of-band inspection (tests/benches; costs no work) --------------

  /// Exact number of update increments currently recorded in the slots.
  std::uint64_t exact_total() const;

  /// Exact tick implied by exact_total().
  std::uint64_t exact_tick() const { return exact_total() / tau_; }

  std::uint64_t threshold() const noexcept { return tau_; }
  std::size_t slots() const noexcept { return m_; }
  std::size_t samples() const noexcept { return s_; }
  std::size_t base_addr() const noexcept { return base_; }

  /// True if `addr` lies in the clock's counter region (used by inspectors
  /// listening to raw step events).
  bool owns(std::size_t addr) const noexcept {
    return addr >= base_ && addr < base_ + m_;
  }

  /// Attach (nullptr: detach) the out-of-band tick listener; the caller
  /// keeps ownership.  Unset, update() pays one null check.  Set, update()
  /// runs a hook in the SAME grant as its slot write, just before the write
  /// lands: it adds the write's positive delta (new value minus the slot's
  /// current value; a lost update that lowers a slot adds nothing) to a
  /// running true total U and calls on_tick for each advance of ⌊U / τ⌋.
  /// That is the sum an observer of clock-slot write events takes over
  /// positive ev.after - ev.before, at the same step: no other processor's
  /// step runs between hook and write, total_work() inside on_tick equals
  /// the write's StepEvent::time, and memory differs from the after-the-step
  /// state only in that clock slot.  The listener must not mutate memory.
  void set_listener(TickListener* listener) noexcept { listener_ = listener; }

  /// Atomic steps one update() costs (for work-budget arithmetic).
  static constexpr std::uint64_t kUpdateCost = 2;
  /// Atomic steps one read() costs.
  std::uint64_t read_cost() const noexcept { return s_ + 1; }

 private:
  sim::Memory* mem_;
  std::size_t base_;
  std::size_t m_;
  std::size_t s_;
  std::uint64_t tau_;
  std::vector<std::uint64_t> reader_clamp_;  ///< Per-processor monotone clamp.

  /// The listener hook (see set_listener): account a write of `value` to
  /// slot address `addr` that is about to land.
  void note_write(std::size_t addr, sim::Word value);

  TickListener* listener_ = nullptr;
  std::uint64_t true_total_ = 0;  ///< U: positive write deltas so far.
  std::uint64_t true_tick_ = 0;   ///< Last tick reported to the listener.
};

}  // namespace apex::clockx
