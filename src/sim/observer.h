// Out-of-band step observation.
//
// Observers run outside the A-PRAM model: they cost no work and must not
// mutate memory.  The simulator owns ONE CompositeObserver chain; any number
// of inspectors (testbed audits, invariant oracles, timeline recorders)
// attach side by side via Simulator::add_observer instead of fighting over a
// single slot.
//
// Delivery contract (batched engine).  The instrumented grant path fills a
// batch event buffer inline in the step awaiters — no per-step virtual
// calls, no per-step checked access — and flushes it as on_steps(span)
// calls down the chain at batch boundaries: sub-batch capacity (the buffer
// is kept L1-sized), stop-predicate checks, work caps, run() end, the last
// processor finishing mid-batch, and before any exception propagates out of
// run().
// What an observer may assume:
//   * every executed step is delivered exactly once, in execution order,
//     with the same StepEvent contents the pre-batching engine delivered;
//   * span boundaries are arbitrary (anything from 1 event up to the
//     engine's event-buffer capacity) and carry no meaning — never encode
//     protocol state in them;
//   * delivery happens before any stop predicate the driver polls, so
//     predicates that read observer state see every event up to the poll;
//   * events are delivered AFTER the fact: simulator/memory state at
//     on_steps time is the state at the END of the span, not at each step.
//     Protocol state that must be read at an exact step belongs to the
//     protocol itself (e.g. the phase clock's tick listener), not to an
//     observer.
//
// The single-step reference engine always delivers per-step on_step calls
// down the whole chain (the genuine pre-batching behavior).
//
// Performance contract: the batched grant engine selects, once per run(),
// between the instrumented path above and a no-observer fast path (no event
// construction at all).  Attaching any observer switches the WHOLE run to
// the instrumented path; detach before time-critical runs.  Span-native
// observers should override on_steps and hoist per-event state out of the
// loop; the default on_steps forwards to on_step so existing observers keep
// working unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/proc.h"
#include "sim/word.h"

namespace apex::sim {

// struct StepEvent lives in proc.h (the instrumented batched engine fills
// events inline in the step awaiters); re-exported here, where its consumers
// look for it.

/// Out-of-band observer.  Hooks run outside the model: they cost no work and
/// must not mutate memory.  Used by the Lemma inspectors and the oracles.
class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// One step.  The single-step engine calls this per step; the default
  /// on_steps below also lands here.
  virtual void on_step(const StepEvent& ev) = 0;

  /// A batch of consecutive steps in execution order (see the delivery
  /// contract above).  Override for span-native consumption; the default
  /// loop keeps per-step observers working unchanged.
  virtual void on_steps(std::span<const StepEvent> evs) {
    for (const StepEvent& ev : evs) on_step(ev);
  }
};

/// Ordered fan-out chain.  Delivery order is registration order, and the
/// chain is itself a StepObserver, so chains nest.  Not owning: callers keep
/// their observers alive for the duration of the runs they watch.
class CompositeObserver final : public StepObserver {
 public:
  void add(StepObserver* o) {
    if (o != nullptr) list_.push_back(o);
  }

  void remove(StepObserver* o) {
    list_.erase(std::remove(list_.begin(), list_.end(), o), list_.end());
  }

  void clear() noexcept { list_.clear(); }
  bool empty() const noexcept { return list_.empty(); }

  void on_step(const StepEvent& ev) override {
    for (auto* o : list_) o->on_step(ev);
  }

  void on_steps(std::span<const StepEvent> evs) override {
    for (auto* o : list_) o->on_steps(evs);
  }

 private:
  std::vector<StepObserver*> list_;
};

}  // namespace apex::sim
