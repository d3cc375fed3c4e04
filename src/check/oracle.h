// Invariant oracles: the paper's theorems as executable checkers.
//
// Each oracle watches a run out-of-band (StepObserver and/or
// AgreementObserver — costs no model work, mutates nothing) and records a
// failure the moment a HARD invariant breaks.  Hard means: holds with
// probability 1 under every oblivious adversary, so a single violation in a
// single fuzz trial is a genuine bug, never noise.  Quantities that the
// paper only bounds w.h.p. (clobbers per bin, clock-estimate skew) are
// checked against generous tolerances that hold across the fuzz corpus but
// are still far below what a broken protocol produces — the oracle
// self-test (selftest.h) proves that margin real by injecting mutations.
//
// The oracles:
//   WorkAccountingOracle  every grant emits exactly one StepEvent, times are
//                         gapless, and per-processor step counts reconcile
//                         with Simulator::total_work().
//   ClockOracle           phase-clock slots advance by at most one per
//                         update; per-processor phase estimates are
//                         monotone (the Read-Clock clamp) and within
//                         `skew_ticks` of the true tick over the sampling
//                         window.
//   BinArrayOracle        bin writes carry a nonzero stamp, stay inside the
//                         declared support of f_i, and every copy-forward
//                         write to cell j>0 copies a value that cell j-1
//                         actually held under the same stamp (Fig. 2's
//                         re-read rule made checkable).
//   ClobberOracle         Lemma 1: clobbers per bin per true phase stay
//                         under an O(log n) cap.
//   ConsensusOracle       scan-consensus registers are single-writer
//                         write-once, and every decision equals processor
//                         0's proposal (agreement + validity of the
//                         deterministic decision rule).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "agreement/bin_array.h"
#include "agreement/inspect.h"
#include "agreement/protocol.h"
#include "clock/phase_clock.h"
#include "consensus/scan_consensus.h"
#include "sim/simulator.h"

namespace apex::check {

/// Base class: a named checker accumulating failure messages.
///
/// Oracles are span-native: subclasses implement observation ONCE, in
/// on_steps (hoisting per-event state out of the loop); per-step delivery
/// (single-step engine, unit tests) forwards through the base as a span of
/// one.  An oracle consumes only StepEvent fields plus its static config —
/// never live simulator state — so deferred span delivery is exact.
class Oracle : public sim::StepObserver, public agreement::AgreementObserver {
 public:
  virtual const char* name() const noexcept = 0;

  void on_step(const sim::StepEvent& ev) final {
    on_steps(std::span<const sim::StepEvent>(&ev, 1));
  }

  /// Span-native observation hook; default ignores steps.
  void on_steps(std::span<const sim::StepEvent>) override {}

  /// End-of-run checks (totals, decisions).  `sim` is the finished run.
  virtual void on_finish(const sim::Simulator& sim) { (void)sim; }

  bool failed() const noexcept { return !failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 protected:
  /// Record a violation (capped; the first message is what reports show).
  void fail(std::string msg);

 private:
  std::vector<std::string> failures_;
};

/// Fan-out + verdict over a set of oracles.  Attach as the simulator step
/// observer and the runtime agreement observer; call finish() after run().
class OracleSet final : public sim::StepObserver,
                        public agreement::AgreementObserver {
 public:
  void add(Oracle* o) { list_.push_back(o); }

  void on_step(const sim::StepEvent& ev) override {
    on_steps(std::span<const sim::StepEvent>(&ev, 1));
  }
  void on_steps(std::span<const sim::StepEvent> evs) override {
    for (auto* o : list_) o->on_steps(evs);
  }
  void on_cycle(const agreement::CycleRecord& r) override {
    for (auto* o : list_) o->on_cycle(r);
  }
  void on_phase_enter(std::size_t p, sim::Word ph) override {
    for (auto* o : list_) o->on_phase_enter(p, ph);
  }

  void finish(const sim::Simulator& sim) {
    for (auto* o : list_) o->on_finish(sim);
  }

  bool failed() const noexcept {
    for (auto* o : list_)
      if (o->failed()) return true;
    return false;
  }

  /// The first failing oracle in registration order (nullptr when clean).
  const Oracle* first_failing() const noexcept;

  /// "oracle_name: first failure message" of the first failing oracle
  /// (empty when clean).
  std::string first_failure() const;

  const std::vector<Oracle*>& oracles() const noexcept { return list_; }

 private:
  std::vector<Oracle*> list_;
};

// ---------------------------------------------------------------------------

class WorkAccountingOracle final : public Oracle {
 public:
  const char* name() const noexcept override { return "work_accounting"; }
  void on_steps(std::span<const sim::StepEvent> evs) override;
  void on_finish(const sim::Simulator& sim) override;

 private:
  std::uint64_t events_ = 0;
  std::vector<std::uint64_t> per_proc_;
};

class ClockOracle final : public Oracle {
 public:
  /// `skew_ticks`: allowed |estimate - true tick| beyond which the sampled
  /// Read-Clock is declared broken.  The estimator's per-read error is
  /// O(sqrt(total)/tau) ticks, well under 1 for the fuzzer's sizes; 2 gives
  /// a wide margin while a mutated clock drifts unboundedly.
  ClockOracle(const clockx::PhaseClock& clock, std::size_t nprocs,
              std::uint64_t skew_ticks = 2);

  const char* name() const noexcept override { return "phase_clock"; }
  void on_steps(std::span<const sim::StepEvent> evs) override;
  void on_phase_enter(std::size_t proc, sim::Word phase) override;

 private:
  const clockx::PhaseClock* clock_;
  std::uint64_t skew_;
  std::uint64_t total_ = 0;  ///< Update increments seen (positive deltas).
  std::vector<sim::Word> last_phase_;
  /// Per proc: the clock-slot read immediately preceding its next update
  /// write (Update-Clock's read half).  An update must write exactly that
  /// value + 1 to the same slot.
  struct PendingRead {
    bool valid = false;
    std::size_t addr = 0;
    sim::Word value = 0;
  };
  std::vector<PendingRead> pending_;
  /// Ring per proc: true tick at each of its last (samples+2) steps — the
  /// Read-Clock sampling window, for the lower skew bound.
  std::vector<std::vector<std::uint64_t>> window_;
  std::vector<std::size_t> wpos_;
  std::vector<std::size_t> wlen_;
};

class BinArrayOracle final : public Oracle {
 public:
  BinArrayOracle(const agreement::BinArray& bins,
                 agreement::SupportFn support);

  const char* name() const noexcept override { return "bin_array"; }
  void on_steps(std::span<const sim::StepEvent> evs) override;

 private:
  const agreement::BinArray* bins_;
  agreement::SupportFn support_;
  /// Per cell: stamp -> values ever written with that stamp.
  std::vector<std::map<sim::Word, std::vector<sim::Word>>> history_;
};

class ClobberOracle final : public Oracle {
 public:
  /// `max_per_bin` = 0 picks default_bound(bins.bins()).
  ClobberOracle(const agreement::BinArray& bins,
                const clockx::PhaseClock& clock,
                std::uint32_t max_per_bin = 0);

  /// Lemma 1 cap: clobbers per bin per phase is O(log n) w.h.p.  Calibrated
  /// against the fuzz corpus (n >= 6): the legitimate tail peaks below 44
  /// per bin per phase while a protocol that stops refreshing timestamps
  /// floods ~alpha * lg(n) = 24 lg(n) (72 at n=8) — this cap sits between
  /// with >= 30% margin on both sides.
  static std::uint32_t default_bound(std::size_t nbins) {
    return 12 * lg(nbins) + 16;
  }

  const char* name() const noexcept override { return "clobber_bound"; }
  void on_steps(std::span<const sim::StepEvent> evs) override;

  std::uint32_t max_observed() const noexcept { return max_observed_; }

 private:
  const agreement::BinArray* bins_;
  const clockx::PhaseClock* clock_;
  std::uint32_t bound_;
  std::uint64_t total_ = 0;
  sim::Word true_phase_ = 1;
  std::vector<std::uint32_t> clobbers_;
  std::uint32_t max_observed_ = 0;
};

class ConsensusOracle final : public Oracle {
 public:
  explicit ConsensusOracle(const consensus::ScanConsensus& sc);

  const char* name() const noexcept override { return "consensus"; }
  void on_steps(std::span<const sim::StepEvent> evs) override;
  void on_finish(const sim::Simulator& sim) override;

 private:
  const consensus::ScanConsensus* sc_;
  std::size_t n_;
  std::size_t base_;
  std::vector<std::vector<std::optional<sim::Word>>> proposals_;
};

}  // namespace apex::check
