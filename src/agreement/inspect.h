// Out-of-band inspectors for the agreement protocol.
//
// Everything here observes the simulation without costing model work, so
// measuring the paper's Lemmas never perturbs the protocol:
//   * TheoremChecker  — Theorem 1's four properties, by scanning the bins.
//   * ClobberAudit    — Lemma 1 (clobbers per bin), frontier/hole tracking
//                       (Lemma 3), and per-cell value conflicts (Lemma 7's
//                       stability point), keyed to the TRUE phase derived
//                       from the Phase Clock's exact state.
//   * StageAnalysis   — Lemma 2 (complete cycles per stage), Definition 2 /
//                       Lemma 6 (stabilizing structures) from CycleRecords.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "agreement/bin_array.h"
#include "agreement/protocol.h"
#include "clock/phase_clock.h"
#include "sim/simulator.h"

namespace apex::agreement {

/// Predicate: is `v` a legal value of f_i (the support of the
/// nondeterministic function)?  Used for Theorem 1's Correctness property.
using SupportFn = std::function<bool(std::size_t i, sim::Word v)>;

struct TheoremStatus {
  bool accessibility = false;  ///< >= half of upper-half cells filled, every bin.
  bool uniqueness = false;     ///< Filled upper-half cells agree within each bin.
  bool correctness = false;    ///< Every agreed value is in f_i's support.
  bool all() const noexcept {
    return accessibility && uniqueness && correctness;
  }
};

class TheoremChecker {
 public:
  TheoremChecker(const BinArray& bins, SupportFn support)
      : bins_(&bins), support_(std::move(support)) {}

  /// Full evaluation of the three scannable properties at `phase`.
  /// (Stability is temporal; tests assert it by re-checking later.)
  TheoremStatus check(sim::Word phase) const;

  /// Fast conjunction with early exit — suitable as a simulator stop
  /// predicate.
  bool satisfied(sim::Word phase) const;

  /// Agreed value per bin (nullopt where the upper half is not unanimous or
  /// empty).
  std::vector<std::optional<sim::Word>> values(sim::Word phase) const;

 private:
  const BinArray* bins_;
  SupportFn support_;
};

/// Per-phase statistics finalized by ClobberAudit when the true phase
/// advances (or on demand via snapshot()).
struct PhaseAudit {
  sim::Word phase = 0;
  std::uint64_t work_begin = 0;
  std::uint64_t work_end = 0;            ///< Valid in finalized reports.
  std::vector<std::uint32_t> clobbers;   ///< Per bin.
  std::vector<std::uint32_t> stable_from;///< Per bin: first cell index from
                                         ///< which no value conflicts occur.
  std::uint32_t max_clobbers() const;
  double mean_clobbers() const;
  std::uint32_t max_stable_from() const;
};

class ClobberAudit final : public sim::StepObserver {
 public:
  ClobberAudit(const BinArray& bins, const clockx::PhaseClock& clock);

  /// Span-native (consumes only event fields + static geometry, so deferred
  /// batch delivery is exact); on_step forwards as a span of one.
  void on_step(const sim::StepEvent& ev) override {
    on_steps(std::span<const sim::StepEvent>(&ev, 1));
  }
  void on_steps(std::span<const sim::StepEvent> evs) override;

  /// Reports for phases that have already ended.
  const std::vector<PhaseAudit>& finalized() const noexcept { return done_; }

  /// Audit of the still-running phase.
  PhaseAudit snapshot() const;

  sim::Word true_phase() const noexcept { return true_phase_; }

  /// Current frontier (lowest never-written cell) of `bin` this phase.
  std::size_t frontier(std::size_t bin) const;

  /// Holes in `bin`: cells below the frontier that are currently empty.
  std::size_t holes(std::size_t bin) const;

 private:
  void roll_phase(sim::Word new_phase, std::uint64_t work_now);

  const BinArray* bins_;
  const clockx::PhaseClock* clock_;
  std::uint64_t clock_total_ = 0;  ///< Exact update count, tracked incrementally.
  sim::Word true_phase_ = 1;

  // Current-phase shadows, indexed [bin][cell].
  std::vector<std::vector<std::uint8_t>> ever_written_;
  std::vector<std::vector<std::uint8_t>> filled_;
  std::vector<std::vector<sim::Word>> first_value_;
  std::vector<std::vector<std::uint8_t>> has_value_;
  std::vector<std::vector<std::uint8_t>> conflict_;
  PhaseAudit current_;
  std::vector<PhaseAudit> done_;
};

/// Stage decomposition (§4.1): stage k (1-based) is the k-th consecutive
/// interval containing 3ωn work units.  Consumes CycleRecords and, at
/// finalize(), reports Lemma 2 / Lemma 6 statistics.
class StageAnalysis final : public AgreementObserver {
 public:
  /// `stage_len` = 3·ω·n work units; `nbins` = number of bins.
  StageAnalysis(std::uint64_t stage_len, std::size_t nbins)
      : stage_len_(stage_len), nbins_(nbins) {}

  void on_cycle(const CycleRecord& rec) override { records_.push_back(rec); }

  struct Report {
    /// Complete cycles (whole execution inside one stage) per stage, over
    /// all bins (Lemma 2 predicts each full stage holds between n and 3n).
    std::vector<std::uint64_t> complete_per_stage;
    /// Stabilizing structures found (Definition 2), over all bins and
    /// disjoint stage pairs (2k-1, 2k).
    std::uint64_t stabilizing_structures = 0;
    /// Stage pairs examined (nbins x floor(stages/2)).
    std::uint64_t pairs_examined = 0;
    /// Per-bin stabilizing structure counts.
    std::vector<std::uint64_t> per_bin_structures;
  };

  /// Analyze all records seen so far.  `complete_stages_only`: drop the
  /// final partial stage.
  Report finalize() const;

  std::uint64_t stage_len() const noexcept { return stage_len_; }

 private:
  std::uint64_t stage_len_;
  std::size_t nbins_;
  std::vector<CycleRecord> records_;
};

/// Agreement-observer fan-out: the protocol and the executor each take a
/// single observer.  (Step observers fan out through the simulator's own
/// sim::CompositeObserver.)
class AgreementObserverMux final : public AgreementObserver {
 public:
  void add(AgreementObserver* o) { list_.push_back(o); }
  void on_cycle(const CycleRecord& r) override {
    for (auto* o : list_) o->on_cycle(r);
  }
  void on_phase_enter(std::size_t p, sim::Word ph) override {
    for (auto* o : list_) o->on_phase_enter(p, ph);
  }

 private:
  std::vector<AgreementObserver*> list_;
};

}  // namespace apex::agreement
