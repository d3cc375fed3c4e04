#include "agreement/inspect.h"

#include <gtest/gtest.h>

#include <cmath>

#include "agreement/testbed.h"
#include "util/math.h"

namespace apex::agreement {
namespace {

// ---------------------------------------------------------------------------
// TheoremChecker on hand-built memory
// ---------------------------------------------------------------------------

struct CheckerFixture {
  sim::Memory mem{0};
  BinArray bins{mem, 2, 8};
  TheoremChecker checker{bins, [](std::size_t, sim::Word v) { return v < 10; }};

  void fill_upper(std::size_t bin, sim::Word value, sim::Word phase) {
    for (std::size_t j = 4; j < 8; ++j)
      mem.at(bins.addr(bin, j)) = sim::Cell{value, phase};
  }
};

TEST(TheoremChecker, AllFalseOnEmptyBins) {
  CheckerFixture f;
  const auto st = f.checker.check(1);
  EXPECT_FALSE(st.accessibility);
  // Vacuous uniqueness/correctness hold with no filled cells.
  EXPECT_TRUE(st.uniqueness);
  EXPECT_FALSE(f.checker.satisfied(1));
}

TEST(TheoremChecker, SatisfiedWhenAllBinsUnanimous) {
  CheckerFixture f;
  f.fill_upper(0, 3, 1);
  f.fill_upper(1, 7, 1);
  EXPECT_TRUE(f.checker.satisfied(1));
  const auto st = f.checker.check(1);
  EXPECT_TRUE(st.all());
  const auto vals = f.checker.values(1);
  EXPECT_EQ(*vals[0], 3u);
  EXPECT_EQ(*vals[1], 7u);
}

TEST(TheoremChecker, HalfFilledIsEnough) {
  CheckerFixture f;
  f.fill_upper(1, 7, 1);
  f.mem.at(f.bins.addr(0, 4)) = sim::Cell{3, 1};
  f.mem.at(f.bins.addr(0, 5)) = sim::Cell{3, 1};
  EXPECT_TRUE(f.checker.satisfied(1));
  f.mem.at(f.bins.addr(0, 5)) = sim::Cell{3, 99};  // only 1/4 filled now
  EXPECT_FALSE(f.checker.satisfied(1));
}

TEST(TheoremChecker, UniquenessViolationDetected) {
  CheckerFixture f;
  f.fill_upper(0, 3, 1);
  f.fill_upper(1, 7, 1);
  f.mem.at(f.bins.addr(0, 6)) = sim::Cell{4, 1};  // conflicting value
  EXPECT_FALSE(f.checker.satisfied(1));
  const auto st = f.checker.check(1);
  EXPECT_FALSE(st.uniqueness);
  EXPECT_TRUE(st.accessibility);
}

TEST(TheoremChecker, CorrectnessUsesSupport) {
  CheckerFixture f;
  f.fill_upper(0, 3, 1);
  f.fill_upper(1, 99, 1);  // outside support (v < 10)
  const auto st = f.checker.check(1);
  EXPECT_FALSE(st.correctness);
  EXPECT_FALSE(f.checker.satisfied(1));
}

// ---------------------------------------------------------------------------
// ClobberAudit + StageAnalysis on live runs
// ---------------------------------------------------------------------------

TEST(ClobberAudit, NoClobbersUnderFriendlySchedule) {
  TestbedConfig cfg;
  cfg.n = 32;
  cfg.seed = 4;
  cfg.schedule = sim::ScheduleKind::kRoundRobin;
  AgreementTestbed tb(cfg, uniform_task(100), uniform_support(100));
  tb.run_until_agreement(100'000'000);
  const auto snap = tb.audit().snapshot();
  EXPECT_EQ(snap.max_clobbers(), 0u);
  EXPECT_EQ(snap.phase, 1u);
}

TEST(ClobberAudit, SleeperScheduleProducesClobbersBoundedByLogN) {
  // Run across several phases so sleepers wake with stale phase estimates.
  const std::size_t n = 64;
  TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = 6;
  cfg.schedule = sim::ScheduleKind::kSleeper;
  AgreementTestbed tb(cfg, uniform_task(100), uniform_support(100));
  // Run long enough for ~4 phases.
  tb.run_more(400 * static_cast<std::uint64_t>(n_logn_loglogn(n)));
  ASSERT_GE(tb.audit().finalized().size(), 2u);
  // Lemma 1: clobbers per bin O(log n) w.h.p.; allow a generous constant.
  for (const auto& rep : tb.audit().finalized()) {
    EXPECT_LE(rep.max_clobbers(), 20 * lg(n))
        << "phase " << rep.phase;
  }
}

TEST(ClobberAudit, TracksTruePhaseFromClock) {
  const std::size_t n = 32;
  TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = 8;
  AgreementTestbed tb(cfg, uniform_task(100), uniform_support(100));
  EXPECT_EQ(tb.audit().true_phase(), 1u);
  tb.run_more(300 * static_cast<std::uint64_t>(n_logn_loglogn(n)));
  EXPECT_GT(tb.audit().true_phase(), 1u);
  EXPECT_EQ(tb.audit().true_phase(), tb.clock().exact_tick() + 1);
  // Finalized reports are contiguous phases starting at 1.
  const auto& reps = tb.audit().finalized();
  for (std::size_t k = 0; k < reps.size(); ++k)
    EXPECT_EQ(reps[k].phase, k + 1);
}

TEST(ClobberAudit, FrontierAndHoles) {
  const std::size_t n = 16;
  TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = 2;
  cfg.schedule = sim::ScheduleKind::kRoundRobin;
  AgreementTestbed tb(cfg, uniform_task(100), uniform_support(100));
  tb.run_until_agreement(10'000'000);
  // After agreement, every bin's frontier is deep into the bin and there
  // are no holes under a friendly schedule.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(tb.audit().frontier(i), tb.bins().cells_per_bin() / 2);
    EXPECT_EQ(tb.audit().holes(i), 0u);
  }
}

TEST(StageAnalysis, CompleteCyclesPerStageWithinLemma2Bounds) {
  const std::size_t n = 32;
  TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = 12;
  AgreementTestbed tb(cfg, uniform_task(100), uniform_support(100));
  StageAnalysis stages(3 * tb.runtime().cfg.omega() * n, n);
  tb.attach(&stages);
  tb.run_more(60 * 3 * tb.runtime().cfg.omega() * n);  // ~60 stages
  const auto rep = stages.finalize();
  ASSERT_GE(rep.complete_per_stage.size(), 10u);
  // Lemma 2: each (full) stage contains between n and 3n complete cycles.
  // Clock interactions consume some steps, so allow a small deficit below n.
  for (std::size_t s = 1; s + 1 < rep.complete_per_stage.size(); ++s) {
    EXPECT_GE(rep.complete_per_stage[s], 2 * n / 3) << "stage " << s;
    EXPECT_LE(rep.complete_per_stage[s], 3 * n) << "stage " << s;
  }
}

TEST(StageAnalysis, StabilizingStructuresOccurAtConstantRate) {
  // Lemma 6: the probability a stage pair forms a stabilizing structure on a
  // given bin is at least a constant (the paper proves >= e^-8 under its
  // counting; empirically the rate is much higher).
  const std::size_t n = 32;
  TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = 13;
  AgreementTestbed tb(cfg, uniform_task(100), uniform_support(100));
  StageAnalysis stages(3 * tb.runtime().cfg.omega() * n, n);
  tb.attach(&stages);
  tb.run_more(80 * 3 * tb.runtime().cfg.omega() * n);
  const auto rep = stages.finalize();
  ASSERT_GT(rep.pairs_examined, 0u);
  const double rate = static_cast<double>(rep.stabilizing_structures) /
                      static_cast<double>(rep.pairs_examined);
  EXPECT_GT(rate, std::exp(-8.0));
}

TEST(StageAnalysis, EmptyReportOnNoRecords) {
  StageAnalysis stages(100, 4);
  const auto rep = stages.finalize();
  EXPECT_TRUE(rep.complete_per_stage.empty());
  EXPECT_EQ(rep.stabilizing_structures, 0u);
  EXPECT_EQ(rep.pairs_examined, 0u);
}

TEST(StabilityPoint, WithinHalfBinAfterAgreement) {
  // Lemma 7: all bins reach stability by cell B/2 — i.e. value conflicts
  // (two different values written to the same cell in one phase) only occur
  // below B/2.
  const std::size_t n = 64;
  TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = 21;
  AgreementTestbed tb(cfg, uniform_task(1 << 20), uniform_support(1 << 20));
  const auto res = tb.run_until_agreement(100'000'000);
  ASSERT_TRUE(res.satisfied);
  const auto snap = tb.audit().snapshot();
  EXPECT_LE(snap.max_stable_from(), tb.bins().cells_per_bin() / 2);
}

TEST(Muxes, FanOutToAllRegistered) {
  struct CountObs final : public AgreementObserver {
    int cycles = 0;
    void on_cycle(const CycleRecord&) override { ++cycles; }
  } a, b;
  AgreementObserverMux mux;
  mux.add(&a);
  mux.add(&b);
  CycleRecord r;
  mux.on_cycle(r);
  mux.on_cycle(r);
  EXPECT_EQ(a.cycles, 2);
  EXPECT_EQ(b.cycles, 2);

  struct CountStep final : public sim::StepObserver {
    int steps = 0;
    void on_step(const sim::StepEvent&) override { ++steps; }
  } c, d;
  sim::CompositeObserver smux;
  smux.add(&c);
  smux.add(&d);
  sim::StepEvent ev;
  smux.on_step(ev);
  EXPECT_EQ(c.steps, 1);
  EXPECT_EQ(d.steps, 1);
}

}  // namespace
}  // namespace apex::agreement
