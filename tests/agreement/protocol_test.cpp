// Unit tests for Fig. 2: the binary search, one agreement cycle, and the
// NewVal read procedure — driven directly (no clock, no driver loop) so each
// line's behaviour is pinned.
#include "agreement/protocol.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "agreement/testbed.h"
#include "sim/simulator.h"

namespace apex::agreement {
namespace {

using sim::Cell;
using sim::Ctx;
using sim::ProcTask;
using sim::Word;

struct CycleFixture {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<BinArray> bins;
  AgreementRuntime rt;

  explicit CycleFixture(std::size_t n, std::size_t cells, TaskFn task,
                        std::size_t nprocs = 1, std::uint64_t seed = 1) {
    sim = std::make_unique<sim::Simulator>(
        sim::SimConfig{nprocs, 0, seed},
        std::make_unique<sim::RoundRobinSchedule>(nprocs));
    bins = std::make_unique<BinArray>(sim->memory(), n, cells);
    rt.cfg.n = n;
    rt.cfg.beta = 8;  // cells param overrides sizing; omega uses cells_per_bin
    rt.bins = bins.get();
    rt.task = std::move(task);
  }
};

// Run `k` cycles at fixed phase and stop.
ProcTask run_cycles(Ctx& ctx, AgreementRuntime& rt, Word phase, int k) {
  for (int i = 0; i < k; ++i) co_await agreement_cycle(ctx, rt, phase);
}

// The binary search of Fig. 2 lines 2-4, one probe per step.
ProcTask run_search(Ctx& ctx, const BinArray& bins, std::size_t bin, Word phase,
                    std::size_t& out) {
  BinSearch search(bins, bin, phase);
  while (search.searching()) {
    const Cell c = co_await ctx.read(search.probe());
    search.observe(c);
  }
  out = search.first_empty();
}

// Obtaining NewVal[i]: the upper-half scan, one probe per step.
ProcTask run_read_agreed(Ctx& ctx, const BinArray& bins, std::size_t i,
                         Word phase, std::optional<Word>& out) {
  UpperHalfScan scan(bins, i, phase);
  while (scan.scanning()) {
    const Cell c = co_await ctx.read(scan.probe());
    scan.observe(c);
  }
  out = scan.value();
}

// ---------------------------------------------------------------------------
// Binary search
// ---------------------------------------------------------------------------

TEST(SearchFirstEmpty, EmptyBinReturnsZero) {
  CycleFixture f(1, 8, identity_task());
  std::size_t out = 99;
  f.sim->spawn([&](Ctx& c) { return run_search(c, *f.bins, 0, 1, out); });
  f.sim->run(100);
  EXPECT_EQ(out, 0u);
}

TEST(SearchFirstEmpty, FindsFrontierOnCleanPrefix) {
  CycleFixture f(1, 8, identity_task());
  for (std::size_t j = 0; j < 5; ++j)
    f.sim->memory().at(f.bins->addr(0, j)) = Cell{7, 1};
  std::size_t out = 99;
  f.sim->spawn([&](Ctx& c) { return run_search(c, *f.bins, 0, 1, out); });
  f.sim->run(100);
  EXPECT_EQ(out, 5u);
}

TEST(SearchFirstEmpty, FullBinReturnsB) {
  CycleFixture f(1, 8, identity_task());
  for (std::size_t j = 0; j < 8; ++j)
    f.sim->memory().at(f.bins->addr(0, j)) = Cell{7, 1};
  std::size_t out = 0;
  f.sim->spawn([&](Ctx& c) { return run_search(c, *f.bins, 0, 1, out); });
  f.sim->run(100);
  EXPECT_EQ(out, 8u);
}

TEST(SearchFirstEmpty, ProbeCountIsFixed) {
  // ceil(log2(8+1)) = 4 probes + final resume, regardless of contents.
  for (std::size_t prefix : {0u, 3u, 8u}) {
    CycleFixture f(1, 8, identity_task());
    for (std::size_t j = 0; j < prefix; ++j)
      f.sim->memory().at(f.bins->addr(0, j)) = Cell{7, 1};
    std::size_t out = 0;
    f.sim->spawn([&](Ctx& c) { return run_search(c, *f.bins, 0, 1, out); });
    f.sim->run(100);
    EXPECT_EQ(f.sim->total_work(), 5u) << "prefix=" << prefix;
  }
}

TEST(SearchFirstEmpty, MayLandOnHole) {
  // Cells 0..5 filled except a hole at 2 (stale stamp).  The search keeps
  // the invariant lo-filled/hi-empty but can return the hole or a later
  // boundary — it must return SOME empty cell index.
  CycleFixture f(1, 8, identity_task());
  for (std::size_t j = 0; j < 6; ++j)
    f.sim->memory().at(f.bins->addr(0, j)) = Cell{7, 1};
  f.sim->memory().at(f.bins->addr(0, 2)) = Cell{7, 99};  // hole
  std::size_t out = 0;
  f.sim->spawn([&](Ctx& c) { return run_search(c, *f.bins, 0, 1, out); });
  f.sim->run(100);
  EXPECT_TRUE(out == 2u || out == 6u) << out;
  EXPECT_FALSE(f.bins->filled(0, out, 1));
}

// ---------------------------------------------------------------------------
// One cycle
// ---------------------------------------------------------------------------

TEST(AgreementCycle, FirstCycleEvaluatesFIntoCellZero) {
  CycleFixture f(1, 8, identity_task());
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 1); });
  f.sim->run(1000);
  EXPECT_TRUE(f.bins->filled(0, 0, 1));
  EXPECT_EQ(f.bins->value(0, 0), 0u);  // identity task: f_0 = 0
  EXPECT_FALSE(f.bins->filled(0, 1, 1));
}

TEST(AgreementCycle, SubsequentCyclesCopyForward) {
  CycleFixture f(1, 8, identity_task());
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 5); });
  f.sim->run(10000);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_TRUE(f.bins->filled(0, j, 1)) << j;
    EXPECT_EQ(f.bins->value(0, j), 0u);
  }
  EXPECT_FALSE(f.bins->filled(0, 5, 1));
}

TEST(AgreementCycle, EveryCycleCostsExactlyOmega) {
  // identity task costs 1 local step; compute_steps=1.
  CycleFixture f(1, 8, identity_task());
  const std::uint64_t omega = f.rt.cfg.omega();
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 12); });
  f.sim->run(100000);
  // 12 cycles (covering write-f, copy, and full-bin branches: B=8 so cycles
  // 9..12 find the bin full) + final resume.
  EXPECT_EQ(f.sim->total_work(), 12 * omega + 1);
}

TEST(AgreementCycle, OmegaFormulaCoversBranches) {
  AgreementConfig cfg;
  cfg.n = 1024;
  cfg.beta = 8;
  cfg.compute_steps = 3;
  // B = 80, probes = ceil(log2(81)) = 7, omega = 1 + 7 + max(4, 2) = 12.
  EXPECT_EQ(cfg.cells_per_bin(), 80u);
  EXPECT_EQ(cfg.search_probes(), 7u);
  EXPECT_EQ(cfg.omega(), 12u);
}

TEST(AgreementCycle, OmegaGrowsDoublyLogarithmically) {
  // omega is Theta(log log n): going from n=16 to n=65536 must grow omega
  // only by a few steps.
  AgreementConfig small;
  small.n = 16;
  AgreementConfig big;
  big.n = 65536;
  EXPECT_LE(big.omega(), small.omega() + 4);
}

TEST(AgreementCycle, FullBinCycleWritesNothing) {
  CycleFixture f(1, 4, identity_task());
  for (std::size_t j = 0; j < 4; ++j)
    f.sim->memory().at(f.bins->addr(0, j)) = Cell{42, 1};
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 3); });
  f.sim->run(1000);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(f.bins->value(0, j), 42u);
}

TEST(AgreementCycle, StaleStampedPreviousCellIsNotCopied) {
  // Frontier at 3, but cell 2 carries a stale stamp (clobbered): the search
  // lands on the hole at 2; the copy branch re-reads cell 1 which is fine,
  // so it fills the hole.  If instead cell 1 were ALSO stale, nothing may
  // be written.
  CycleFixture f(1, 8, identity_task());
  f.sim->memory().at(f.bins->addr(0, 0)) = Cell{7, 1};
  f.sim->memory().at(f.bins->addr(0, 1)) = Cell{7, 99};  // stale
  f.sim->memory().at(f.bins->addr(0, 2)) = Cell{7, 99};  // stale
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 1); });
  f.sim->run(1000);
  // The search sees filled(0)=T, then stale cells as empty; it returns 1 or
  // 2; prev cell (0 or 1).  If it returned 1, prev=0 is filled -> copy fills
  // cell 1 with value 7 and stamp 1.  If it returned 2, prev=1 is stale ->
  // no write.  Either way no stale VALUE may acquire stamp 1 beyond cell 1.
  EXPECT_FALSE(f.bins->filled(0, 2, 1));
  if (f.bins->filled(0, 1, 1)) {
    EXPECT_EQ(f.bins->value(0, 1), 7u);
  }
}

TEST(AgreementCycle, TardyStampWritesAreVisibleAsClobbers) {
  // A cycle run with phase=1 into a bin whose cells carry phase=2 stamps
  // treats them as empty and overwrites cell 0 with stamp 1 — the clobber
  // mechanism of Lemma 1.
  CycleFixture f(1, 8, identity_task());
  for (std::size_t j = 0; j < 3; ++j)
    f.sim->memory().at(f.bins->addr(0, j)) = Cell{9, 2};
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 1); });
  f.sim->run(1000);
  EXPECT_TRUE(f.bins->filled(0, 0, 1));
  EXPECT_FALSE(f.bins->filled(0, 0, 2));  // phase 2 lost this cell: a hole
}

TEST(AgreementCycle, ObserverReceivesTimingAndWriteInfo) {
  struct Rec final : public AgreementObserver {
    std::vector<CycleRecord> recs;
    void on_cycle(const CycleRecord& r) override { recs.push_back(r); }
  } rec;
  CycleFixture f(1, 8, identity_task());
  f.rt.observer = &rec;
  f.sim->spawn([&](Ctx& c) { return run_cycles(c, f.rt, 1, 3); });
  f.sim->run(1000);
  ASSERT_EQ(rec.recs.size(), 3u);
  const std::uint64_t omega = f.rt.cfg.omega();
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& r = rec.recs[k];
    EXPECT_EQ(r.proc, 0u);
    EXPECT_EQ(r.bin, 0u);
    EXPECT_EQ(r.phase, 1u);
    EXPECT_EQ(r.f_time - r.s_time, omega);
    EXPECT_GT(r.d_time, r.s_time);
    EXPECT_LT(r.d_time, r.f_time);
    EXPECT_EQ(r.wrote_cell, static_cast<int>(k));
  }
  EXPECT_TRUE(rec.recs[0].evaluated_f);
  EXPECT_FALSE(rec.recs[1].evaluated_f);
}

// ---------------------------------------------------------------------------
// Reading the agreed value (upper-half scan)
// ---------------------------------------------------------------------------

TEST(ReadAgreed, NulloptWhenUpperHalfEmpty) {
  CycleFixture f(1, 8, identity_task());
  f.sim->memory().at(f.bins->addr(0, 0)) = Cell{5, 1};  // lower half only
  std::optional<Word> out;
  f.sim->spawn([&](Ctx& c) { return run_read_agreed(c, *f.bins, 0, 1, out); });
  f.sim->run(1000);
  EXPECT_FALSE(out.has_value());
}

TEST(ReadAgreed, ReturnsFirstFilledUpperHalfValue) {
  CycleFixture f(1, 8, identity_task());
  f.sim->memory().at(f.bins->addr(0, 5)) = Cell{77, 1};
  std::optional<Word> out;
  f.sim->spawn([&](Ctx& c) { return run_read_agreed(c, *f.bins, 0, 1, out); });
  f.sim->run(1000);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 77u);
}

TEST(ReadAgreed, IgnoresOtherPhases) {
  CycleFixture f(1, 8, identity_task());
  f.sim->memory().at(f.bins->addr(0, 5)) = Cell{77, 2};
  std::optional<Word> out;
  f.sim->spawn([&](Ctx& c) { return run_read_agreed(c, *f.bins, 0, 1, out); });
  f.sim->run(1000);
  EXPECT_FALSE(out.has_value());
}

TEST(ReadAgreed, StopsAtFirstFilledCell) {
  // Accessibility makes >= half the upper half filled, so the expected
  // probe count is O(1): with the whole upper half filled the scan stops
  // after a single read.
  CycleFixture f(1, 8, identity_task());
  for (std::size_t j = 4; j < 8; ++j)
    f.sim->memory().at(f.bins->addr(0, j)) = Cell{1, 1};
  std::optional<Word> out;
  f.sim->spawn([&](Ctx& c) { return run_read_agreed(c, *f.bins, 0, 1, out); });
  f.sim->run(1000);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(f.sim->total_work(), 2u);  // 1 read + final resume
}

TEST(ReadAgreed, WorstCaseScansWholeUpperHalf) {
  CycleFixture f(1, 8, identity_task());
  std::optional<Word> out;
  f.sim->spawn([&](Ctx& c) { return run_read_agreed(c, *f.bins, 0, 1, out); });
  f.sim->run(1000);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(f.sim->total_work(), 5u);  // 4 upper-half reads + final resume
}

}  // namespace
}  // namespace apex::agreement
