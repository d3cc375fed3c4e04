#include "check/oracle.h"

#include <gtest/gtest.h>

#include "agreement/testbed.h"

namespace apex::check {
namespace {

using sim::Cell;
using sim::Op;
using sim::StepEvent;

StepEvent write_ev(std::uint64_t time, std::size_t proc, std::size_t addr,
                   sim::Word value, sim::Word stamp, Cell before,
                   Cell after) {
  StepEvent ev;
  ev.time = time;
  ev.proc = proc;
  ev.op = Op{Op::Kind::Write, addr, value, stamp};
  ev.before = before;
  ev.after = after;
  return ev;
}

StepEvent read_ev(std::uint64_t time, std::size_t proc, std::size_t addr,
                  Cell content) {
  StepEvent ev;
  ev.time = time;
  ev.proc = proc;
  ev.op = Op{Op::Kind::Read, addr, 0, 0};
  ev.before = ev.after = content;
  return ev;
}

StepEvent local_ev(std::uint64_t time, std::size_t proc) {
  StepEvent ev;
  ev.time = time;
  ev.proc = proc;
  ev.op = Op{Op::Kind::Local, 0, 0, 0};
  return ev;
}

// ---------------------------------------------------------------------------

TEST(WorkAccountingOracle, AcceptsGaplessSequence) {
  WorkAccountingOracle o;
  for (std::uint64_t t = 0; t < 100; ++t) o.on_step(local_ev(t, t % 3));
  EXPECT_FALSE(o.failed());
}

TEST(WorkAccountingOracle, DetectsTimeGap) {
  WorkAccountingOracle o;
  o.on_step(local_ev(0, 0));
  o.on_step(local_ev(2, 0));  // time 1 skipped: work charged unobserved
  EXPECT_TRUE(o.failed());
}

TEST(WorkAccountingOracle, ReconcilesWithRealRun) {
  sim::Simulator s(sim::SimConfig{2, 4, 1},
                   std::make_unique<sim::RoundRobinSchedule>(2));
  for (int p = 0; p < 2; ++p)
    s.spawn([&](sim::Ctx& c) -> sim::ProcTask {
      return [](sim::Ctx& ctx) -> sim::ProcTask {
        for (int i = 0; i < 5; ++i) co_await ctx.local();
      }(c);
    });
  WorkAccountingOracle o;
  s.add_observer(&o);
  s.run(1000);
  o.on_finish(s);
  EXPECT_FALSE(o.failed()) << o.failures().front();
}

// ---------------------------------------------------------------------------

struct ClockFixture {
  sim::Memory mem{0};
  clockx::PhaseClock clock;
  ClockFixture() : clock(mem, clockx::ClockConfig{8, 6.0}) {}
};

TEST(ClockOracle, AcceptsReadThenWritePlusOne) {
  ClockFixture f;
  ClockOracle o(f.clock, 8);
  const std::size_t a = f.clock.base_addr();
  o.on_step(read_ev(0, 3, a, Cell{5, 0}));
  o.on_step(write_ev(1, 3, a, 6, 0, Cell{5, 0}, Cell{6, 0}));
  EXPECT_FALSE(o.failed());
}

TEST(ClockOracle, AcceptsRacyLostUpdateInterleaving) {
  // Proc 1 reads 5; the slot then moves (other updates, including a lost
  // update lowering it); proc 1 still writes 6 — legal, and the slot
  // content at write time is irrelevant.
  ClockFixture f;
  ClockOracle o(f.clock, 8);
  const std::size_t a = f.clock.base_addr();
  o.on_step(read_ev(0, 1, a, Cell{5, 0}));
  o.on_step(read_ev(1, 2, a, Cell{5, 0}));
  o.on_step(write_ev(2, 2, a, 6, 0, Cell{5, 0}, Cell{6, 0}));
  o.on_step(write_ev(3, 1, a, 6, 0, Cell{6, 0}, Cell{6, 0}));
  EXPECT_FALSE(o.failed());
}

TEST(ClockOracle, DetectsDoubleIncrement) {
  ClockFixture f;
  ClockOracle o(f.clock, 8);
  const std::size_t a = f.clock.base_addr();
  o.on_step(read_ev(0, 0, a, Cell{5, 0}));
  o.on_step(write_ev(1, 0, a, 7, 0, Cell{5, 0}, Cell{7, 0}));
  EXPECT_TRUE(o.failed());
}

TEST(ClockOracle, DetectsWriteWithoutRead) {
  ClockFixture f;
  ClockOracle o(f.clock, 8);
  const std::size_t a = f.clock.base_addr();
  o.on_step(write_ev(0, 0, a, 1, 0, Cell{0, 0}, Cell{1, 0}));
  EXPECT_TRUE(o.failed());
}

TEST(ClockOracle, DetectsPhaseRegression) {
  ClockFixture f;
  ClockOracle o(f.clock, 8);
  o.on_phase_enter(2, 2);  // within skew of true tick 0: fine
  EXPECT_FALSE(o.failed());
  o.on_phase_enter(2, 1);  // went backwards: clamp violated
  EXPECT_TRUE(o.failed());
}

TEST(ClockOracle, DetectsEstimateRunningAhead) {
  ClockFixture f;
  ClockOracle o(f.clock, 8, /*skew_ticks=*/1);
  o.on_phase_enter(0, 4);  // true tick is 0; 4 > 0 + 1 + 1
  EXPECT_TRUE(o.failed());
}

// ---------------------------------------------------------------------------

struct BinFixture {
  sim::Memory mem{0};
  agreement::BinArray bins;
  BinFixture() : bins(mem, 4, 8) {}
  static bool support(std::size_t, sim::Word v) { return v < 100; }
};

TEST(BinArrayOracle, AcceptsEvalAndFaithfulCopy) {
  BinFixture f;
  BinArrayOracle o(f.bins, BinFixture::support);
  o.on_step(write_ev(0, 0, f.bins.addr(2, 0), 42, 1, Cell{}, Cell{42, 1}));
  o.on_step(
      write_ev(1, 1, f.bins.addr(2, 1), 42, 1, Cell{}, Cell{42, 1}));
  EXPECT_FALSE(o.failed());
}

TEST(BinArrayOracle, DetectsStampZero) {
  BinFixture f;
  BinArrayOracle o(f.bins, BinFixture::support);
  o.on_step(write_ev(0, 0, f.bins.addr(0, 0), 1, 0, Cell{}, Cell{1, 0}));
  EXPECT_TRUE(o.failed());
}

TEST(BinArrayOracle, DetectsOutOfSupportValue) {
  BinFixture f;
  BinArrayOracle o(f.bins, BinFixture::support);
  o.on_step(write_ev(0, 0, f.bins.addr(0, 0), 150, 1, Cell{}, Cell{150, 1}));
  EXPECT_TRUE(o.failed());
}

TEST(BinArrayOracle, DetectsCorruptedCopy) {
  BinFixture f;
  BinArrayOracle o(f.bins, BinFixture::support);
  o.on_step(write_ev(0, 0, f.bins.addr(1, 0), 42, 1, Cell{}, Cell{42, 1}));
  // Cell 1 copies value 43: cell 0 never held 43 under stamp 1.
  o.on_step(write_ev(1, 1, f.bins.addr(1, 1), 43, 1, Cell{}, Cell{43, 1}));
  EXPECT_TRUE(o.failed());
}

TEST(BinArrayOracle, ProvenanceIsPerStamp) {
  BinFixture f;
  BinArrayOracle o(f.bins, BinFixture::support);
  o.on_step(write_ev(0, 0, f.bins.addr(0, 0), 9, 1, Cell{}, Cell{9, 1}));
  // Copying 9 forward under a DIFFERENT stamp is a stale value given a new
  // stamp — the exact bug the Fig. 2 re-read prevents.
  o.on_step(write_ev(1, 1, f.bins.addr(0, 1), 9, 2, Cell{}, Cell{9, 2}));
  EXPECT_TRUE(o.failed());
}

// ---------------------------------------------------------------------------

TEST(ClobberOracle, CountsStaleWritesAndResetsPerPhase) {
  sim::Memory mem{0};
  clockx::PhaseClock clock(mem, clockx::ClockConfig{4, 1.0});  // tau=4
  agreement::BinArray bins(mem, 4, 8);
  ClobberOracle o(bins, clock, /*max_per_bin=*/2);

  auto stale_write = [&](std::uint64_t t, std::size_t bin) {
    return write_ev(t, 0, bins.addr(bin, 0), 1, /*stamp=*/7, Cell{},
                    Cell{1, 7});
  };
  o.on_step(stale_write(0, 3));
  o.on_step(stale_write(1, 3));
  EXPECT_FALSE(o.failed());
  EXPECT_EQ(o.max_observed(), 2u);

  // Advance the true phase: 4 clock updates = one tick; counters reset.
  const std::size_t slot = clock.base_addr();
  for (int i = 0; i < 4; ++i)
    o.on_step(write_ev(2 + i, 0, slot, i + 1, 0,
                       Cell{static_cast<sim::Word>(i), 0},
                       Cell{static_cast<sim::Word>(i + 1), 0}));
  o.on_step(stale_write(10, 3));
  o.on_step(stale_write(11, 3));
  EXPECT_FALSE(o.failed());

  // Third stale write in the same phase exceeds the cap.
  o.on_step(stale_write(12, 3));
  EXPECT_TRUE(o.failed());
}

// ---------------------------------------------------------------------------

TEST(ConsensusOracle, CleanRunPasses) {
  consensus::ScanConfig cfg;
  cfg.n = 4;
  cfg.seed = 5;
  cfg.schedule = sim::ScheduleKind::kRoundRobin;
  consensus::ScanConsensus sc(cfg, agreement::uniform_task(1000));
  WorkAccountingOracle work;
  ConsensusOracle cons(sc);
  OracleSet set;
  set.add(&work);
  set.add(&cons);
  sc.simulator().add_observer(&set);
  const auto res = sc.run(1u << 20);
  set.finish(sc.simulator());
  EXPECT_TRUE(res.completed);
  EXPECT_FALSE(set.failed()) << set.first_failure();
}

TEST(ConsensusOracle, DetectsForeignRegisterWrite) {
  consensus::ScanConfig cfg;
  cfg.n = 3;
  consensus::ScanConsensus sc(cfg, agreement::uniform_task(1000));
  ConsensusOracle o(sc);
  // Proc 2 writes R[0][1] — not its register.
  o.on_step(write_ev(0, 2, sc.register_base() + 1, 7, 1, Cell{}, Cell{7, 1}));
  EXPECT_TRUE(o.failed());
}

TEST(ConsensusOracle, DetectsRegisterRewrite) {
  consensus::ScanConfig cfg;
  cfg.n = 3;
  consensus::ScanConsensus sc(cfg, agreement::uniform_task(1000));
  ConsensusOracle o(sc);
  const std::size_t r00 = sc.register_base();
  o.on_step(write_ev(0, 0, r00, 7, 1, Cell{}, Cell{7, 1}));
  EXPECT_FALSE(o.failed());
  o.on_step(write_ev(1, 0, r00, 8, 1, Cell{7, 1}, Cell{8, 1}));
  EXPECT_TRUE(o.failed());
}

// ---------------------------------------------------------------------------

TEST(OracleSet, CleanAgreementRunUnderCanonicalSchedules) {
  for (auto kind : {sim::ScheduleKind::kRoundRobin,
                    sim::ScheduleKind::kSleeper, sim::ScheduleKind::kCrash}) {
    agreement::TestbedConfig tc;
    tc.n = 8;
    tc.seed = 33;
    tc.schedule = kind;
    agreement::AgreementTestbed tb(tc, agreement::uniform_task(1 << 20),
                                   agreement::uniform_support(1 << 20));
    WorkAccountingOracle work;
    ClockOracle clock(tb.clock(), tc.n);
    BinArrayOracle bins(tb.bins(), agreement::uniform_support(1 << 20));
    ClobberOracle clobbers(tb.bins(), tb.clock());
    OracleSet set;
    set.add(&work);
    set.add(&clock);
    set.add(&bins);
    set.add(&clobbers);
    tb.attach(static_cast<sim::StepObserver*>(&set));
    tb.attach(static_cast<agreement::AgreementObserver*>(&set));
    tb.run_more(60000);
    set.finish(tb.simulator());
    EXPECT_FALSE(set.failed())
        << sim::schedule_kind_name(kind) << ": " << set.first_failure();
  }
}

}  // namespace
}  // namespace apex::check
