#include "clock/phase_clock.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace apex::clockx {
namespace {

using sim::Ctx;
using sim::ProcTask;
using sim::RoundRobinSchedule;
using sim::SimConfig;
using sim::Simulator;

// Proc: perform `k` clock updates, then stop.
ProcTask updater(Ctx& ctx, PhaseClock& clk, int k) {
  for (int i = 0; i < k; ++i) co_await clk.update(ctx);
}

// Proc: perform one read and store the result out-of-band.
ProcTask reader(Ctx& ctx, PhaseClock& clk, std::uint64_t& out) {
  out = co_await clk.read(ctx);
}

// Proc: alternate updates and reads; record the sequence of read values.
ProcTask update_and_read(Ctx& ctx, PhaseClock& clk, int rounds,
                         std::vector<std::uint64_t>& ticks) {
  for (int i = 0; i < rounds; ++i) {
    co_await clk.update(ctx);
    ticks.push_back(co_await clk.read(ctx));
  }
}

struct Fixture {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<PhaseClock> clk;

  explicit Fixture(std::size_t n, ClockConfig cc = {}, std::uint64_t seed = 1) {
    cc.nprocs = n;
    sim = std::make_unique<Simulator>(
        SimConfig{n, 0, seed}, std::make_unique<RoundRobinSchedule>(n));
    clk = std::make_unique<PhaseClock>(sim->memory(), cc);
  }
};

TEST(PhaseClock, DefaultsDeriveFromN) {
  Fixture f(64);
  EXPECT_EQ(f.clk->slots(), 64u);
  EXPECT_EQ(f.clk->samples(), 3u * lg(64));  // 18
  EXPECT_EQ(f.clk->threshold(), 8u * 64u / 8u * 6u);  // alpha=6 -> 384
}

TEST(PhaseClock, UpdateCostsTwoSteps) {
  Fixture f(1);
  f.sim->spawn([&](Ctx& c) { return updater(c, *f.clk, 10); });
  f.sim->run(1000);
  // 10 updates x 2 + final resume.
  EXPECT_EQ(f.sim->total_work(), 21u);
}

TEST(PhaseClock, ReadCostMatchesContract) {
  Fixture f(1);
  std::uint64_t out = 0;
  f.sim->spawn([&](Ctx& c) { return reader(c, *f.clk, out); });
  f.sim->run(1000);
  EXPECT_EQ(f.sim->total_work(), f.clk->read_cost() + 1);
}

TEST(PhaseClock, ExactTotalCountsUnracedUpdates) {
  // A single processor's read-then-write increments never race.
  Fixture f(1);
  f.sim->spawn([&](Ctx& c) { return updater(c, *f.clk, 100); });
  f.sim->run(10000);
  EXPECT_EQ(f.clk->exact_total(), 100u);
}

TEST(PhaseClock, TickZeroBeforeThreshold) {
  Fixture f(4);
  std::uint64_t out = 99;
  f.sim->spawn([&](Ctx& c) { return updater(c, *f.clk, 2); });
  for (int p = 1; p < 3; ++p)
    f.sim->spawn([&](Ctx& c) { return updater(c, *f.clk, 2); });
  f.sim->spawn([&](Ctx& c) { return reader(c, *f.clk, out); });
  f.sim->run(10000);
  EXPECT_EQ(out, 0u);
}

TEST(PhaseClock, TickAdvancesWithinAlphaBracket) {
  // Drive 1280 = 10*tau update invocations from all processors.  The
  // [alpha1, alpha2] contract allows a constant-factor gap between
  // invocations and recorded increments: concurrent read-then-write
  // increments to the same slot can be lost (the design absorbs the loss
  // into the bracket; bench E8 measures it).  Assert the bracket, not
  // losslessness.
  const std::size_t n = 32;
  ClockConfig cc;
  cc.alpha = 4.0;
  Fixture f(n, cc, 7);
  std::vector<std::vector<std::uint64_t>> ticks(n);
  for (std::size_t p = 0; p < n; ++p)
    f.sim->spawn([&, p](Ctx& c) { return update_and_read(c, *f.clk, 40, ticks[p]); });
  f.sim->run(1'000'000);
  const std::uint64_t invocations = 32 * 40;
  // Lost increments are a bounded constant fraction, not a collapse.
  EXPECT_LE(f.clk->exact_total(), invocations);
  EXPECT_GE(f.clk->exact_total(), invocations / 3);
  // 10*tau invocations advance the tick at least twice (alpha2 sufficiency)
  // and at most 10 times (alpha1 necessity: a tick can never cost fewer
  // invocations than recorded increments).
  std::uint64_t max_tick = 0;
  for (const auto& ts : ticks)
    for (auto t : ts) max_tick = std::max(max_tick, t);
  EXPECT_GE(max_tick, 2u);
  EXPECT_LE(max_tick, 10u);
  // Every processor eventually observed an advanced clock.
  for (const auto& ts : ticks) {
    ASSERT_FALSE(ts.empty());
    EXPECT_GE(ts.back(), 1u);
  }
}

TEST(PhaseClock, ReaderViewIsMonotone) {
  const std::size_t n = 16;
  Fixture f(n, {}, 3);
  std::vector<std::vector<std::uint64_t>> ticks(n);
  for (std::size_t p = 0; p < n; ++p)
    f.sim->spawn([&, p](Ctx& c) { return update_and_read(c, *f.clk, 200, ticks[p]); });
  f.sim->run(5'000'000);
  for (const auto& ts : ticks) {
    for (std::size_t i = 1; i < ts.size(); ++i)
      ASSERT_GE(ts[i], ts[i - 1]) << "reader view went backwards";
  }
}

TEST(PhaseClock, EstimateTracksExactUnderConcurrency) {
  const std::size_t n = 64;
  Fixture f(n, {}, 11);
  std::vector<std::vector<std::uint64_t>> ticks(n);
  for (std::size_t p = 0; p < n; ++p)
    f.sim->spawn([&, p](Ctx& c) { return update_and_read(c, *f.clk, 100, ticks[p]); });
  f.sim->run(10'000'000);
  // Read-then-write increments lose an update when another processor hits
  // the same slot between the read and the write.  With m = n slots and up
  // to n in-flight increments the retention is at worst about
  // (1 - 1/m)^n ~ e^-1; this constant-factor loss is exactly what the
  // paper's [alpha1, alpha2] bracket absorbs (measured in bench E8).
  EXPECT_GT(f.clk->exact_total(), 64u * 100u * 35 / 100);
  EXPECT_LE(f.clk->exact_total(), 64u * 100u);
  // Final reader estimates within a factor-2 bracket of the exact tick.
  const double exact = static_cast<double>(f.clk->exact_tick());
  for (const auto& ts : ticks) {
    ASSERT_FALSE(ts.empty());
    const double got = static_cast<double>(ts.back());
    EXPECT_GE(got, exact * 0.4 - 2.0);
    EXPECT_LE(got, exact * 2.0 + 2.0);
  }
}

TEST(PhaseClock, OwnsOnlyItsRegion) {
  Fixture f(8);
  const std::size_t base = f.clk->base_addr();
  EXPECT_TRUE(f.clk->owns(base));
  EXPECT_TRUE(f.clk->owns(base + f.clk->slots() - 1));
  EXPECT_FALSE(f.clk->owns(base + f.clk->slots()));
  const std::size_t more = f.sim->memory().extend(4);
  EXPECT_FALSE(f.clk->owns(more));
}

TEST(PhaseClock, ValidatesConfig) {
  sim::Memory mem(0);
  ClockConfig bad;
  bad.nprocs = 0;
  EXPECT_THROW(PhaseClock(mem, bad), std::invalid_argument);
  ClockConfig bad2;
  bad2.nprocs = 4;
  bad2.alpha = -1.0;
  EXPECT_THROW(PhaseClock(mem, bad2), std::invalid_argument);
}

// --- The tick listener --------------------------------------------------------

/// Records each tick report with the simulator's total_work() at the call.
struct FireLog final : TickListener {
  const Simulator* sim = nullptr;
  std::vector<std::uint64_t> ticks;
  std::vector<std::uint64_t> times;
  void on_tick(std::uint64_t tick) override {
    ticks.push_back(tick);
    times.push_back(sim->total_work());
  }
};

/// Event-side recount of the true total: sums the positive deltas of clock
/// writes and records the StepEvent::time at which the sum crosses each k·τ.
struct Recount final : sim::StepObserver {
  const PhaseClock* clk = nullptr;
  std::uint64_t total = 0;
  std::uint64_t lowered = 0;  ///< Lost updates that lowered their slot.
  std::vector<std::uint64_t> crossings;
  void on_step(const sim::StepEvent& ev) override {
    if (ev.op.kind != sim::Op::Kind::Write || !clk->owns(ev.op.addr)) return;
    if (ev.after.value < ev.before.value) ++lowered;
    if (ev.after.value <= ev.before.value) return;
    total += ev.after.value - ev.before.value;
    while (crossings.size() < total / clk->threshold())
      crossings.push_back(ev.time);
  }
};

/// 16 processors make 100 clock updates each under a uniformly random
/// (racing) schedule, τ = 16; `recount`, when given, rides the observer
/// chain.
FireLog run_listened(sim::GrantEngine engine, Recount* recount) {
  const std::size_t n = 16;
  SimConfig sc{n, 0, 5};
  sc.engine = engine;
  Simulator sim(sc, sim::make_schedule(sim::ScheduleKind::kUniformRandom, n,
                                       apex::Rng(9)));
  ClockConfig cc;
  cc.nprocs = n;
  cc.alpha = 1.0;
  PhaseClock clk(sim.memory(), cc);
  FireLog log;
  log.sim = &sim;
  clk.set_listener(&log);
  if (recount != nullptr) {
    recount->clk = &clk;
    sim.add_observer(recount);
  }
  for (std::size_t p = 0; p < n; ++p)
    sim.spawn([&](Ctx& c) { return updater(c, clk, 100); });
  sim.run(1'000'000);
  return log;
}

TEST(PhaseClock, ListenerFiresAtTheTrueTickCrossings) {
  for (auto engine : {sim::GrantEngine::kBatched, sim::GrantEngine::kSingleStep}) {
    SCOPED_TRACE(engine == sim::GrantEngine::kBatched ? "batched"
                                                      : "single_step");
    Recount rc;
    const FireLog watched = run_listened(engine, &rc);
    EXPECT_LT(rc.total, 16u * 100u) << "the schedule must lose updates";
    EXPECT_GT(rc.lowered, 0u) << "some lost update must lower a slot";
    // Once per true-tick advance, in order, at the exact crossing step.
    ASSERT_EQ(watched.ticks.size(), rc.total / 16);
    ASSERT_GE(watched.ticks.size(), 20u);
    for (std::size_t k = 0; k < watched.ticks.size(); ++k)
      EXPECT_EQ(watched.ticks[k], k + 1);
    EXPECT_EQ(watched.times, rc.crossings);
    // Without the recount on the chain (the batched engine then takes its
    // no-observer fast path) the listener fires at the identical steps.
    EXPECT_EQ(run_listened(engine, nullptr).times, watched.times);
  }
}

TEST(PhaseClock, NecessityLowerBound) {
  // "At least alpha1*n invocations are necessary": with fewer than tau/2
  // updates, no reader may observe tick >= 1 (sampling can overestimate,
  // but by at most ~2x with these parameters; this is the w.h.p. claim the
  // paper's constants encode).
  const std::size_t n = 64;
  ClockConfig cc;
  cc.alpha = 8.0;
  Fixture f(n, cc, 13);
  const std::uint64_t tau = 8 * 64;
  std::vector<std::vector<std::uint64_t>> ticks(n);
  const int per_proc = static_cast<int>(tau / (2 * n));  // tau/2 total updates
  for (std::size_t p = 0; p < n; ++p)
    f.sim->spawn([&, p](Ctx& c) { return update_and_read(c, *f.clk, per_proc, ticks[p]); });
  f.sim->run(1'000'000);
  for (const auto& ts : ticks)
    for (auto t : ts) EXPECT_EQ(t, 0u);
}

}  // namespace
}  // namespace apex::clockx
