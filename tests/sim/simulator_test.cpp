#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace apex::sim {
namespace {

// --- Protocol coroutines used by the tests ---------------------------------

// Write `count` increments into cell `addr` (read + write per increment).
ProcTask incrementer(Ctx& ctx, std::size_t addr, int count) {
  for (int i = 0; i < count; ++i) {
    const Cell c = co_await ctx.read(addr);
    co_await ctx.write(addr, c.value + 1, 0);
  }
}

// Busy-wait until cell `flag` is nonzero, then write 1 to `out`.
ProcTask waiter(Ctx& ctx, std::size_t flag, std::size_t out) {
  for (;;) {
    const Cell c = co_await ctx.read(flag);
    if (c.value != 0) break;
  }
  co_await ctx.write(out, 1, 0);
}

// Set the flag after `delay` local steps.
ProcTask flag_setter(Ctx& ctx, std::size_t flag, int delay) {
  for (int i = 0; i < delay; ++i) co_await ctx.local();
  co_await ctx.write(flag, 1, 0);
}

// Record own id into consecutive cells to expose the grant order.
ProcTask id_writer(Ctx& ctx, std::size_t base, int count) {
  for (int i = 0; i < count; ++i)
    co_await ctx.write(base + static_cast<std::size_t>(i),
                       static_cast<Word>(ctx.id()) + 1, 0);
}

ProcTask single_local(Ctx& ctx) { co_await ctx.local(); }

ProcTask thrower(Ctx& ctx) {
  co_await ctx.local();
  throw std::runtime_error("proc failed");
}

Simulator make_sim(std::size_t nprocs, std::size_t words,
                   std::uint64_t seed = 1) {
  return Simulator(SimConfig{nprocs, words, seed},
                   std::make_unique<RoundRobinSchedule>(nprocs));
}

// --- Tests ------------------------------------------------------------------

TEST(Simulator, SingleProcRunsToCompletion) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 5); });
  const auto res = sim.run(1000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(0).value, 5u);
}

TEST(Simulator, WorkAccountsEveryAtomicStep) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 5); });
  sim.run(1000);
  // 5 iterations x (1 read + 1 write) = 10 awaits, + 1 final resume that
  // runs to co_return.
  EXPECT_EQ(sim.total_work(), 11u);
  EXPECT_EQ(sim.proc_steps(0), 11u);
}

TEST(Simulator, BusyWaitingCostsWork) {
  // The model charges busy-wait reads; the waiter spins while the setter
  // delays, so total work must far exceed the useful steps.
  auto sim = make_sim(2, 4);
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });
  sim.spawn([&](Ctx& c) { return flag_setter(c, 0, 50); });
  const auto res = sim.run(10000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(1).value, 1u);
  EXPECT_GT(sim.proc_steps(0), 45u);  // ~50 spin reads while setter delays
}

TEST(Simulator, RoundRobinInterleavesExactly) {
  auto sim = make_sim(2, 16);
  // Both procs write their id; round-robin grants alternate, and each grant
  // executes one write, so cells record strict alternation.
  sim.spawn([&](Ctx& c) { return id_writer(c, 0, 4); });
  sim.spawn([&](Ctx& c) { return id_writer(c, 8, 4); });
  sim.run(1000);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.memory().at(i).value, 1u);
    EXPECT_EQ(sim.memory().at(8 + i).value, 2u);
  }
}

TEST(Simulator, LostUpdateUnderInterleaving) {
  // Two processors doing read-then-write increments on one cell WITHOUT
  // read-modify-write atomicity lose updates under round-robin: both read
  // the same value, both write v+1.  This pins the model's "no compound
  // atomic ops" semantics (the reason the paper's protocols exist).
  auto sim = make_sim(2, 2);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
  sim.run(1000);
  EXPECT_LT(sim.memory().at(0).value, 20u);
}

TEST(Simulator, MaxStepsBoundsWork) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });  // spins forever
  const auto res = sim.run(100);
  EXPECT_FALSE(res.all_finished);
  EXPECT_EQ(res.work, 100u);
  EXPECT_EQ(sim.total_work(), 100u);
}

TEST(Simulator, RunCanBeResumed) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 50); });
  sim.run(20);
  EXPECT_EQ(sim.total_work(), 20u);
  const auto res = sim.run(1000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(0).value, 50u);
}

TEST(Simulator, StopPredicateHalts) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });
  const auto res = sim.run(
      1'000'000, [&] { return sim.total_work() >= 500; }, 16);
  EXPECT_TRUE(res.predicate_hit);
  EXPECT_LT(sim.total_work(), 600u);
}

TEST(Simulator, ExceptionInProcPropagates) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return thrower(c); });
  EXPECT_THROW(sim.run(100), std::runtime_error);
}

TEST(Simulator, FinishedProcNotCharged) {
  auto sim = make_sim(2, 2);
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 20); });
  const auto res = sim.run(10000);
  EXPECT_TRUE(res.all_finished);
  // Proc 0: 1 local + final resume = 2 steps. Proc 1: 40 + 1.
  EXPECT_EQ(sim.proc_steps(0), 2u);
  EXPECT_EQ(sim.proc_steps(1), 41u);
  EXPECT_EQ(sim.total_work(), 43u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(SimConfig{4, 8, seed},
                  std::make_unique<UniformRandomSchedule>(4, Rng(seed)));
    for (int p = 0; p < 4; ++p)
      sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
    sim.run(100000);
    return sim.memory().at(0).value;
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

TEST(Simulator, SpawnAfterRunThrows) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.run(10);
  EXPECT_THROW(sim.spawn([&](Ctx& c) { return single_local(c); }),
               std::logic_error);
}

TEST(Simulator, SpawnAfterZeroStepRunStillThrows) {
  // run(0) consumes no work but marks the simulation started.
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return single_local(c); });
  const auto res = sim.run(0);
  EXPECT_EQ(res.work, 0u);
  EXPECT_THROW(sim.spawn([&](Ctx& c) { return single_local(c); }),
               std::logic_error);
}

TEST(Simulator, RepeatedRunsAccumulateTotalWorkExactly) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });  // spins forever
  std::uint64_t expected = 0;
  for (std::uint64_t chunk : {7u, 1u, 64u, 128u, 3u}) {
    const auto res = sim.run(chunk);
    EXPECT_EQ(res.work, chunk);
    expected += chunk;
    EXPECT_EQ(sim.total_work(), expected);
    EXPECT_EQ(sim.proc_steps(0), expected);
  }
}

TEST(Simulator, StopPredicateHonoredAtCheckIntervalBoundaries) {
  // The predicate is evaluated when this run()'s consumed work is a
  // multiple of check_interval; a predicate that is true from the start
  // stops the run before ANY work, and a predicate becoming true mid-run
  // stops at the next multiple.
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });

  const auto at_zero = sim.run(
      1000, [] { return true; }, 7);
  EXPECT_TRUE(at_zero.predicate_hit);
  EXPECT_EQ(at_zero.work, 0u);
  EXPECT_EQ(sim.total_work(), 0u);

  const auto mid = sim.run(
      1000, [&] { return sim.total_work() >= 10; }, 7);
  EXPECT_TRUE(mid.predicate_hit);
  EXPECT_EQ(mid.work, 14u);  // first multiple of 7 at which total >= 10

  // check_interval = 0 is clamped to 1: the predicate fires exactly at the
  // requested threshold.
  const auto every = sim.run(
      1000, [&] { return sim.total_work() >= 17; }, 0);
  EXPECT_TRUE(every.predicate_hit);
  EXPECT_EQ(sim.total_work(), 17u);
}

// Counts every event and verifies gapless, exactly-once delivery.
class GrantCounter final : public StepObserver {
 public:
  std::uint64_t events = 0;
  std::vector<std::uint64_t> per_proc;
  bool gapless = true;
  void on_step(const StepEvent& ev) override {
    gapless &= (ev.time == events);
    ++events;
    if (ev.proc >= per_proc.size()) per_proc.resize(ev.proc + 1, 0);
    ++per_proc[ev.proc];
  }
};

TEST(Simulator, ObserverSeesEveryGrantExactlyOnce) {
  // One proc finishes early: later schedule grants to it produce NO events
  // and charge NO work, so events must still reconcile exactly.
  auto sim = make_sim(3, 8);
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 1, 7); });
  GrantCounter rec;
  sim.add_observer(&rec);
  const auto res = sim.run(100000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_TRUE(rec.gapless);
  EXPECT_EQ(rec.events, sim.total_work());
  ASSERT_EQ(rec.per_proc.size(), 3u);
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(rec.per_proc[p], sim.proc_steps(p)) << "proc " << p;
    sum += rec.per_proc[p];
  }
  EXPECT_EQ(sum, sim.total_work());
}

TEST(Simulator, CtxReportsIdentityAndSize) {
  auto sim = make_sim(3, 4);
  std::vector<std::size_t> ids;
  std::vector<std::size_t> sizes;
  for (int p = 0; p < 3; ++p) {
    sim.spawn([&](Ctx& c) -> ProcTask {
      ids.push_back(c.id());
      sizes.push_back(c.nprocs());
      return single_local(c);
    });
  }
  sim.run(100);
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 3}));
}

// Observer: records write events.
class WriteRecorder final : public StepObserver {
 public:
  struct Rec {
    std::size_t proc;
    std::size_t addr;
    Word value;
  };
  std::vector<Rec> writes;
  void on_step(const StepEvent& ev) override {
    if (ev.op.kind == Op::Kind::Write)
      writes.push_back({ev.proc, ev.op.addr, ev.op.value});
  }
};

TEST(Simulator, ObserverSeesWritesInOrder) {
  auto sim = make_sim(1, 8);
  sim.spawn([&](Ctx& c) { return id_writer(c, 2, 3); });
  WriteRecorder rec;
  sim.add_observer(&rec);
  sim.run(100);
  ASSERT_EQ(rec.writes.size(), 3u);
  EXPECT_EQ(rec.writes[0].addr, 2u);
  EXPECT_EQ(rec.writes[1].addr, 3u);
  EXPECT_EQ(rec.writes[2].addr, 4u);
  for (const auto& w : rec.writes) EXPECT_EQ(w.value, 1u);
}

TEST(Simulator, ObserverSeesBeforeAfter) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 2); });
  struct BeforeAfter final : public StepObserver {
    std::vector<std::pair<Word, Word>> w;
    void on_step(const StepEvent& ev) override {
      if (ev.op.kind == Op::Kind::Write)
        w.emplace_back(ev.before.value, ev.after.value);
    }
  } rec;
  sim.add_observer(&rec);
  sim.run(100);
  ASSERT_EQ(rec.w.size(), 2u);
  EXPECT_EQ(rec.w[0], (std::pair<Word, Word>{0, 1}));
  EXPECT_EQ(rec.w[1], (std::pair<Word, Word>{1, 2}));
}

TEST(Simulator, ObserverChainDeliversToAllInOrder) {
  // Multiple observers attach side by side (no more single-slot fights);
  // delivery is attach-order; remove_observer detaches one without
  // disturbing the rest.
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
  GrantCounter first, second;
  sim.add_observer(&first);
  sim.add_observer(&second);
  sim.run(10);
  EXPECT_EQ(first.events, 10u);
  EXPECT_EQ(second.events, 10u);
  sim.remove_observer(&first);
  sim.run(4);
  EXPECT_EQ(first.events, 10u);
  EXPECT_EQ(second.events, 14u);
}

TEST(Simulator, ClearObserversDetachesWholeChain) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
  GrantCounter first, second;
  sim.add_observer(&first);
  sim.clear_observers();
  sim.add_observer(&second);
  sim.run(6);
  EXPECT_EQ(first.events, 0u);
  EXPECT_EQ(second.events, 6u);
  sim.clear_observers();
  sim.run(4);
  EXPECT_EQ(second.events, 6u);
}

// Grants only processor 0 forever.  CallbackSchedule is non-oblivious, so
// this also exercises the batched engine's no-prefetch path.
std::unique_ptr<Schedule> only_proc0(std::size_t nprocs) {
  return std::make_unique<CallbackSchedule>(
      nprocs, [](std::uint64_t) -> std::size_t { return 0; });
}

TEST(Simulator, StarvationGuardThrowsWhenOnlyFinishedProcsGranted) {
  // Proc 0 finishes after 2 grants; proc 1 never gets granted.  With live
  // processors remaining, the run must fault once the limit of consecutive
  // finished-proc grants is exceeded rather than spin forever.
  SimConfig cfg{2, 2, 1};
  cfg.starvation_limit = 64;
  Simulator sim(cfg, only_proc0(2));
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });
  EXPECT_THROW(sim.run(1000), std::runtime_error);
  // 2 live grants + limit+1 dead grants were consumed.
  EXPECT_EQ(sim.ticks(), 2u + 64u + 1u);
  EXPECT_EQ(sim.total_work(), 2u);
}

TEST(Simulator, StarvationGuardAccumulatesAcrossRunCalls) {
  // A run() boundary must not reset the guard: dead grants split across
  // consecutive run() calls still add up to the same faulting tick.
  SimConfig cfg{2, 2, 1};
  cfg.starvation_limit = 32;
  Simulator sim(cfg, only_proc0(2));
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.spawn([&](Ctx& c) { return waiter(c, 0, 1); });

  // First call: exit mid-starvation via the stop predicate (evaluated at
  // work 0 on every loop pass, so the 5th poll ends the run after some
  // dead grants have accumulated — none of which may be forgotten).
  int polls = 0;
  const auto res = sim.run(
      1000, [&] { return ++polls >= 5; }, 1);
  EXPECT_TRUE(res.predicate_hit);
  const std::uint64_t ticks_after_first = sim.ticks();
  EXPECT_GT(ticks_after_first, 2u);  // some dead grants already consumed

  // Second call: the cumulative count faults at exactly limit+1 dead
  // grants overall — NOT limit+1 grants after the run() boundary.
  EXPECT_THROW(sim.run(1000), std::runtime_error);
  EXPECT_EQ(sim.ticks(), 2u + 32u + 1u);
}

TEST(Simulator, StarvationGuardResetByLiveGrant) {
  // Alternating dead/live grants never trip even a tiny limit.
  SimConfig cfg{2, 4, 1};
  cfg.starvation_limit = 2;
  Simulator sim(cfg, std::make_unique<RoundRobinSchedule>(2));
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 100); });
  const auto res = sim.run(10000);
  EXPECT_TRUE(res.all_finished);
}

TEST(Simulator, TimestampedWriteStoresStamp) {
  auto sim = make_sim(1, 2);
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      co_await ctx.write(0, 99, 5);
      const Cell got = co_await ctx.read(0);
      co_await ctx.write(1, got.stamp, 0);
    }(c);
  });
  sim.run(100);
  EXPECT_EQ(sim.memory().at(0).value, 99u);
  EXPECT_EQ(sim.memory().at(0).stamp, 5u);
  EXPECT_EQ(sim.memory().at(1).value, 5u);
}

}  // namespace
}  // namespace apex::sim
