// Flush-boundary semantics of the batched observer path (observer.h's
// delivery contract made executable): exactly-once delivery across sliced
// run() calls and mid-batch exits, flush-then-throw on every fault class,
// span boundaries as pure framing, and stream equality against the
// single-step reference engine.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/simulator.h"

namespace apex::sim {
namespace {

// Flattened event identity: everything an observer can read from a
// StepEvent.  Two runs are "the same observation" iff these sequences match.
using EventKey = std::tuple<std::uint64_t, std::size_t, Op::Kind, std::size_t,
                            Word, Word, Cell, Cell>;

EventKey key_of(const StepEvent& ev) {
  return {ev.time,     ev.proc,     ev.op.kind, ev.op.addr,
          ev.op.value, ev.op.stamp, ev.before,  ev.after};
}

/// Span-native recorder: keeps the full event stream plus the framing (span
/// lengths), so tests can assert content and boundaries independently.
struct Recorder final : StepObserver {
  std::vector<EventKey> events;
  std::vector<std::size_t> spans;
  void on_step(const StepEvent& ev) override {
    on_steps(std::span<const StepEvent>(&ev, 1));
  }
  void on_steps(std::span<const StepEvent> evs) override {
    spans.push_back(evs.size());
    for (const StepEvent& ev : evs) events.push_back(key_of(ev));
  }
};

ProcTask incrementer(Ctx& ctx, std::size_t addr, int count) {
  for (int i = 0; i < count; ++i) {
    const Cell c = co_await ctx.read(addr);
    co_await ctx.write(addr, c.value + 1, 0);
  }
}

ProcTask mixed_proc(Ctx& ctx, std::size_t addr) {
  for (sim::Word i = 0;; ++i) {
    co_await ctx.write(addr, i, i);
    co_await ctx.read(addr);
    co_await ctx.local();
  }
}

ProcTask single_local(Ctx& ctx) { co_await ctx.local(); }

ProcTask thrower_after(Ctx& ctx, int steps) {
  for (int i = 0; i < steps; ++i) co_await ctx.local();
  throw std::runtime_error("proc failed");
}

ProcTask oob_reader(Ctx& ctx, int good_steps, std::size_t bad_addr) {
  for (int i = 0; i < good_steps; ++i) co_await ctx.local();
  co_await ctx.read(bad_addr);
}

Simulator make_sim(std::size_t nprocs, std::size_t words, GrantEngine engine,
                   std::uint64_t seed = 1) {
  SimConfig cfg{nprocs, words, seed};
  cfg.engine = engine;
  return Simulator(cfg, std::make_unique<RoundRobinSchedule>(nprocs));
}

// --- Stream equality against the single-step reference ----------------------

TEST(ObserverBatch, StreamMatchesSingleStepEngineExactly) {
  auto run_engine = [](GrantEngine engine) {
    auto sim = make_sim(3, 8, engine);
    sim.spawn([&](Ctx& c) { return incrementer(c, 0, 40); });
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 1); });
    sim.spawn([&](Ctx& c) { return incrementer(c, 2, 25); });
    Recorder rec;
    sim.add_observer(&rec);
    sim.run(500);
    return rec.events;
  };
  const auto batched = run_engine(GrantEngine::kBatched);
  const auto single = run_engine(GrantEngine::kSingleStep);
  EXPECT_EQ(batched.size(), 500u);
  EXPECT_EQ(batched, single);
}

TEST(ObserverBatch, SpanFramingCarriesNoContent) {
  // Same workload, sliced into adversarial run() chunks: the framing (span
  // sizes) changes, the concatenated stream must not.
  auto run_sliced = [](const std::vector<std::uint64_t>& slices) {
    auto sim = make_sim(2, 4, GrantEngine::kBatched);
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 0); });
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 1); });
    Recorder rec;
    sim.add_observer(&rec);
    for (auto s : slices) sim.run(s);
    return rec;
  };
  const auto one_shot = run_sliced({600});
  const auto sliced = run_sliced({7, 1, 64, 300, 128, 100});
  EXPECT_EQ(one_shot.events.size(), 600u);
  EXPECT_EQ(one_shot.events, sliced.events);
  EXPECT_NE(one_shot.spans, sliced.spans);
  for (auto s : sliced.spans) EXPECT_GE(s, 1u);
}

TEST(ObserverBatch, ExactlyOnceAcrossManySingleStepSlices) {
  // run(1) x N forces a flush at every consume exit with a one-event span;
  // nothing may be dropped or double-delivered.
  auto sim = make_sim(2, 4, GrantEngine::kBatched);
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 30); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 1, 30); });
  Recorder rec;
  sim.add_observer(&rec);
  for (int i = 0; i < 100; ++i) sim.run(1);
  ASSERT_EQ(rec.events.size(), 100u);
  for (std::size_t i = 0; i < rec.events.size(); ++i)
    EXPECT_EQ(std::get<0>(rec.events[i]), i) << "event time must be dense";
}

// --- Stop predicates ---------------------------------------------------------

TEST(ObserverBatch, MidBatchStopPredicateSeesEveryEventUpToPoll) {
  // The predicate reads observer state: delivery must precede every poll,
  // and a predicate hit mid-batch must not replay or drop events when the
  // run resumes.
  auto sim = make_sim(2, 4, GrantEngine::kBatched);
  sim.spawn([&](Ctx& c) { return mixed_proc(c, 0); });
  sim.spawn([&](Ctx& c) { return mixed_proc(c, 1); });
  Recorder rec;
  sim.add_observer(&rec);
  const auto res = sim.run(
      100000, [&] { return rec.events.size() >= 50; }, 16);
  EXPECT_TRUE(res.predicate_hit);
  EXPECT_GE(rec.events.size(), 50u);
  EXPECT_LT(rec.events.size(), 50u + 16u);
  const std::size_t at_stop = rec.events.size();
  sim.run(64);
  EXPECT_EQ(rec.events.size(), at_stop + 64u);
  for (std::size_t i = 0; i < rec.events.size(); ++i)
    EXPECT_EQ(std::get<0>(rec.events[i]), i);
}

// --- Fault classes: flush-then-throw ----------------------------------------

TEST(ObserverBatch, StarvationFaultDeliversPriorEventsExactlyOnce) {
  SimConfig cfg{2, 2, 1};
  cfg.starvation_limit = 64;
  cfg.engine = GrantEngine::kBatched;
  Simulator sim(cfg, std::make_unique<CallbackSchedule>(
                         2, [](std::uint64_t) -> std::size_t { return 0; }));
  sim.spawn([&](Ctx& c) { return single_local(c); });
  sim.spawn([&](Ctx& c) { return incrementer(c, 0, 10); });
  Recorder rec;
  sim.add_observer(&rec);
  EXPECT_THROW(sim.run(1000), std::runtime_error);
  // Proc 0's local + final resume executed (and were delivered) before the
  // dead-grant spin tripped the starvation guard.
  EXPECT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(std::get<0>(rec.events[0]), 0u);
  EXPECT_EQ(std::get<0>(rec.events[1]), 1u);
}

TEST(ObserverBatch, ScriptExhaustThrowDeliversScriptedPrefix) {
  // A kThrow script faults at refill time, when the event buffer is empty:
  // every scripted step must already have been delivered.
  const std::vector<std::size_t> script = {0, 1, 0, 1, 1, 0, 0};
  for (auto engine : {GrantEngine::kBatched, GrantEngine::kSingleStep}) {
    SimConfig cfg{2, 4, 1};
    cfg.engine = engine;
    Simulator sim(cfg, std::make_unique<ScriptedSchedule>(
                           2, script, ScriptExhaust::kThrow));
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 0); });
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 1); });
    Recorder rec;
    sim.add_observer(&rec);
    EXPECT_THROW(sim.run(1000), std::out_of_range);
    EXPECT_EQ(rec.events.size(), script.size());
    for (std::size_t i = 0; i < script.size(); ++i) {
      EXPECT_EQ(std::get<0>(rec.events[i]), i);
      EXPECT_EQ(std::get<1>(rec.events[i]), script[i]);
    }
  }
}

TEST(ObserverBatch, ProcExceptionDeliversEventsBeforeFaultingStep) {
  // The faulting resume produced no completed step: its event must never
  // surface, and everything before it must, on both engines identically.
  auto run_engine = [](GrantEngine engine) {
    auto sim = make_sim(2, 4, engine);
    sim.spawn([&](Ctx& c) { return thrower_after(c, 5); });
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 0); });
    Recorder rec;
    sim.add_observer(&rec);
    EXPECT_THROW(sim.run(1000), std::runtime_error);
    return rec.events;
  };
  const auto batched = run_engine(GrantEngine::kBatched);
  const auto single = run_engine(GrantEngine::kSingleStep);
  EXPECT_EQ(batched, single);
  // Round-robin: procs alternate; proc 0's 5 locals + proc 1's first 5
  // steps = 10 events before proc 0's 6th resume throws.
  EXPECT_EQ(batched.size(), 10u);
}

TEST(ObserverBatch, OutOfRangeAddressFaultsWithoutEventAndMatchesReference) {
  auto run_engine = [](GrantEngine engine) {
    auto sim = make_sim(2, 4, engine);
    sim.spawn([&](Ctx& c) { return oob_reader(c, 3, 99); });
    sim.spawn([&](Ctx& c) { return mixed_proc(c, 0); });
    Recorder rec;
    sim.add_observer(&rec);
    EXPECT_THROW(sim.run(1000), std::out_of_range);
    return std::pair{rec.events, sim.total_work()};
  };
  const auto batched = run_engine(GrantEngine::kBatched);
  const auto single = run_engine(GrantEngine::kSingleStep);
  EXPECT_EQ(batched.first, single.first);
  EXPECT_EQ(batched.second, single.second);
  // 3 locals + 3 interleaved steps of proc 1; the OOB read never executes.
  EXPECT_EQ(batched.first.size(), 6u);
}

// --- flush_observers() outside a consume loop --------------------------------

TEST(ObserverBatch, ManualFlushOutsideRunIsANoOp) {
  auto sim = make_sim(1, 4, GrantEngine::kBatched);
  sim.spawn([&](Ctx& c) { return mixed_proc(c, 0); });
  Recorder rec;
  sim.add_observer(&rec);
  sim.flush_observers();  // nothing pending before the first run
  sim.run(10);
  const auto spans_after_run = rec.spans.size();
  sim.flush_observers();  // run() already flushed at exit
  EXPECT_EQ(rec.events.size(), 10u);
  EXPECT_EQ(rec.spans.size(), spans_after_run);
}

}  // namespace
}  // namespace apex::sim
