// Integration tests for the execution scheme (paper §2, Fig. 1): the
// nondeterministic scheme executes deterministic programs exactly and
// nondeterministic programs consistently; the deterministic baseline is
// exact for deterministic programs but breaks on nondeterministic ones.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex::exec {
namespace {

using pram::Word;

ExecConfig make_cfg(std::uint64_t seed,
                    sim::ScheduleKind kind = sim::ScheduleKind::kUniformRandom) {
  ExecConfig cfg;
  cfg.seed = seed;
  cfg.schedule = kind;
  return cfg;
}

TEST(Executor, DeterministicProgramMatchesReference) {
  // A little arithmetic pipeline; both schemes must reproduce the
  // synchronous interpreter's memory exactly.
  pram::ProgramBuilder b(4, 12);
  b.step()
      .thread(0, pram::Instr::constant(0, 10))
      .thread(1, pram::Instr::constant(1, 20))
      .thread(2, pram::Instr::constant(2, 3))
      .thread(3, pram::Instr::constant(3, 4));
  b.step()
      .thread(0, pram::Instr::add(4, 0, 1))
      .thread(1, pram::Instr::mul(5, 2, 3));
  b.step().thread(2, pram::Instr::sub(6, 4, 5));
  b.step().thread(0, pram::Instr::max(7, 6, 4));
  pram::Program p = b.build();
  const auto ref = pram::Interpreter(p).run_deterministic({});

  for (Scheme scheme : {Scheme::kNondeterministic, Scheme::kDeterministic}) {
    Executor ex(p, scheme, make_cfg(11));
    const auto res = ex.run(Executor::default_budget(p));
    ASSERT_TRUE(res.completed) << scheme_name(scheme);
    EXPECT_EQ(res.incomplete_tasks, 0u) << scheme_name(scheme);
    EXPECT_EQ(res.memory, ref.memory) << scheme_name(scheme);
  }
}

TEST(Executor, ReductionMatchesReferenceAcrossSchedules) {
  const std::size_t n = 8;
  pram::Program p = pram::make_reduction(n);
  // Initial memory is all zeros in the executor; use constants step to seed:
  // simpler: zero inputs sum to zero — instead build a program that sets
  // inputs first.
  pram::ProgramBuilder b(n, p.nvars());
  b.step().all([&](std::size_t i) {
    return pram::Instr::constant(static_cast<std::uint32_t>(i),
                                 static_cast<Word>(3 * i + 1));
  });
  for (std::size_t s = 0; s < p.nsteps(); ++s) {
    auto sb = b.step();
    for (std::size_t t = 0; t < n; ++t) sb.thread(t, p.step(s).instrs[t]);
  }
  pram::Program seeded = b.build();
  const auto ref = pram::Interpreter(seeded).run_deterministic({});

  for (auto kind : {sim::ScheduleKind::kRoundRobin,
                    sim::ScheduleKind::kUniformRandom,
                    sim::ScheduleKind::kPowerLaw, sim::ScheduleKind::kBurst}) {
    Executor ex(seeded, Scheme::kNondeterministic, make_cfg(21, kind));
    const auto res = ex.run(Executor::default_budget(seeded));
    ASSERT_TRUE(res.completed) << sim::schedule_kind_name(kind);
    EXPECT_EQ(res.memory[pram::reduction_result_var(n)],
              ref.memory[pram::reduction_result_var(n)])
        << sim::schedule_kind_name(kind);
  }
}

TEST(Executor, NondetSchemeExecutesRandomizedProgramConsistently) {
  const std::size_t n = 8;
  pram::Program p = pram::make_luby_cycle_round(n, 1 << 16);
  const auto chk = run_checked(p, Scheme::kNondeterministic, make_cfg(31));
  ASSERT_TRUE(chk.result.completed);
  EXPECT_EQ(chk.consistency_error, "");
  EXPECT_EQ(chk.result.incomplete_tasks, 0u);
  // The MIS invariant holds on the executed memory.
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(chk.result.memory[pram::luby_violation_var(n, i)], 0u);
}

TEST(Executor, LeaderElectionUnderNondetScheme) {
  const std::size_t n = 8;
  pram::Program p = pram::make_leader_election(n, 1 << 16);
  const auto chk = run_checked(p, Scheme::kNondeterministic, make_cfg(41));
  ASSERT_TRUE(chk.result.completed);
  EXPECT_EQ(chk.consistency_error, "");
  Word maxv = 0;
  for (std::size_t i = 0; i < n; ++i)
    maxv = std::max(maxv, chk.result.memory[pram::leader_ticket_var(n, i)]);
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(chk.result.memory[pram::leader_max_var(n, i)], maxv);
    leaders += chk.result.memory[pram::leader_flag_var(n, i)];
  }
  EXPECT_GE(leaders, 1u);
}

TEST(Executor, ConsistencyProbeCleanUnderNondetScheme) {
  const std::size_t n = 8, chain = 6;
  pram::Program p = pram::make_consistency_probe(n, chain, 1 << 20);
  for (auto kind :
       {sim::ScheduleKind::kUniformRandom, sim::ScheduleKind::kSleeper,
        sim::ScheduleKind::kBurst}) {
    const auto chk = run_checked(p, Scheme::kNondeterministic, make_cfg(51, kind));
    ASSERT_TRUE(chk.result.completed) << sim::schedule_kind_name(kind);
    EXPECT_EQ(chk.consistency_error, "") << sim::schedule_kind_name(kind);
    for (std::size_t j = 0; j < pram::probe_flag_count(chain); ++j)
      EXPECT_EQ(chk.result.memory[pram::probe_flag_var(n, chain, j)], 1u)
          << sim::schedule_kind_name(kind) << " flag " << j;
  }
}

TEST(Executor, DetSchemeBreaksOnNondeterministicPrograms) {
  // The paper's motivation: without agreement, re-executions of a
  // randomized task produce different values and downstream state becomes
  // inconsistent.  Under hostile schedules some seeds must violate the
  // probe invariant; under the paper's scheme none may (tested above).
  const std::size_t n = 8, chain = 8;
  pram::Program p = pram::make_consistency_probe(n, chain, 1 << 20);
  int violations = 0;
  int runs = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (auto kind :
         {sim::ScheduleKind::kSleeper, sim::ScheduleKind::kBurst}) {
      const auto chk = run_checked(p, Scheme::kDeterministic, make_cfg(seed, kind));
      if (!chk.result.completed) continue;
      ++runs;
      bool bad = !chk.consistency_error.empty();
      for (std::size_t j = 0; j < pram::probe_flag_count(chain); ++j)
        bad |= (chk.result.memory[pram::probe_flag_var(n, chain, j)] != 1u);
      violations += bad;
    }
  }
  ASSERT_GT(runs, 0);
  EXPECT_GT(violations, 0)
      << "deterministic baseline unexpectedly consistent on all "
      << runs << " hostile runs";
}

TEST(Executor, DeterministicGivenSeed) {
  pram::Program p = pram::make_luby_cycle_round(8, 1000);
  auto run = [&](std::uint64_t seed) {
    Executor ex(p, Scheme::kNondeterministic, make_cfg(seed));
    return ex.run(Executor::default_budget(p));
  };
  const auto a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_NE(a.memory, c.memory);
}

TEST(Executor, ProducedTraceMatchesMemoryReplay) {
  pram::Program p = pram::make_coin_matrix(8, 4, 0.5);
  const auto chk = run_checked(p, Scheme::kNondeterministic, make_cfg(61));
  ASSERT_TRUE(chk.result.completed);
  EXPECT_EQ(chk.consistency_error, "");
  // Every produced coin is 0/1 and matches the final memory (coins are
  // written once and never overwritten).
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t i = 0; i < 8; ++i) {
      const Word v = chk.result.produced[s][i];
      EXPECT_LE(v, 1u);
      EXPECT_EQ(v, chk.result.memory[pram::coin_matrix_var(8, s, i)]);
    }
}

TEST(Executor, BudgetExhaustionReportsIncomplete) {
  pram::Program p = pram::make_coin_matrix(8, 4, 0.5);
  Executor ex(p, Scheme::kNondeterministic, make_cfg(71));
  const auto res = ex.run(500);  // far too little
  EXPECT_FALSE(res.completed);
  const auto chk = run_checked(p, Scheme::kNondeterministic, make_cfg(71), 500);
  EXPECT_NE(chk.consistency_error, "");
}

TEST(Executor, RejectsANonFiniteClockAlpha) {
  // The phase clock casts alpha * n to an integer tick threshold.
  pram::Program p = pram::make_coin_matrix(8, 2, 0.5);
  ExecConfig cfg = make_cfg(91);
  cfg.clock_alpha = std::nan("");
  EXPECT_THROW(Executor(p, Scheme::kNondeterministic, cfg),
               std::invalid_argument);
}

TEST(Executor, WorkScalesWithSteps) {
  // Work should grow roughly linearly in the number of PRAM steps.
  auto work_for = [&](std::size_t t) {
    pram::Program p = pram::make_coin_matrix(8, t, 0.5);
    Executor ex(p, Scheme::kNondeterministic, make_cfg(81));
    const auto res = ex.run(Executor::default_budget(p));
    EXPECT_TRUE(res.completed);
    return res.total_work;
  };
  const auto w2 = work_for(2);
  const auto w8 = work_for(8);
  EXPECT_GT(w8, 2 * w2);
  EXPECT_LT(w8, 16 * w2);
}

}  // namespace
}  // namespace apex::exec
