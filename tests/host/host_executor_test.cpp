// HostExecutor: the full execution scheme on real threads.  Deterministic
// kernels must reproduce the synchronous reference exactly; nondeterministic
// kernels must satisfy their self-declared invariants — under genuine OS
// preemption rather than a simulated adversary.
#include "host/host_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "pram/interp.h"
#include "pram/workloads.h"
#include "tests/address_cap.h"

namespace apex::host {
namespace {

using pram::Word;

HostExecConfig make_cfg(std::uint64_t seed) {
  HostExecConfig cfg;
  cfg.seed = seed;
  cfg.timeout_seconds = 120.0;
  return cfg;
}

// Prepend a constants step seeding vars [0, in.size()).
pram::Program with_inputs(const pram::Program& p, const std::vector<Word>& in) {
  pram::ProgramBuilder b(p.nthreads(), p.nvars());
  b.step().all([&](std::size_t i) {
    return i < in.size()
               ? pram::Instr::constant(static_cast<std::uint32_t>(i), in[i])
               : pram::Instr::nop();
  });
  for (std::size_t s = 0; s < p.nsteps(); ++s) {
    auto sb = b.step();
    for (std::size_t t = 0; t < p.nthreads(); ++t)
      sb.thread(t, p.step(s).instrs[t]);
  }
  return b.build();
}

TEST(HostExecutor, DeterministicPipelineMatchesReference) {
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

  HostExecutor ex(p, make_cfg(21));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << "work=" << res.total_work;
  for (std::size_t v = 0; v < 8; ++v)
    EXPECT_EQ(res.memory[v], ref.memory[v]) << "v" << v;
}

TEST(HostExecutor, PrefixSumOnRealThreads) {
  const std::size_t n = 4;
  pram::Program p = with_inputs(pram::make_prefix_sum(n), {1, 2, 3, 4});
  HostExecutor ex(p, make_cfg(22));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.memory[pram::prefix_sum_var(n, 0)], 1u);
  EXPECT_EQ(res.memory[pram::prefix_sum_var(n, 1)], 3u);
  EXPECT_EQ(res.memory[pram::prefix_sum_var(n, 2)], 6u);
  EXPECT_EQ(res.memory[pram::prefix_sum_var(n, 3)], 10u);
}

TEST(HostExecutor, SortOnRealThreads) {
  const std::size_t n = 4;
  pram::Program p = with_inputs(pram::make_odd_even_sort(n), {9, 1, 7, 3});
  HostExecutor ex(p, make_cfg(23));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed);
  const std::vector<Word> expect = {1, 3, 7, 9};
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(res.memory[pram::sort_var(n, i)], expect[i]) << "i=" << i;
}

TEST(HostExecutor, RandomizedRingColoringIsInternallyConsistent) {
  // The scheme's whole point: downstream steps of a RANDOMIZED program see
  // ONE agreed value per draw, even with every thread racing.
  const std::size_t n = 4;
  pram::Program p = pram::make_ring_coloring(n, 4);
  HostExecutor ex(p, make_cfg(24));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed);
  for (std::size_t i = 0; i < n; ++i) {
    const Word ci = res.memory[pram::ring_color_var(n, i)];
    const Word cn = res.memory[pram::ring_color_var(n, (i + 1) % n)];
    EXPECT_LT(ci, 4u);
    EXPECT_EQ(res.memory[pram::ring_conflict_var(n, i)], ci == cn ? 1u : 0u)
        << "node " << i;
  }
}

TEST(HostExecutor, ConsistencyProbeHoldsOnRealThreads) {
  const std::size_t n = 4, chain = 4;
  pram::Program p = pram::make_consistency_probe(n, chain, 1 << 20);
  HostExecutor ex(p, make_cfg(25));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed);
  for (std::size_t j = 0; j < pram::probe_flag_count(chain); ++j)
    EXPECT_EQ(res.memory[pram::probe_flag_var(n, chain, j)], 1u)
        << "flag " << j;
}

TEST(HostExecutor, GenerationsValidated) {
  // Rejected before anything is sized from it: 10^11 generations must be
  // a clean std::invalid_argument, not std::bad_alloc from the layout.
  pram::Program p = pram::make_coin_matrix(2, 1, 0.5);
  for (const std::size_t g : {std::size_t{0}, std::size_t{1},
                              std::size_t{100000000000}}) {
    HostExecConfig cfg;
    cfg.generations = g;
    EXPECT_THROW(HostExecutor(p, cfg), std::invalid_argument) << "G=" << g;
  }
}

TEST(HostExecutor, ClockAlphaValidated) {
  // tau = alpha * P is cast to an integer: NaN, infinities and negative
  // alpha would make that cast undefined, and alpha = 0 would mean tau = 1.
  pram::Program p = pram::make_coin_matrix(2, 1, 0.5);
  for (const double alpha : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    HostExecConfig cfg;
    cfg.clock_alpha = alpha;
    EXPECT_THROW(HostExecutor(p, cfg), std::invalid_argument)
        << "alpha=" << alpha;
  }
}

TEST(HostExecutor, PackWidthOverflowAbortsCleanlyInsteadOfCrashing) {
  // A program value >= 2^40 exceeds the host Pack width.  Before the
  // worker-side catch this threw std::out_of_range inside a std::thread —
  // std::terminate, killing the whole process.  Now the run must abort
  // cleanly: completed=false, the error surfaced, every thread joined.
  pram::ProgramBuilder b(2, 4);
  b.step()
      .thread(0, pram::Instr::constant(0, Word{1} << 45))
      .thread(1, pram::Instr::constant(1, 7));
  b.step().thread(0, pram::Instr::add(2, 0, 1));
  pram::Program p = b.build();
  HostExecutor ex(p, make_cfg(31));
  const auto res = ex.run();
  EXPECT_FALSE(res.completed);
  EXPECT_NE(res.error.find("40 bits"), std::string::npos) << res.error;
}

TEST(HostExecutor, FailedThreadSpawnAbortsCleanly) {
  // 64 workers need far more than 64 MB of stack, so under the cap some
  // std::thread constructor throws.  Before the fix the vector of started
  // threads was destroyed joinable: std::terminate.  Now the run waves the
  // started workers off, joins them and reports the failure.  The executor
  // is built before the fork, so only the threads are short of memory.
  if (test_support::kSanitized) GTEST_SKIP() << "needs the address space";
  const pram::Program p = pram::find_workload("prefix")->make(64);
  HostExecConfig cfg = make_cfg(34);
  cfg.os_threads = 64;
  HostExecutor ex(p, cfg);
  const int status = test_support::exit_status_under_address_cap([&] {
    const HostExecResult res = ex.run();
    if (res.completed) return 1;
    return res.error.find("cannot start") == 0 ? 0 : 2;
  });
  EXPECT_EQ(status, 0) << "1: every thread started; 2: another error; "
                          "-1: the child died";
}

TEST(HostExecutor, TimeoutEndsTheAttemptWithoutAnError) {
  // A phase of 6.4e10 clock updates cannot finish in 50 ms: the watchdog
  // waves the workers off.  Nothing faulted, so the error stays empty, and
  // run_until_clean reports the attempt instead of retrying it.
  const pram::Program p = pram::find_workload("prefix")->make(64);
  HostExecConfig cfg = make_cfg(35);
  cfg.os_threads = 2;
  cfg.clock_alpha = 1e9;
  cfg.timeout_seconds = 0.05;
  const HostRun run = run_until_clean(p, cfg);
  EXPECT_FALSE(run.result.completed);
  EXPECT_EQ(run.result.error, "");
  EXPECT_EQ(run.attempts, 1);
}

TEST(HostExecutor, ValuesJustBelowPackWidthSurvive) {
  // 2^40 - 1 is the largest representable host value; it must round-trip
  // through bins, generation slots, and the final extraction.
  const Word big = (Word{1} << 40) - 1;
  pram::ProgramBuilder b(2, 4);
  b.step()
      .thread(0, pram::Instr::constant(0, big))
      .thread(1, pram::Instr::constant(1, 1));
  b.step().thread(0, pram::Instr::min(2, 0, 1));
  pram::Program p = b.build();
  HostExecutor ex(p, make_cfg(32));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.memory[0], big);
  EXPECT_EQ(res.memory[2], 1u);
}

TEST(HostExecutor, GatherResolvesComputedTargetsOnRealThreads) {
  // Computed-index addressing through the host stamp discipline, including
  // the out-of-range branch (defined result 0).
  pram::ProgramBuilder b(2, 10);
  b.step()
      .thread(0, pram::Instr::constant(0, 2))    // idx in range
      .thread(1, pram::Instr::constant(1, 99));  // idx out of range
  b.step()
      .thread(0, pram::Instr::constant(4, 20))   // window [4, 8)
      .thread(1, pram::Instr::constant(6, 22));
  b.step().thread(0, pram::Instr::gather(8, 0, 4, 4));  // -> v6 = 22
  b.step().thread(1, pram::Instr::gather(9, 1, 4, 4));  // -> 0
  pram::Program p = b.build();
  HostExecutor ex(p, make_cfg(33));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.memory[8], 22u);
  EXPECT_EQ(res.memory[9], 0u);
}

TEST(HostExecutor, OversubscribedStillCompletes) {
  // 8 threads on however few cores this machine has.
  const std::size_t n = 8;
  pram::Program p = with_inputs(pram::make_prefix_sum(n),
                                {1, 1, 1, 1, 1, 1, 1, 1});
  HostExecConfig cfg = make_cfg(26);
  cfg.os_threads = 8;
  HostExecutor ex(p, cfg);
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << "work=" << res.total_work;
  EXPECT_EQ(res.memory[pram::prefix_sum_var(n, 7)], 8u);
}

}  // namespace
}  // namespace apex::host
