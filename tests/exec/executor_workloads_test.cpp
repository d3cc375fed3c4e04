// Executor integration on the extended workload library: deterministic
// kernels must reproduce the synchronous reference bit-for-bit under both
// schemes; nondeterministic kernels must be consistent with SOME valid
// synchronous execution under the paper's scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "exec/executor.h"
#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex::exec {
namespace {

using pram::Word;

// Every ExecResult field, for whole-result comparisons.
auto fields(const ExecResult& r) {
  return std::tie(r.completed, r.total_work, r.memory, r.produced,
                  r.incomplete_tasks, r.stamp_misses);
}

// Seed the inputs of a kernel via an extra constants step, since executor
// memory starts all-zero.
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

TEST(ExecutorWorkloads, PrefixSumMatchesReference) {
  const std::size_t n = 8;
  std::vector<Word> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = 5 * i + 1;
  pram::Program p = with_inputs(pram::make_prefix_sum(n), in);
  const auto ref = pram::Interpreter(p).run_deterministic({});
  for (Scheme scheme : {Scheme::kNondeterministic, Scheme::kDeterministic}) {
    ExecConfig cfg;
    cfg.seed = 101;
    Executor ex(p, scheme, cfg);
    const auto res = ex.run(Executor::default_budget(p));
    ASSERT_TRUE(res.completed) << scheme_name(scheme);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(res.memory[pram::prefix_sum_var(n, i)],
                ref.memory[pram::prefix_sum_var(n, i)])
          << scheme_name(scheme) << " i=" << i;
  }
}

TEST(ExecutorWorkloads, SortMatchesReferenceAcrossSchedules) {
  const std::size_t n = 6;
  const std::vector<Word> in = {9, 2, 7, 2, 5, 1};
  pram::Program p = with_inputs(pram::make_odd_even_sort(n), in);
  std::vector<Word> expect = in;
  std::sort(expect.begin(), expect.end());
  for (auto kind : {sim::ScheduleKind::kUniformRandom,
                    sim::ScheduleKind::kSleeper, sim::ScheduleKind::kBurst}) {
    ExecConfig cfg;
    cfg.seed = 103;
    cfg.schedule = kind;
    Executor ex(p, Scheme::kNondeterministic, cfg);
    const auto res = ex.run(Executor::default_budget(p));
    ASSERT_TRUE(res.completed) << sim::schedule_kind_name(kind);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(res.memory[pram::sort_var(n, i)], expect[i])
          << sim::schedule_kind_name(kind) << " i=" << i;
  }
}

TEST(ExecutorWorkloads, RingColoringFlagsConsistentUnderNondetScheme) {
  const std::size_t n = 8;
  pram::Program p = pram::make_ring_coloring(n, 4);
  ExecConfig ring_cfg;
  ring_cfg.seed = 105;
  const auto chk = run_checked(p, Scheme::kNondeterministic, ring_cfg);
  ASSERT_TRUE(chk.result.completed);
  EXPECT_EQ(chk.consistency_error, "");
  // The committed flags must match the committed colors — the property the
  // deterministic baseline cannot guarantee.
  for (std::size_t i = 0; i < n; ++i) {
    const Word ci = chk.result.memory[pram::ring_color_var(n, i)];
    const Word cn = chk.result.memory[pram::ring_color_var(n, (i + 1) % n)];
    EXPECT_EQ(chk.result.memory[pram::ring_conflict_var(n, i)],
              ci == cn ? 1u : 0u)
        << "node " << i;
  }
}

TEST(ExecutorWorkloads, GatherResolvesRuntimeTargetsUnderHostileSchedules) {
  // idx computed at run time selects the segment cell; the executor must
  // stamp-check the computed target like any static operand, under both
  // schemes and hostile schedules.  Out-of-range branch included (idx 7).
  pram::ProgramBuilder b(4, 16);
  b.step()
      .thread(0, pram::Instr::constant(0, 2))   // idx a
      .thread(1, pram::Instr::constant(1, 7))   // idx b (out of range)
      .thread(2, pram::Instr::constant(8, 30))  // segment cells, written at
      .thread(3, pram::Instr::constant(9, 31));  // run time
  b.step()
      .thread(0, pram::Instr::constant(10, 32))
      .thread(1, pram::Instr::constant(11, 33))
      .thread(2, pram::Instr::constant(4, 4))   // bounds; offsets v2, v3
      .thread(3, pram::Instr::constant(5, 4));  // stay 0
  b.step().thread(0, pram::Instr::gather_dyn(14, 0, 2, 4, 8, 4));  // v10 = 32
  b.step().thread(1, pram::Instr::gather_dyn(15, 1, 3, 5, 8, 4));  // 7 -> 0
  pram::Program p = b.build();
  const auto ref = pram::Interpreter(p).run_deterministic({});
  ASSERT_EQ(ref.memory[14], 32u);
  ASSERT_EQ(ref.memory[15], 0u);
  for (Scheme scheme : {Scheme::kNondeterministic, Scheme::kDeterministic}) {
    for (auto kind : {sim::ScheduleKind::kUniformRandom,
                      sim::ScheduleKind::kSleeper, sim::ScheduleKind::kBurst}) {
      ExecConfig cfg;
      cfg.seed = 301;
      cfg.schedule = kind;
      Executor ex(p, scheme, cfg);
      const auto res = ex.run(Executor::default_budget(p));
      ASSERT_TRUE(res.completed)
          << scheme_name(scheme) << " " << sim::schedule_kind_name(kind);
      EXPECT_EQ(res.memory[14], 32u)
          << scheme_name(scheme) << " " << sim::schedule_kind_name(kind);
      EXPECT_EQ(res.memory[15], 0u)
          << scheme_name(scheme) << " " << sim::schedule_kind_name(kind);
    }
  }
}

TEST(ExecutorWorkloads, SpmvGatherKernelMatchesReferenceBitForBit) {
  const std::size_t n = 8;
  pram::Program p = pram::make_spmv_csr(n);
  const auto ref = pram::Interpreter(p).run_deterministic({});
  ExecConfig cfg;
  cfg.seed = 107;
  cfg.schedule = sim::ScheduleKind::kBurst;
  Executor ex(p, Scheme::kNondeterministic, cfg);
  const auto res = ex.run(Executor::default_budget(p));
  ASSERT_TRUE(res.completed);
  for (std::size_t v = 0; v < ref.memory.size(); ++v)
    EXPECT_EQ(res.memory[v], ref.memory[v]) << "v" << v;
}

TEST(ExecutorWorkloads, LargeRegistryInstanceRunsThroughTheSimulatedScheme) {
  // The registry's scale_ns instances are not host-only: the simulated
  // scheme handles P = 64 too (this is what the fuzzer's rare large-n
  // trials exercise under adversarial schedules).  spmv is the cheapest of
  // the scale kernels and the one with run-time-addressed gathers.
  const auto* wl = pram::find_workload("spmv");
  ASSERT_NE(wl, nullptr);
  ASSERT_FALSE(wl->scale_ns.empty());
  const std::size_t n = wl->scale_ns.front();  // 64
  pram::Program p = wl->make(n);
  const auto ref = pram::Interpreter(p).run_deterministic({});
  ExecConfig cfg;
  cfg.seed = 131;
  Executor ex(p, Scheme::kNondeterministic, cfg);
  const auto res = ex.run(Executor::default_budget(p));
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.incomplete_tasks, 0u);
  for (std::size_t v = 0; v < ref.memory.size(); ++v)
    ASSERT_EQ(res.memory[v], ref.memory[v]) << "v" << v;
}

TEST(ExecutorWorkloads, CommitAuditNeedsNoStepObserver) {
  // The subphase audit and the det scheme's first-write capture run inside
  // the protocol (the clock's tick listener, det_compute_once), not on the
  // simulator's observer chain: an executor whose chain is emptied before
  // run() takes the no-observer fast path and must return exactly what an
  // untouched one does.
  for (const auto& wl : pram::workload_registry()) {
    const pram::Program p = wl.make(8);
    for (Scheme scheme : {Scheme::kNondeterministic, Scheme::kDeterministic}) {
      ExecConfig cfg;
      cfg.seed = 5;
      Executor untouched(p, scheme, cfg);
      Executor cleared(p, scheme, cfg);
      cleared.simulator().clear_observers();
      const auto a = untouched.run(Executor::default_budget(p));
      const auto b = cleared.run(Executor::default_budget(p));
      EXPECT_EQ(fields(a), fields(b)) << wl.name << " " << scheme_name(scheme);
    }
  }
}

TEST(ExecutorWorkloads, PrefixSumSelfUpdateStepsSurviveHostileSchedule) {
  // make_prefix_sum reads and writes a[i] in one step — the generation-slot
  // memory must keep the pre-step value readable while the new one lands.
  const std::size_t n = 4;
  std::vector<Word> in = {1, 2, 3, 4};
  pram::Program p = with_inputs(pram::make_prefix_sum(n), in);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ExecConfig cfg;
    cfg.seed = 200 + seed;
    cfg.schedule = sim::ScheduleKind::kSleeper;
    Executor ex(p, Scheme::kNondeterministic, cfg);
    const auto res = ex.run(Executor::default_budget(p));
    ASSERT_TRUE(res.completed) << "seed " << seed;
    EXPECT_EQ(res.memory[pram::prefix_sum_var(n, 3)], 10u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace apex::exec
