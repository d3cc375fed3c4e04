// The virtualized host executor: P logical processors multiplexed onto T
// OS threads.  Pins the contracts the virtualization added on top of the
// original one-thread-per-processor port:
//   * T = 1 is a fully deterministic sequential interleaving (same seed =>
//     identical memory image, run to run), and deterministic kernels are
//     bit-for-bit the synchronous reference;
//   * oversubscription in both directions (T > cores, os_threads > P) is
//     legal — os_threads clamps to P, a worker needs a processor to drive —
//     and the default (0) is the hardware thread count, not T = P;
//   * both slicings (equal-count and weight-balanced, even with a slice
//     left empty) produce audit-clean, reference-exact runs;
//   * the post-join repair pass re-commits an audited-stale slot from its
//     writer's bin (and honestly reports an unrepairable one).
#include "host/host_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex::host {
namespace {

using pram::Word;

HostExecConfig virt_cfg(std::uint64_t seed, std::size_t threads,
                        double alpha = 48.0) {
  HostExecConfig cfg;
  cfg.seed = seed;
  cfg.os_threads = threads;
  cfg.clock_alpha = alpha;
  cfg.timeout_seconds = 120.0;
  return cfg;
}

void expect_matches_reference(const char* workload, std::size_t n,
                              const HostExecResult& res) {
  ASSERT_TRUE(res.completed) << workload << " error=" << res.error;
  ASSERT_EQ(res.lost_commits, 0u) << workload;
  const auto* spec = pram::find_workload(workload);
  ASSERT_NE(spec, nullptr) << workload;
  std::vector<Word> mem(res.memory.begin(), res.memory.end());
  EXPECT_EQ(spec->check(n, mem), "") << workload;
  const auto ref = pram::Interpreter(spec->make(n)).run_deterministic({});
  for (std::size_t v = 0; v < ref.memory.size(); ++v)
    ASSERT_EQ(mem[v], ref.memory[v]) << workload << " v" << v;
}

TEST(HostVirtual, SequentialRunIsDeterministicAndBitForBit) {
  // T = 1: one OS thread round-robins over all P processors — no OS timing
  // enters the execution at all, so the full interleaving is a function of
  // the seed.  Deterministic kernels must equal the synchronous reference
  // AND the whole memory image must reproduce run to run.
  for (const char* workload : {"prefix", "spmv"}) {
    const auto* spec = pram::find_workload(workload);
    const pram::Program p = spec->make(8);
    HostExecutor a(p, virt_cfg(91, 1));
    const auto ra = a.run();
    expect_matches_reference(workload, 8, ra);
    HostExecutor b(p, virt_cfg(91, 1));
    const auto rb = b.run();
    ASSERT_TRUE(rb.completed);
    EXPECT_EQ(ra.memory, rb.memory) << workload << ": T=1 not reproducible";
    EXPECT_EQ(ra.total_work, rb.total_work) << workload;
  }
}

TEST(HostVirtual, SequentialRunReproducesNondeterministicKernelsToo) {
  // Even a NONDETERMINISTIC kernel is reproducible at T = 1: the protocol
  // coins come from per-processor seeded streams and the interleaving is
  // fixed, so which draw wins agreement is fixed.
  const auto* spec = pram::find_workload("dag");
  const pram::Program p = spec->make(8);
  HostExecutor a(p, virt_cfg(92, 1));
  HostExecutor b(p, virt_cfg(92, 1));
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.completed && rb.completed);
  ASSERT_EQ(ra.lost_commits, 0u);
  EXPECT_EQ(ra.memory, rb.memory);
  std::vector<Word> mem(ra.memory.begin(), ra.memory.end());
  EXPECT_EQ(spec->check(8, mem), "");
}

TEST(HostVirtual, MoreWorkerThreadsThanCores) {
  // T chosen far above any runner's core count: genuine oversubscription
  // preemption on top of virtualization.  Must still complete audit-clean
  // (or detectably damaged — retried on a fresh seed).
  const auto* spec = pram::find_workload("prefix");
  const pram::Program p = spec->make(16);
  const HostExecConfig cfg = virt_cfg(93, 16, 512.0);
  EXPECT_EQ(HostExecutor(p, cfg).os_threads(), 16u);
  expect_matches_reference("prefix", 16, run_until_clean(p, cfg).result);
}

TEST(HostVirtual, OsThreadsClampedToProcessorCount) {
  // T > P would leave workers with nothing to drive: os_threads clamps.
  const auto* spec = pram::find_workload("prefix");
  const pram::Program p = spec->make(4);
  HostExecutor ex(p, virt_cfg(94, 64, 512.0));
  EXPECT_EQ(ex.os_threads(), 4u);
  const auto res = ex.run();
  expect_matches_reference("prefix", 4, res);

  // The default (os_threads = 0) is the hardware thread count, clamped to
  // [1, P] — not one thread per processor.
  const pram::Program wide = pram::ProgramBuilder(64, 1).build();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(HostExecutor(wide, HostExecConfig{}).os_threads(),
            std::min<std::size_t>(hw, 64));
}

TEST(HostVirtual, InterleavePoliciesAllProduceValidRuns) {
  // Equal-count slices; the weight-balanced ones the graph benchmark runs,
  // fed the workload's own per-processor weights; and weights that leave a
  // slice empty (all on the last processor: graph::partition_balanced puts
  // every processor in worker 1's slice, and worker 0 finishes at once).
  const auto* spec = pram::find_workload("spmv");
  const pram::Program p = spec->make(64);
  std::vector<std::uint64_t> last_only(p.nthreads(), 0);
  last_only.back() = 1;
  const struct {
    Interleave policy;
    std::vector<std::uint64_t> weights;
  } cases[] = {{Interleave::kRoundRobin, {}},
               {Interleave::kPartition, spec->proc_weights(64)},
               {Interleave::kPartition, last_only}};
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << interleave_name(c.policy) << " "
                                      << &c - cases);
    HostExecConfig cfg = virt_cfg(95, 2);
    cfg.interleave = c.policy;
    cfg.proc_weights = c.weights;
    expect_matches_reference("spmv", 64, HostExecutor(p, cfg).run());
  }
}

TEST(HostVirtual, ProcWeightsMustHaveOneEntryPerProcessor) {
  const pram::Program p = pram::find_workload("spmv")->make(64);
  HostExecConfig cfg = virt_cfg(96, 2);
  cfg.interleave = Interleave::kPartition;
  cfg.proc_weights.assign(p.nthreads() - 1, 1);
  EXPECT_THROW(HostExecutor(p, cfg), std::invalid_argument);
  cfg.proc_weights.assign(p.nthreads() + 1, 1);
  EXPECT_THROW(HostExecutor(p, cfg), std::invalid_argument);
}

TEST(HostVirtual, ZeroStepProgramCompletesImmediately) {
  // A legal Program may have no steps; every processor is already past the
  // final tick, so run() must return completed with all-zero memory — the
  // per-step plan tables are empty and must never be indexed.
  const pram::Program p = pram::ProgramBuilder(8, 4).build();
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
    HostExecutor ex(p, virt_cfg(90, threads));
    const auto res = ex.run();
    EXPECT_TRUE(res.completed) << res.error;
    EXPECT_EQ(res.lost_commits, 0u);
    EXPECT_EQ(res.memory, std::vector<std::uint64_t>(4, 0));
  }
}

TEST(HostVirtual, ParseInterleave) {
  Interleave out;
  EXPECT_TRUE(parse_interleave("rr", out));
  EXPECT_EQ(out, Interleave::kRoundRobin);
  EXPECT_TRUE(parse_interleave("round_robin", out));
  EXPECT_EQ(out, Interleave::kRoundRobin);
  EXPECT_TRUE(parse_interleave("partition", out));
  EXPECT_EQ(out, Interleave::kPartition);
  // The per-visit orders are gone: every slice is walked by one sweep.
  EXPECT_FALSE(parse_interleave("random", out));
  EXPECT_FALSE(parse_interleave("block", out));
  EXPECT_FALSE(parse_interleave("zigzag", out));
}

// --- the lost-commit repair pass --------------------------------------------

// Inject ultra-preemption damage deterministically: after the threads join
// (quiescent), overwrite the LAST writer's generation slot of one output
// variable with a stale-stamp value — exactly what a worker parked across
// >= G phases inside its commit window does, per the write-order probe that
// motivated the audit (host_executor.h).

TEST(HostVirtual, RepairRecommitsStaleSlotFromAgreedBinValue) {
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  const std::uint32_t victim = pram::prefix_sum_var(n, n - 1);
  // prefix_sum_var(n, n-1) is written in the program's final step, so its
  // bin still carries the wanted stamp at quiescence: repairable.
  HostExecConfig cfg = virt_cfg(97, 1);
  HostExecutor* exp = nullptr;
  const std::uint32_t want =
      static_cast<std::uint32_t>(pram::stamp_of_step(
          static_cast<std::uint32_t>(p.nsteps() - 1)));
  cfg.preaudit_fault = [&](HostMemory& mem) {
    // Stale stamp (want - G aliases the same slot mod G), garbage value.
    mem.write(exp->var_slot_addr(victim, want), 424242, want - 4);
  };
  HostExecutor ex(p, cfg);
  exp = &ex;
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.repaired_commits, 1u);
  EXPECT_EQ(res.lost_commits, 0u);
  // The repaired value is the agreed one: full reference equality holds.
  expect_matches_reference("prefix", n, res);
}

TEST(HostVirtual, RepairDisabledLeavesAuditFinding) {
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  const std::uint32_t victim = pram::prefix_sum_var(n, n - 1);
  HostExecConfig cfg = virt_cfg(98, 1);
  cfg.repair = false;
  HostExecutor* exp = nullptr;
  const std::uint32_t want =
      static_cast<std::uint32_t>(pram::stamp_of_step(
          static_cast<std::uint32_t>(p.nsteps() - 1)));
  cfg.preaudit_fault = [&](HostMemory& mem) {
    mem.write(exp->var_slot_addr(victim, want), 424242, want - 4);
  };
  HostExecutor ex(p, cfg);
  exp = &ex;
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.repaired_commits, 0u);
  EXPECT_EQ(res.lost_commits, 1u);  // detected, reported, NOT silently fixed
}

TEST(HostVirtual, RunUntilCleanRetriesLostCommitsOnFreshSeeds) {
  // The retry policy: an attempt left with lost commits (repair off, one
  // slot damaged) is rerun; lost commits are summed over the attempts, and
  // damage on every attempt stops at the cap with the last result untrusted.
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  HostExecConfig cfg = virt_cfg(101, 1);
  cfg.repair = false;
  const std::uint32_t want =
      static_cast<std::uint32_t>(pram::stamp_of_step(
          static_cast<std::uint32_t>(p.nsteps() - 1)));
  // Every attempt has the same layout, so one executor gives the address.
  const std::size_t slot = HostExecutor(p, cfg).var_slot_addr(
      pram::prefix_sum_var(n, n - 1), want);
  int faults = 1;
  cfg.preaudit_fault = [&](HostMemory& mem) {
    if (faults-- > 0) mem.write(slot, 424242, want - 4);
  };
  const HostRun run = run_until_clean(p, cfg);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.lost_commits, 1u);
  expect_matches_reference("prefix", n, run.result);

  faults = 100;
  const HostRun stuck = run_until_clean(p, cfg);
  EXPECT_EQ(stuck.attempts, 4);
  EXPECT_EQ(stuck.lost_commits, 4u);
  EXPECT_EQ(stuck.result.lost_commits, 1u);
}

TEST(HostVirtual, UnrepairableSlotStaysLost) {
  // Damage a variable whose last writer ran early in the program: by
  // quiescence its bin has been recycled by later phases, so the agreed
  // value is gone and repair must honestly report the loss.
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  // Var 0 (the input constant) is written only by step 0 of the baked
  // prologue; by quiescence its writer's bin has been refilled with every
  // later step's stamp, so the agreed value is unrecoverable.  Clearing
  // the slot models the stale-stamp clobber (any stamp != want triggers
  // the audit identically).
  HostExecConfig cfg = virt_cfg(99, 1);
  HostExecutor* exp = nullptr;
  cfg.preaudit_fault = [&](HostMemory& mem) {
    mem.write(exp->var_slot_addr(0, 1), 0, 0);
  };
  HostExecutor ex(p, cfg);
  exp = &ex;
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.repaired_commits, 0u);
  EXPECT_EQ(res.lost_commits, 1u);
}

TEST(HostVirtual, WorkSplitSumsToTotalOnEveryRegistryWorkload) {
  // The per-processor ledger (clock / Compute / Copy work), summed at join,
  // accounts for every step of total_work.  Every clock update costs the
  // same 3 + 3 lg P steps (update read and write, the samples, the
  // estimate), so clock work is a whole number of updates.
  for (const auto& spec : pram::workload_registry()) {
    std::size_t n = std::max<std::size_t>(spec.min_n, 8);
    while (!pram::workload_supports_n(spec, n)) ++n;
    const pram::Program p = spec.make(n);
    const std::uint64_t update =
        3 + std::max<std::uint64_t>(1, 3 * lg(p.nthreads()));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const HostExecResult res =
          HostExecutor(p, virt_cfg(7, threads)).run();
      ASSERT_TRUE(res.completed) << spec.name << " error=" << res.error;
      EXPECT_EQ(res.clock_work + res.compute_work + res.copy_work,
                res.total_work)
          << spec.name << " T=" << threads;
      EXPECT_EQ(res.clock_work % update, 0u) << spec.name << " T=" << threads;
      EXPECT_GT(res.clock_work, 0u) << spec.name;
      EXPECT_GT(res.compute_work, 0u) << spec.name;
      EXPECT_GT(res.copy_work, 0u) << spec.name;
    }
  }
}

// --- P >> T at scale --------------------------------------------------------

TEST(HostVirtual, LargeInstanceOnTwoThreads) {
  // P = 64 logical processors on T = 2 OS threads: the configuration the
  // one-thread-per-processor design could never run sensibly.  spmv's
  // computed-index gathers exercise the run-time-resolved operand path.
  const pram::Program p = pram::find_workload("spmv")->make(64);
  expect_matches_reference("spmv", 64,
                           run_until_clean(p, virt_cfg(100, 2)).result);
}

}  // namespace
}  // namespace apex::host
