// Cross-executor differential harness.
//
// Every REGISTERED workload (pram::workload_registry()) runs under
//   * the simulator executor (exec::Executor, nondeterministic scheme),
//     under BOTH grant engines,
//   * the deterministic-baseline scheme (deterministic kernels only — that
//     scheme is unsound for nondeterministic programs, which is E13),
//   * the synchronous reference interpreter, and
//   * HostExecutor on real std::threads,
// and the final memories must agree:
//   * deterministic kernels: bit-for-bit equal to the reference across every
//     executor, both engines, both schemes;
//   * nondeterministic kernels: each executor's final memory satisfies the
//     workload's self-declared invariants (spec.check), and the simulator
//     executor's produced trace is consistent with SOME valid synchronous
//     execution.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "exec/executor.h"
#include "host/host_executor.h"
#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex {
namespace {

using pram::Word;

constexpr std::size_t kN = 8;  // satisfies every registered constraint

// Subphase incompleteness is the scheme's designed w.h.p. failure mode and
// its probability falls exponentially in clock_alpha; the long irregular
// programs (bfs: ~230 subphases) need more per-subphase work than the
// default 24 to make a fixed-seed tier-1 run deterministic-clean.  The
// harness asserts the scheme's own audit (incomplete_tasks == 0), so a
// regression here fails loudly instead of corrupting the comparison.
constexpr double kClockAlpha = 48.0;

// Every ExecResult field, for whole-result comparisons.
auto fields(const exec::ExecResult& r) {
  return std::tie(r.completed, r.total_work, r.memory, r.produced,
                  r.incomplete_tasks, r.stamp_misses, r.clock_work,
                  r.compute_work, r.copy_work);
}

// A completed run's work split covers every step: each processor's steps
// fall in clock, Compute and Copy blocks, plus its one halting step.
void expect_split_covers_work(const exec::ExecResult& r, std::size_t procs,
                              const std::string& what) {
  EXPECT_EQ(r.clock_work + r.compute_work + r.copy_work + procs, r.total_work)
      << what << ": clock=" << r.clock_work << " compute=" << r.compute_work
      << " copy=" << r.copy_work;
}

struct NoOpObserver final : sim::StepObserver {
  void on_step(const sim::StepEvent&) override {}
};

// One exec run, nondeterministic scheme; `obs`, when given, is attached.
exec::ExecResult run_exec(const pram::Program& p, double clock_alpha,
                          sim::GrantEngine engine, sim::StepObserver* obs) {
  exec::ExecConfig cfg;
  cfg.seed = 42;
  cfg.engine = engine;
  cfg.clock_alpha = clock_alpha;
  exec::Executor ex(p, exec::Scheme::kNondeterministic, cfg);
  if (obs != nullptr) ex.simulator().add_observer(obs);
  return ex.run(exec::Executor::default_budget(p));
}

class Differential : public ::testing::TestWithParam<const char*> {
 protected:
  const pram::WorkloadSpec& spec() const {
    const auto* s = pram::find_workload(GetParam());
    EXPECT_NE(s, nullptr);
    return *s;
  }
};

TEST_P(Differential, SimulatorExecutorBothEnginesAgreeWithReference) {
  const auto& wl = spec();
  const pram::Program p = wl.make(kN);
  const auto ref = pram::Interpreter(p).run({}, apex::Rng(7));

  const exec::ExecResult res =
      run_exec(p, kClockAlpha, sim::GrantEngine::kBatched, nullptr);
  ASSERT_TRUE(res.completed) << wl.name;
  ASSERT_EQ(res.incomplete_tasks, 0u) << wl.name;
  expect_split_covers_work(res, p.nthreads(), wl.name);
  const exec::ExecResult single =
      run_exec(p, kClockAlpha, sim::GrantEngine::kSingleStep, nullptr);
  ASSERT_TRUE(single.completed) << wl.name;
  expect_split_covers_work(single, p.nthreads(),
                           std::string(wl.name) + " single-step");
  EXPECT_EQ(pram::check_execution_consistency(
                p, std::vector<Word>(p.nvars(), 0), res.produced, res.memory),
            "")
      << wl.name;
  EXPECT_EQ(wl.check(kN, res.memory), "") << wl.name;
  if (wl.deterministic) {
    // Bit-for-bit against the synchronous reference, full memory image.
    ASSERT_EQ(res.memory.size(), ref.memory.size()) << wl.name;
    for (std::size_t v = 0; v < ref.memory.size(); ++v)
      ASSERT_EQ(res.memory[v], ref.memory[v]) << wl.name << " v" << v;
  }
  // Same seed, same schedule: the batched engine's no-observer fast path
  // (above), its instrumented path (any attached observer selects it) and
  // the single-step engine must produce the identical execution, whole
  // ExecResult, even for nondeterministic kernels.  At clock_alpha 3
  // subphases routinely end incomplete, and the paths must still agree.
  NoOpObserver noop;
  for (const double alpha : {kClockAlpha, 3.0}) {
    const exec::ExecResult fast =
        alpha == kClockAlpha
            ? res
            : run_exec(p, alpha, sim::GrantEngine::kBatched, nullptr);
    EXPECT_EQ(fields(run_exec(p, alpha, sim::GrantEngine::kBatched, &noop)),
              fields(fast))
        << wl.name << " alpha=" << alpha << ": instrumented path diverged";
    EXPECT_EQ(fields(alpha == kClockAlpha
                         ? single
                         : run_exec(p, alpha, sim::GrantEngine::kSingleStep,
                                    nullptr)),
              fields(fast))
        << wl.name << " alpha=" << alpha << ": single-step engine diverged";
  }
}

TEST_P(Differential, DeterministicBaselineSchemeAgreesOnDetKernels) {
  const auto& wl = spec();
  if (!wl.deterministic) GTEST_SKIP() << "det scheme is unsound here (E13)";
  const pram::Program p = wl.make(kN);
  const auto ref = pram::Interpreter(p).run_deterministic({});
  exec::ExecConfig cfg;
  cfg.seed = 43;
  cfg.clock_alpha = kClockAlpha;
  const auto chk = exec::run_checked(p, exec::Scheme::kDeterministic, cfg);
  ASSERT_TRUE(chk.result.completed) << wl.name;
  ASSERT_EQ(chk.result.incomplete_tasks, 0u) << wl.name;
  expect_split_covers_work(chk.result, p.nthreads(), wl.name);
  EXPECT_EQ(chk.consistency_error, "") << wl.name;
  for (std::size_t v = 0; v < ref.memory.size(); ++v)
    ASSERT_EQ(chk.result.memory[v], ref.memory[v]) << wl.name << " v" << v;
}

TEST_P(Differential, HostExecutorAgreesUnderRealPreemption) {
  const auto& wl = spec();
  const pram::Program p = wl.make(kN);
  // The OS can (rarely, on oversubscribed machines) park a worker inside
  // its commit window for whole phases, which the host executor detects
  // and reports via lost_commits (see host_executor.h).  A damaged run is
  // re-run on a fresh seed; an AUDIT-CLEAN run must be exact — that is
  // the soundness claim this test pins.
  host::HostExecConfig cfg;
  cfg.seed = 44;
  cfg.timeout_seconds = 120.0;
  const auto res = host::run_until_clean(p, cfg).result;
  ASSERT_TRUE(res.completed) << wl.name << " error=" << res.error
                             << " work=" << res.total_work;
  ASSERT_EQ(res.lost_commits, 0u)
      << wl.name << ": repeated preemption damage across seeds";
  EXPECT_EQ(wl.check(kN, res.memory), "") << wl.name;
  if (wl.deterministic) {
    const auto ref = pram::Interpreter(p).run_deterministic({});
    for (std::size_t v = 0; v < ref.memory.size(); ++v)
      ASSERT_EQ(res.memory[v], ref.memory[v]) << wl.name << " v" << v;
  }
}

TEST_P(Differential, ReferenceInterpreterSatisfiesTheVerdictItself) {
  const auto& wl = spec();
  const pram::Program p = wl.make(kN);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto r = pram::Interpreter(p).run({}, apex::Rng(seed));
    EXPECT_EQ(wl.check(kN, r.memory), "") << wl.name << " seed=" << seed;
  }
}

// The differential grid covers every registered workload by name, so a new
// registry entry is automatically pulled into the harness.
INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Differential,
    ::testing::Values("luby", "leader", "ring", "coins", "probe", "prefix",
                      "sort", "reduction", "bfs", "merge", "spmv", "dag"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// --- P >> T: the large registry instances on the virtualized host ----------
//
// The registry's scale_ns instances (n = 64/128) exceed any runner's core
// count; the virtualized executor drives them on T = 2 OS threads.  The
// acceptance bar is the same soundness claim as the TEST_P host case: an
// AUDIT-CLEAN run of a deterministic kernel is bit-for-bit the synchronous
// reference, and a nondeterministic kernel satisfies its invariants.

TEST(DifferentialLargeN, VirtualizedHostBitForBitAtP64) {
  for (const char* name : {"bfs", "spmv"}) {
    const auto* wl = pram::find_workload(name);
    ASSERT_NE(wl, nullptr);
    ASSERT_FALSE(wl->scale_ns.empty()) << name;
    const std::size_t n = wl->scale_ns.front();  // 64
    const pram::Program p = wl->make(n);
    host::HostExecConfig cfg;
    cfg.seed = 144;
    cfg.os_threads = 2;
    cfg.clock_alpha = 48.0;
    cfg.timeout_seconds = 120.0;
    const auto res = host::run_until_clean(p, cfg).result;
    ASSERT_TRUE(res.completed) << name << " error=" << res.error;
    ASSERT_EQ(res.lost_commits, 0u) << name;
    EXPECT_EQ(wl->check(n, res.memory), "") << name;
    const auto ref = pram::Interpreter(p).run_deterministic({});
    for (std::size_t v = 0; v < ref.memory.size(); ++v)
      ASSERT_EQ(res.memory[v], ref.memory[v]) << name << " v" << v;
  }
}

TEST(DifferentialLargeN, DagInvariantsHoldAtP64) {
  const auto* wl = pram::find_workload("dag");
  ASSERT_NE(wl, nullptr);
  const std::size_t n = 64;
  const pram::Program p = wl->make(n);
  host::HostExecConfig cfg;
  cfg.seed = 155;
  cfg.os_threads = 2;
  cfg.clock_alpha = 48.0;
  cfg.timeout_seconds = 120.0;
  const auto res = host::run_until_clean(p, cfg).result;
  ASSERT_TRUE(res.completed) << res.error;
  ASSERT_EQ(res.lost_commits, 0u);
  EXPECT_EQ(wl->check(n, res.memory), "");
}

TEST(DifferentialLargeN, ScaleInstancesAreRegistryLegal) {
  // Every registered scale_ns value must satisfy the entry's own n
  // constraints — a drifting builder precondition fails here, not deep in
  // a bench grid.
  for (const auto& spec : pram::workload_registry())
    for (const std::size_t n : spec.scale_ns)
      EXPECT_TRUE(pram::workload_supports_n(spec, n))
          << spec.name << " scale n=" << n;
}

TEST(DifferentialCoverage, EveryRegistryEntryIsInTheGrid) {
  // Guards the INSTANTIATE list above against registry drift.
  const char* listed[] = {"luby", "leader", "ring",  "coins", "probe",
                          "prefix", "sort",  "reduction", "bfs",  "merge",
                          "spmv", "dag"};
  ASSERT_EQ(std::size(listed), pram::workload_registry().size());
  for (const auto& spec : pram::workload_registry()) {
    bool found = false;
    for (const char* name : listed) found |= spec.name == std::string(name);
    EXPECT_TRUE(found) << spec.name << " missing from the differential grid";
  }
}

}  // namespace
}  // namespace apex
