// The execution scheme (paper §2, Fig. 1).
//
// An n-thread EREW PRAM program runs on the n-processor asynchronous host
// as a sequence of PHASES, one per PRAM step.  Each phase has two
// subphases, driven by the Phase Clock (subphase = clock tick):
//
//   Compute (even tick 2s):  the n tasks are "evaluate instruction i of
//     step s".  In the NONDETERMINISTIC scheme (the paper's contribution)
//     evaluation happens inside bin-array agreement cycles, so that by the
//     end of the subphase all processors agree on every NewVal[i] even
//     though f may be randomized.  In the DETERMINISTIC baseline scheme
//     (Aumann-Rabin style, §1 related work) each evaluation writes
//     NewVal[i] directly — correct only for deterministic f.
//
//   Copy (odd tick 2s+1):  the n tasks are "copy NewVal[i] into z_i",
//     stamping the write with the step number.  Copying an agreed value is
//     idempotent, which is why the split-execution discipline (introduced
//     in [Kedem-Palem-Spirakis 90]) tolerates every task being executed
//     many times by many processors.
//
// Processors repeatedly pick tasks of the CURRENT subphase uniformly at
// random and interleave clock updates; the clock's [α1·n, α2·n] bracket is
// tuned so each subphase sees Θ(n log n) task executions — enough, w.h.p.,
// to cover all n tasks (and to complete agreement) before the tick advances.
// This is a with-high-probability guarantee, not a barrier: the monitor
// records any subphase that ended incomplete (`incomplete_tasks`), which is
// the scheme's designed failure mode and occurs with probability O(n^-c).
//
// Program variables live in G-generation timestamped slots: the write of
// step s goes to slot (s+1) mod G with stamp s+1, and a reader that
// statically expects writer step w accepts only stamp w+1 (a substitution:
// docs/ARCHITECTURE.md, "Substitutions").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agreement/bin_array.h"
#include "agreement/protocol.h"
#include "clock/phase_clock.h"
#include "pram/interp.h"
#include "pram/program.h"
#include "sim/simulator.h"

namespace apex::exec {

enum class Scheme {
  kNondeterministic,  ///< The paper's scheme: agreement in every Compute.
  kDeterministic,     ///< Baseline: direct NewVal writes (no agreement).
};

const char* scheme_name(Scheme s) noexcept;

/// The scheme's generation count G = 4 and bin sizing β = 8 are constants
/// in executor.cpp.
struct ExecConfig {
  // Updates per tick = α·n.  Must comfortably exceed β so each Compute
  // subphase (~α·n·lg n agreement cycles) fills every β·lg n-cell bin with
  // margin; see TestbedConfig::clock_alpha.
  double clock_alpha = 24.0;
  std::uint64_t seed = 1;
  sim::ScheduleKind schedule = sim::ScheduleKind::kUniformRandom;
  /// Grant engine for the underlying simulator (the differential suite runs
  /// every workload under both).
  sim::GrantEngine engine = sim::GrantEngine::kBatched;
  /// When set, overrides `schedule`: called with (nprocs, schedule-stream
  /// rng) to build the adversary.  The fuzzer drives workloads with
  /// FuzzedSchedule / shrunk ScriptedSchedule repros through this.
  std::function<std::unique_ptr<sim::Schedule>(std::size_t, apex::Rng)>
      schedule_factory;
};

struct ExecResult {
  bool completed = false;        ///< All 2·T subphases elapsed.
  std::uint64_t total_work = 0;  ///< Work units consumed (paper's measure).
  std::vector<pram::Word> memory;///< Final value of each program variable.
  /// Committed (agreed) value per (step, thread), audited from the
  /// generation slots one phase after each Copy subphase ends (stragglers
  /// on estimated ticks have landed by then); feeds
  /// pram::check_execution_consistency.
  std::vector<std::vector<pram::Word>> produced;
  /// Commit audits that found unfinished work (a destination slot still
  /// missing its stamp a full phase after the Copy subphase ended) — the
  /// scheme's designed w.h.p. failure mode.  0 in a clean run.
  std::uint64_t incomplete_tasks = 0;
  /// Compute-task operand reads that found a stale/missing stamp and
  /// retried.  Nonzero is normal under hostile schedules; it measures
  /// wasted attempts, not corruption.
  std::uint64_t stamp_misses = 0;
  /// Work split, summed over processors: clock maintenance (Update-Clock
  /// plus Read-Clock), Compute tasks (agreement cycles, or the baseline's
  /// direct evaluations) and Copy tasks.  In a completed run the three plus
  /// one halting step per processor sum to total_work.
  std::uint64_t clock_work = 0;
  std::uint64_t compute_work = 0;
  std::uint64_t copy_work = 0;
};

class Executor {
 public:
  Executor(const pram::Program& program, Scheme scheme, ExecConfig cfg);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Execute the program to completion (or until max_work).
  ExecResult run(std::uint64_t max_work);

  /// Suggested work budget for a program: generous multiple of the paper's
  /// bound T · n · lg n · lglg n.
  static std::uint64_t default_budget(const pram::Program& p);

  const pram::Program& program() const noexcept { return *prog_; }
  /// The underlying simulator.  The executor attaches no step observer of
  /// its own (its commit audit is the clock's tick listener), so a run whose
  /// chain is empty takes the batched engine's no-observer fast path.
  sim::Simulator& simulator() noexcept { return *sim_; }

  /// The scheme's phase clock (for out-of-band oracles / inspectors).
  clockx::PhaseClock& clock() noexcept;
  /// The agreement bin array; nullptr under the deterministic scheme.
  agreement::BinArray* bins() noexcept;
  /// Protocol-level observer for the agreement cycles (on_cycle /
  /// on_phase_enter).  No-op under the deterministic scheme.  Set before
  /// run(); the caller keeps ownership.
  void set_agreement_observer(agreement::AgreementObserver* obs) noexcept;

 private:
  struct Impl;
  const pram::Program* prog_;
  Scheme scheme_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: build, run, and consistency-check a program under the given
/// scheme.  Returns the ExecResult plus the consistency-oracle verdict
/// (empty string = consistent with some valid synchronous execution).
struct CheckedRun {
  ExecResult result;
  std::string consistency_error;
};
CheckedRun run_checked(const pram::Program& p, Scheme scheme, ExecConfig cfg,
                       std::uint64_t max_work = 0);

}  // namespace apex::exec
