// A self-contained harness that assembles memory, Phase Clock, bin array,
// runtime and n agreement processors for STANDALONE agreement runs (the
// setting of Theorem 1).  Shared by the unit/property tests and by benches
// E1-E7, so every experiment measures exactly the same protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agreement/inspect.h"
#include "agreement/protocol.h"
#include "clock/phase_clock.h"
#include "sim/simulator.h"

namespace apex::agreement {

struct TestbedConfig {
  std::size_t n = 0;                  ///< Processors = bins = values.
  std::size_t beta = 8;               ///< Bin size multiplier.
  // Clock tick threshold α·n.  α must comfortably exceed β: a phase lasts
  // ~α·n·lg n cycles, so each bin receives ~α·lg n random writes against the
  // β·lg n cells it must fill — the paper's "proper choice of constants α1,
  // α2" (§2.1).  α = 3β gives a 4x margin over the ¾-fill the Theorem 1
  // predicate needs.
  double clock_alpha = 24.0;
  std::uint64_t seed = 1;
  sim::ScheduleKind schedule = sim::ScheduleKind::kUniformRandom;
  /// Grant engine for the underlying simulator (the fuzzer's engine-
  /// equivalence corpus runs the same trial through both).
  sim::GrantEngine engine = sim::GrantEngine::kBatched;

  /// When set, overrides `schedule`: called once with (nprocs, schedule-
  /// stream rng) to build the adversary.  The fuzzer uses this to drive the
  /// testbed with FuzzedSchedule / shrunk ScriptedSchedule repros.
  std::function<std::unique_ptr<sim::Schedule>(std::size_t, apex::Rng)>
      schedule_factory;
};

/// Canonical nondeterministic task: each evaluation draws uniformly from
/// [0, k) using the evaluating processor's private stream (support: [0,k)).
TaskFn uniform_task(sim::Word k);
SupportFn uniform_support(sim::Word k);

/// Biased coin: value 1 with probability p, else 0 (support: {0,1}).
TaskFn coin_task(double p);
SupportFn coin_support();

/// Deterministic task: f_i = i (support: {i}).  Lets tests distinguish
/// "agreement converged" from "agreement converged on a valid value".
TaskFn identity_task();
SupportFn identity_support();

class AgreementTestbed {
 public:
  /// `task` must cost at most one atomic step per invocation, the
  /// runtime's default AgreementConfig::compute_steps (the tasks above
  /// each cost one).
  AgreementTestbed(TestbedConfig cfg, TaskFn task, SupportFn support);

  struct Result {
    std::uint64_t work = 0;   ///< Total work when the predicate fired.
    bool satisfied = false;   ///< Theorem 1 (scannable part) reached.
  };

  /// Run until Theorem 1's accessibility+uniqueness+correctness hold for
  /// `phase` (default: phase 1), or until `max_work` is exhausted.
  Result run_until_agreement(std::uint64_t max_work, sim::Word phase = 1);

  /// Run an additional fixed amount of work (no predicate) — used to verify
  /// Stability after agreement is reached.
  void run_more(std::uint64_t work);

  sim::Simulator& simulator() noexcept { return *sim_; }
  BinArray& bins() noexcept { return *bins_; }
  clockx::PhaseClock& clock() noexcept { return *clock_; }
  TheoremChecker& checker() noexcept { return *checker_; }
  ClobberAudit& audit() noexcept { return *audit_; }
  AgreementRuntime& runtime() noexcept { return rt_; }
  const TestbedConfig& config() const noexcept { return cfg_; }

  /// Attach an extra protocol-level observer (e.g. StageAnalysis).
  /// Must be called before run().
  void attach(AgreementObserver* obs) { obs_mux_.add(obs); }

  /// Attach an extra raw step observer: joins the simulator's observer
  /// chain after the built-in ClobberAudit.
  void attach(sim::StepObserver* obs) { sim_->add_observer(obs); }

 private:
  TestbedConfig cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<clockx::PhaseClock> clock_;
  std::unique_ptr<BinArray> bins_;
  std::unique_ptr<TheoremChecker> checker_;
  std::unique_ptr<ClobberAudit> audit_;
  AgreementRuntime rt_;
  AgreementObserverMux obs_mux_;
};

}  // namespace apex::agreement
