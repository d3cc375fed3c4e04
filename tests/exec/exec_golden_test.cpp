// Whole-ExecResult pins across commits.
//
// The engine suites compare the two grant engines with each other and the
// workload tests check invariants; neither notices a change that moves every
// engine the same way.  This test runs a fixed grid of exec runs and compares
// one line per run with tests/exec/goldens/exec_results.txt:
//
//   * every registry workload at n = 8, seeds 1 and 2, nondeterministic
//     scheme, batched engine, clock_alpha 48 (the differential suite's α);
//   * the deterministic kernels once more under the deterministic scheme;
//   * dag once more with a hashing StepObserver and AgreementObserver
//     attached, adding a hash of every StepEvent and CycleRecord.
//
// The engine suites (workload_differential_test, batch_equivalence_test)
// carry these pins over to the single-step engine.
//
// A change that alters the scheme on purpose regenerates the file with
//   APEX_UPDATE_EXEC_GOLDENS=1 build/tests/exec_exec_golden_test
// and says so in its description.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "pram/workloads.h"
#include "tests/golden_lines.h"
#include "util/rng.h"

namespace apex::exec {
namespace {

constexpr std::size_t kN = 8;
constexpr double kClockAlpha = 48.0;
constexpr const char* kGoldenPath =
    APEX_SOURCE_DIR "/tests/exec/goldens/exec_results.txt";

struct Hash {
  std::uint64_t h = 0;
  void add(std::uint64_t w) { h = mix64(h, w); }
};

std::uint64_t hash_words(const std::vector<pram::Word>& words) {
  Hash h;
  h.add(words.size());
  for (const pram::Word w : words) h.add(w);
  return h.h;
}

std::uint64_t hash_produced(const std::vector<std::vector<pram::Word>>& p) {
  Hash h;
  h.add(p.size());
  for (const auto& row : p) h.add(hash_words(row));
  return h.h;
}

/// Folds every step event and every agreement cycle into one hash each.
class HashingObserver final : public sim::StepObserver,
                              public agreement::AgreementObserver {
 public:
  Hash steps;
  Hash cycles;

  void on_step(const sim::StepEvent& ev) override {
    steps.add(ev.time);
    steps.add(ev.proc);
    steps.add(static_cast<std::uint64_t>(ev.op.kind));
    steps.add(ev.op.addr);
    steps.add(ev.op.value);
    steps.add(ev.op.stamp);
    steps.add(ev.before.value);
    steps.add(ev.before.stamp);
    steps.add(ev.after.value);
    steps.add(ev.after.stamp);
  }

  void on_cycle(const agreement::CycleRecord& r) override {
    cycles.add(r.proc);
    cycles.add(r.bin);
    cycles.add(r.phase);
    cycles.add(r.s_time);
    cycles.add(r.d_time);
    cycles.add(r.f_time);
    cycles.add(static_cast<std::uint64_t>(r.wrote_cell));
    cycles.add(r.wrote_value);
    cycles.add(r.evaluated_f);
  }
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::string run_line(const pram::WorkloadSpec& wl, std::uint64_t seed,
                     Scheme scheme, bool observed) {
  const pram::Program p = wl.make(kN);
  ExecConfig cfg;
  cfg.seed = seed;
  cfg.clock_alpha = kClockAlpha;
  Executor ex(p, scheme, cfg);
  HashingObserver obs;
  if (observed) {
    ex.simulator().add_observer(&obs);
    ex.set_agreement_observer(&obs);
  }
  const ExecResult r = ex.run(Executor::default_budget(p));
  std::ostringstream os;
  os << wl.name << " n=" << kN << " seed=" << seed
     << " scheme=" << scheme_name(scheme) << " completed=" << r.completed
     << " total_work=" << r.total_work
     << " incomplete_tasks=" << r.incomplete_tasks
     << " stamp_misses=" << r.stamp_misses
     << " memory=" << hex(hash_words(r.memory))
     << " produced=" << hex(hash_produced(r.produced));
  if (observed)
    os << " steps=" << hex(obs.steps.h) << " cycles=" << hex(obs.cycles.h);
  return os.str();
}

std::vector<std::string> actual_lines() {
  std::vector<std::string> lines;
  for (const auto& wl : pram::workload_registry())
    for (const std::uint64_t seed : {1, 2})
      lines.push_back(run_line(wl, seed, Scheme::kNondeterministic, false));
  for (const auto& wl : pram::workload_registry())
    if (wl.deterministic)
      for (const std::uint64_t seed : {1, 2})
        lines.push_back(run_line(wl, seed, Scheme::kDeterministic, false));
  lines.push_back(run_line(*pram::find_workload("dag"), 1,
                           Scheme::kNondeterministic, true));
  return lines;
}

TEST(ExecGolden, ResultsMatchTheCommittedLines) {
  apex::test_support::expect_golden_lines(actual_lines(), kGoldenPath,
                                          "APEX_UPDATE_EXEC_GOLDENS");
}

}  // namespace
}  // namespace apex::exec
