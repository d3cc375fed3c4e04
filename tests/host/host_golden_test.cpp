// Whole-HostExecResult pins across commits.
//
// A T = 1 host run is a fixed sequential interleaving: every processor's
// draws and shared-memory operations follow from the seed alone, so its
// result is a function of the code.  The host suites check that a run
// reproduces itself and matches the reference; neither notices a change
// that moves every run the same way.  This test runs a fixed grid of T = 1
// runs and compares one line per run with tests/host/goldens/host_results.txt:
//
//   * every registry workload at n = max(min_n, 8) (bumped to the next
//     supported n), clock_alpha 48, seeds 1 and 2;
//   * spmv and bfs at n = 64 with the graph operating point the benchmark
//     runs at n = 1e4: alpha 32, G = 6, partition slices from the
//     workload's proc_weights.
//
// A hot-path change that reorders any processor's draws or operations
// changes the work split, the miss count or the memory hash here.  A
// change that alters the scheme on purpose regenerates the file with
//   APEX_UPDATE_HOST_GOLDENS=1 build/tests/host_host_golden_test
// and says so in its description.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "host/host_executor.h"
#include "pram/workloads.h"
#include "tests/golden_lines.h"
#include "util/rng.h"

namespace apex::host {
namespace {

constexpr const char* kGoldenPath =
    APEX_SOURCE_DIR "/tests/host/goldens/host_results.txt";

std::uint64_t hash_words(const std::vector<pram::Word>& words) {
  std::uint64_t h = mix64(0, words.size());
  for (const pram::Word w : words) h = mix64(h, w);
  return h;
}

std::string run_line(const pram::WorkloadSpec& spec, std::size_t n,
                     std::uint64_t seed, const HostExecConfig& base) {
  HostExecConfig cfg = base;
  cfg.seed = seed;
  cfg.os_threads = 1;
  cfg.timeout_seconds = 600.0;
  const HostExecResult r = HostExecutor(spec.make(n), cfg).run();
  std::ostringstream os;
  os << spec.name << " n=" << n << " seed=" << seed
     << " alpha=" << cfg.clock_alpha << " G=" << cfg.generations
     << " interleave=" << interleave_name(cfg.interleave)
     << " completed=" << r.completed << " total_work=" << r.total_work
     << " clock=" << r.clock_work << " compute=" << r.compute_work
     << " copy=" << r.copy_work << " stamp_misses=" << r.stamp_misses
     << " lost_commits=" << r.lost_commits
     << " repaired_commits=" << r.repaired_commits << " memory=" << std::hex
     << hash_words(r.memory);
  return os.str();
}

std::vector<std::string> actual_lines() {
  std::vector<std::string> lines;
  HostExecConfig small;
  small.clock_alpha = 48.0;
  for (const auto& spec : pram::workload_registry()) {
    std::size_t n = std::max<std::size_t>(spec.min_n, 8);
    while (!pram::workload_supports_n(spec, n)) ++n;
    for (const std::uint64_t seed : {1, 2})
      lines.push_back(run_line(spec, n, seed, small));
  }
  for (const char* name : {"spmv", "bfs"}) {
    const pram::WorkloadSpec& spec = *pram::find_workload(name);
    HostExecConfig graph;
    graph.clock_alpha = 32.0;
    graph.generations = 6;
    graph.interleave = Interleave::kPartition;
    graph.proc_weights = spec.proc_weights(64);
    lines.push_back(run_line(spec, 64, 1, graph));
  }
  return lines;
}

TEST(HostGolden, SequentialResultsMatchTheCommittedLines) {
  apex::test_support::expect_golden_lines(actual_lines(), kGoldenPath,
                                          "APEX_UPDATE_HOST_GOLDENS");
}

}  // namespace
}  // namespace apex::host
