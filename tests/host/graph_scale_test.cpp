// Graph-scale acceptance: the CSR-backed kernels (bfs, spmv) run
// audit-clean on the virtualized host executor with partition-aware
// placement and finish bit-for-bit equal to the synchronous reference
// interpreter.  Tier-1 runs n = 1e4; the soak ctest entry re-runs the same
// binary at n = 1e5 via APEX_GRAPH_N.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "host/host_executor.h"
#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex {
namespace {

using pram::Word;

std::size_t graph_n() {
  if (const char* s = std::getenv("APEX_GRAPH_N"))
    return static_cast<std::size_t>(std::stoull(s));
  return 10000;
}

class GraphScale : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphScale, AuditCleanAndBitForBitOnTheVirtualizedHost) {
  const auto* wl = pram::find_workload(GetParam());
  ASSERT_NE(wl, nullptr);
  const std::size_t n = graph_n();
  ASSERT_TRUE(pram::workload_supports_n(*wl, n));
  ASSERT_NE(wl->proc_weights, nullptr) << "graph kernels report placement";
  const pram::Program p = wl->make(n);
  EXPECT_EQ(p.nthreads(), std::min<std::size_t>(n, 4096));
  const auto ref = pram::Interpreter(p).run_deterministic({});
  host::HostExecConfig cfg;
  cfg.seed = 2024;
  cfg.os_threads = 2;
  cfg.clock_alpha = 32.0;
  cfg.generations = 6;
  cfg.timeout_seconds = 600.0;
  cfg.interleave = host::Interleave::kPartition;
  cfg.proc_weights = wl->proc_weights(n);
  const auto res = host::run_until_clean(p, cfg).result;
  ASSERT_TRUE(res.completed) << wl->name << " error=" << res.error;
  ASSERT_EQ(res.lost_commits, 0u)
      << wl->name << ": repeated preemption damage across seeds";
  EXPECT_EQ(wl->check(n, res.memory), "") << wl->name;
  ASSERT_EQ(res.memory.size(), ref.memory.size());
  for (std::size_t v = 0; v < ref.memory.size(); ++v)
    ASSERT_EQ(res.memory[v], ref.memory[v]) << wl->name << " v" << v;
}

INSTANTIATE_TEST_SUITE_P(CsrKernels, GraphScale,
                         ::testing::Values("bfs", "spmv"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace apex
