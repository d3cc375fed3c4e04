// Heap allocations on the simulator's exec path.
//
// A simulated processor runs in one coroutine frame: the execution
// scheme's driver writes Update-Clock, Read-Clock, the agreement cycle and
// the Copy task inline, and only f (entered by the cycles that find cell 0
// empty) allocates a frame.  This binary replaces the global operator new,
// counts the calls made inside Executor::run and allows at most one per 200
// work units.  A driver that awaits those sub-procedures as nested SubTasks
// makes one per ~4.5.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "exec/executor.h"
#include "pram/workloads.h"
#include "tests/address_cap.h"

namespace {
std::uint64_t g_allocations = 0;
bool g_counting = false;
}  // namespace

#if !APEX_TEST_SANITIZED
void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace apex::exec {
namespace {

constexpr std::uint64_t kWorkPerAllocation = 200;

TEST(ExecAllocations, AtMostOnePerTwoHundredWorkUnits) {
  if (test_support::kSanitized)
    GTEST_SKIP() << "sanitizers own the global operator new";
  for (const char* name : {"dag", "bfs", "spmv"}) {
    const pram::Program p = pram::find_workload(name)->make(16);
    Executor ex(p, Scheme::kNondeterministic, ExecConfig{});
    const std::uint64_t budget = Executor::default_budget(p);
    g_allocations = 0;
    g_counting = true;
    const ExecResult r = ex.run(budget);
    g_counting = false;
    ASSERT_TRUE(r.completed) << name;
    EXPECT_LE(g_allocations * kWorkPerAllocation, r.total_work)
        << name << " n=16: " << g_allocations << " allocations for "
        << r.total_work << " work units";
  }
}

}  // namespace
}  // namespace apex::exec
