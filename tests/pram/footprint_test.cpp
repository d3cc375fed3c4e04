// Heap bytes a pram::Program keeps.
//
// A Program stores each per-instruction fact once: its instruction rows
// and the sparse writer index (each variable's write steps).  Operand
// provenance for every instruction comes from a walk that stores nothing
// (Program::walk_writers), so there are no per-slot writer rows.  This
// binary replaces the global operator new and delete to count live heap
// bytes, builds spmv and bfs at n = 128, and measures what the Program
// frees when it is destroyed.  The bound is the rows, the index, and a
// slack of one Step per step for the step vector's spare capacity (it
// grows by doubling while a builder appends steps).  A dense row of
// 12-byte OperandWriters per instruction slot adds 12 * P bytes per step,
// far past that slack.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>

#include "pram/program.h"
#include "pram/workloads.h"
#include "tests/address_cap.h"

namespace {
std::size_t g_live = 0;  ///< Bytes allocated and not yet freed.
/// Each block carries its size in front of it, one max_align_t wide so
/// the block keeps operator new's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

#if !APEX_TEST_SANITIZED
void* operator new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  g_live += size;
  return static_cast<char*>(raw) + kHeader;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live -= *reinterpret_cast<std::size_t*>(raw);
  std::free(raw);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#endif

namespace apex::pram {
namespace {

static_assert(sizeof(Instr) == 32);

TEST(ProgramFootprint, RowsAndTheWriterIndexOnly) {
  if (test_support::kSanitized)
    GTEST_SKIP() << "sanitizers own the global operator new";
  for (const char* name : {"spmv", "bfs"}) {
    std::optional<Program> p(find_workload(name)->make(128));
    const std::size_t nsteps = p->nsteps();
    const std::size_t procs = p->nthreads();
    std::size_t writes = 0;
    for (std::size_t s = 0; s < nsteps; ++s)
      for (const Instr& ins : p->step(s).instrs) writes += writes_dest(ins.op);
    const std::size_t rows = nsteps * (sizeof(Step) + sizeof(Instr) * procs);
    const std::size_t index = 4 * (p->nvars() + 1) + 4 * writes;
    const std::size_t slack = nsteps * sizeof(Step);

    const std::size_t live = g_live;
    p.reset();
    const std::size_t kept = live - g_live;
    // The instructions and the index are in there: the counter works.
    EXPECT_GE(kept, nsteps * sizeof(Instr) * procs + index) << name;
    EXPECT_LE(kept, rows + index + slack)
        << name << " n=128: " << kept << " bytes for " << nsteps
        << " steps of " << procs << " instructions; rows " << rows
        << ", index " << index << ", slack " << slack;
  }
}

}  // namespace
}  // namespace apex::pram
