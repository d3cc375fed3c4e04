// Round-trip pinning:
//   1. compile(emit_pram(p)) == p bit-for-bit for every registry workload
//      (the emitter/compiler pair loses nothing).
//   2. The hand-written kernels/tutorial.pram compiles, and its committed
//      IR golden is exactly Program::to_string() of the result — what
//      `apexcli compile` prints and CI diffs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "lang/compile.h"
#include "lang/emit.h"
#include "pram/workloads.h"

namespace apex::lang {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

testing::AssertionResult programs_equal(const pram::Program& a,
                                        const pram::Program& b) {
  if (a.nthreads() != b.nthreads())
    return testing::AssertionFailure()
           << "nthreads " << a.nthreads() << " vs " << b.nthreads();
  if (a.nvars() != b.nvars())
    return testing::AssertionFailure()
           << "nvars " << a.nvars() << " vs " << b.nvars();
  if (a.nsteps() != b.nsteps())
    return testing::AssertionFailure()
           << "nsteps " << a.nsteps() << " vs " << b.nsteps();
  for (std::size_t s = 0; s < a.nsteps(); ++s)
    for (std::size_t t = 0; t < a.nthreads(); ++t)
      if (!(a.step(s).instrs[t] == b.step(s).instrs[t]))
        return testing::AssertionFailure()
               << "step " << s << " thread " << t << ": "
               << a.step(s).instrs[t].to_string() << " vs "
               << b.step(s).instrs[t].to_string();
  return testing::AssertionSuccess();
}

TEST(RoundTrip, EveryRegistryWorkloadAtN8) {
  for (const auto& spec : pram::workload_registry()) {
    if (!pram::workload_supports_n(spec, 8)) continue;
    const pram::Program p = spec.make(8);
    const std::string src_text = emit_pram(p, std::string(spec.name) + "_n8");
    const CompileResult r =
        compile_source(SourceFile{spec.name, src_text});
    ASSERT_TRUE(r.ok()) << spec.name << ": "
                        << (r.diagnostics.empty()
                                ? "?"
                                : r.diagnostics[0].message);
    EXPECT_TRUE(programs_equal(*r.program, p)) << "workload " << spec.name;
  }
}

TEST(RoundTrip, EmitterCoversLargerInstances) {
  for (const char* name : {"prefix", "bfs", "spmv"}) {
    const pram::WorkloadSpec* spec = pram::find_workload(name);
    ASSERT_NE(spec, nullptr);
    const pram::Program p = spec->make(16);
    const CompileResult r =
        compile_source(SourceFile{name, emit_pram(p, name)});
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_TRUE(programs_equal(*r.program, p)) << name << " n=16";
  }
}

TEST(Shipped, TutorialCompilesAndGoldenIsFresh) {
  const std::string root = std::string(APEX_SOURCE_DIR) + "/kernels/";
  SourceFile src{root + "tutorial.pram", slurp(root + "tutorial.pram")};
  const CompileResult r = compile_source(src);
  ASSERT_TRUE(r.ok()) << (r.diagnostics.empty() ? "?"
                                                : r.diagnostics[0].message);
  EXPECT_FALSE(r.program->is_nondeterministic());
  EXPECT_EQ(r.program->to_string(), slurp(root + "goldens/tutorial.ir.txt"));
}

}  // namespace
}  // namespace apex::lang
