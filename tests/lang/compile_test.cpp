#include "lang/compile.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "pram/interp.h"
#include "tests/address_cap.h"

namespace apex::lang {
namespace {

CompileResult compile_text(const std::string& text) {
  return compile_source(SourceFile{"<test>", text});
}

std::string first_message(const CompileResult& r) {
  return r.diagnostics.empty() ? std::string() : r.diagnostics[0].message;
}

TEST(Compile, MinimalProgram) {
  const auto r = compile_text("pram p\nprocs 2\nvars 2\n"
                              "step {\n  0: const v0, 7\n  1: copy v1, v1\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  const pram::Program& p = *r.program;
  EXPECT_EQ(p.nthreads(), 2u);
  EXPECT_EQ(p.nvars(), 2u);
  EXPECT_EQ(p.nsteps(), 1u);
  EXPECT_EQ(p.step(0).instrs[0], pram::Instr::constant(0, 7));
  EXPECT_EQ(p.step(0).instrs[1], pram::Instr::copy(1, 1));
}

TEST(Compile, NamedVarsAllocateAfterRawPool) {
  // `vars 3` reserves v0..v2; declarations allocate sequentially after.
  const auto r = compile_text(
      "pram p\nprocs 1\nvars 3\nvar a\nvar b[2]\n"
      "step {\n  0: add a, b[0], b[1]\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  EXPECT_EQ(r.program->nvars(), 6u);
  EXPECT_EQ(r.program->step(0).instrs[0], pram::Instr::add(3, 4, 5));
}

TEST(Compile, GatherDynSegment) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\nsegment s = v4 : 4\n"
      "step {\n"
      "  1: gather_dyn v3, v5, v6, v7, s\n"
      "}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  EXPECT_EQ(r.program->step(0).instrs[1],
            pram::Instr::gather_dyn(3, 5, 6, 7, 4, 4));
}

TEST(Compile, IdleLanesBecomeNops) {
  const auto r = compile_text("pram p\nprocs 3\nvars 1\n"
                              "step {\n  1: const v0, 1\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  EXPECT_EQ(r.program->step(0).instrs[0].op, pram::OpCode::kNop);
  EXPECT_EQ(r.program->step(0).instrs[2].op, pram::OpCode::kNop);
}

TEST(Compile, NondeterministicOpsAreFlagged) {
  const auto det = compile_text("pram p\nprocs 1\nvars 1\n"
                                "step {\n  0: const v0, 1\n}\n");
  const auto nondet = compile_text("pram p\nprocs 1\nvars 1\n"
                                   "step {\n  0: rand_below v0, 10\n}\n");
  ASSERT_TRUE(det.ok() && nondet.ok());
  EXPECT_FALSE(det.program->is_nondeterministic());
  EXPECT_TRUE(nondet.program->is_nondeterministic());
}

TEST(Compile, CompiledProgramRunsInInterpreter) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 4\n"
      "step {\n  0: const v0, 20\n  1: const v1, 22\n}\n"
      "step {\n  0: add v2, v0, v1\n}\n"
      "step {\n  1: sub v3, v1, v0\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  const auto res = pram::Interpreter(*r.program)
                       .run_deterministic(std::vector<pram::Word>(4, 0));
  EXPECT_EQ(res.memory[2], 42u);
  EXPECT_EQ(res.memory[3], 2u);
}

TEST(Compile, TutorialComputesWhatItsCommentsSay) {
  SourceFile src;
  const auto r = compile_file(
      std::string(APEX_SOURCE_DIR) + "/kernels/tutorial.pram", src);
  ASSERT_TRUE(r.ok()) << first_message(r);
  const auto res = pram::Interpreter(*r.program).run_deterministic({});
  // x[0..3] are v0..v3.
  EXPECT_EQ(res.memory[0], 12u);   // table lookup: table[2]
  EXPECT_EQ(res.memory[1], 103u);  // row walk: row[1 + 2]
  EXPECT_EQ(res.memory[2], 115u);  // x[0] + x[1]
  EXPECT_EQ(res.memory[3], 11u);   // idx ? table[1] : row[2]
}

TEST(Compile, DeclarationsMayFollowTheirUses) {
  // The same kernel twice: every procs/vars/var/segment item after the
  // steps that use it, then header-first.  Both spell one Program.
  const std::string steps =
      "step {\n  0: const v0, 3\n  1: const xs[1], 4\n}\n"
      "step {\n  0: gather_dyn acc, v0, xs[0], v1, win\n"
      "  1: add v2, xs[1], v2\n}\n";
  const std::string decls =
      "procs 2\nvars 3\nvar acc\nvar xs[4]\nsegment win = xs[1] : 3\n";
  const auto late = compile_text("pram p\n" + steps + decls);
  const auto early = compile_text("pram p\n" + decls + steps);
  ASSERT_TRUE(late.ok()) << first_message(late);
  ASSERT_TRUE(early.ok()) << first_message(early);
  const pram::Program& a = *late.program;
  const pram::Program& b = *early.program;
  ASSERT_EQ(a.nthreads(), b.nthreads());
  ASSERT_EQ(a.nvars(), b.nvars());
  ASSERT_EQ(a.nsteps(), b.nsteps());
  for (std::size_t s = 0; s < a.nsteps(); ++s)
    for (std::size_t t = 0; t < a.nthreads(); ++t)
      EXPECT_EQ(a.step(s).instrs[t], b.step(s).instrs[t])
          << "step " << s << " thread " << t;
  EXPECT_EQ(a.nvars(), 8u);
  EXPECT_EQ(a.step(1).instrs[0], pram::Instr::gather_dyn(3, 0, 4, 1, 5, 3));
}

// ---- semantic diagnostics (messages; caret goldens in diagnostics_test) ----

TEST(Compile, UndefinedVariable) {
  const auto r = compile_text("pram p\nprocs 1\nvars 1\n"
                              "step {\n  0: copy v0, total\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("undefined variable 'total'"),
            std::string::npos);
}

TEST(Compile, ErewWriteWriteConflict) {
  const auto r = compile_text("pram p\nprocs 2\nvars 2\n"
                              "step {\n  0: const v0, 1\n  1: const v0, 2\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find(
                "EREW violation: variable v0 written by more than one thread"),
            std::string::npos);
}

TEST(Compile, ErewReadReadConflict) {
  const auto r = compile_text("pram p\nprocs 2\nvars 3\n"
                              "step {\n  0: copy v1, v0\n  1: copy v2, v0\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find(
                "EREW violation: variable v0 read by more than one thread"),
            std::string::npos);
}

TEST(Compile, SameStepSegmentWrite) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\nsegment s = v4 : 4\n"
      "step {\n"
      "  0: gather_dyn v0, v1, v2, v3, s\n"
      "  1: const v5, 9\n"
      "}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(
      first_message(r).find("variable v5 written inside gather_dyn segment"),
      std::string::npos);
}

TEST(Compile, SegmentWriteInOtherStepIsFine) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\nsegment s = v4 : 4\n"
      "step {\n  1: const v5, 9\n}\n"
      "step {\n  0: gather_dyn v0, v1, v2, v3, s\n}\n");
  EXPECT_TRUE(r.ok()) << first_message(r);
}

TEST(Compile, RawVariableIdOverflow) {
  const auto r = compile_text("pram p\nprocs 1\nvars 1\n"
                              "step {\n  0: copy v0, v4294967296\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("overflows 32 bits"), std::string::npos);
}

TEST(Compile, LaneOutOfRangeAndDuplicate) {
  const auto out = compile_text("pram p\nprocs 2\nvars 1\n"
                                "step {\n  2: const v0, 1\n}\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(first_message(out).find("lane 2 out of range (procs=2)"),
            std::string::npos);
  const auto dup = compile_text("pram p\nprocs 2\nvars 2\n"
                                "step {\n  0: const v0, 1\n  0: const v1, 2\n}\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(first_message(dup).find("duplicate lane 0"), std::string::npos);
}

TEST(Compile, MissingProcsAndZeroVars) {
  const auto np = compile_text("pram p\nvars 1\nstep {\n  0: nop\n}\n");
  ASSERT_FALSE(np.ok());
  const auto nv = compile_text("pram p\nprocs 1\nstep {\n  0: nop\n}\n");
  ASSERT_FALSE(nv.ok());
}

TEST(Compile, MultipleDiagnosticsAreBatched) {
  // Semantic errors don't stop at the first: both bad refs are reported.
  const auto r = compile_text("pram p\nprocs 1\nvars 1\n"
                              "step {\n  0: add v0, alpha, beta\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diagnostics.size(), 2u);
}

// One compile of `text` in the capped child: 0 iff it fails with exactly
// one diagnostic, `message` at line:col.
int expect_one_diagnostic(const std::string& text, const std::string& message,
                          std::size_t line, std::size_t col) {
  const auto r = compile_text(text);
  if (r.ok() || r.diagnostics.size() != 1) return 1;
  const Diagnostic& d = r.diagnostics[0];
  return d.message == message && d.loc.line == line && d.loc.col == col ? 0
                                                                        : 2;
}

TEST(Compile, LayoutTooLargeToAllocateIsADiagnostic) {
  // Legal layouts this machine cannot hold end in a located diagnostic,
  // not an uncaught std::bad_alloc.  The address cap makes the allocations
  // fail at once instead of paging.
  if (test_support::kSanitized)
    GTEST_SKIP() << "sanitizer shadow memory needs the capped address space";
  const int status = test_support::exit_status_under_address_cap([] {
    const int vars = expect_one_diagnostic(
        "pram big\nprocs 1\nvar big[4294967296]\n"
        "step {\n  0: const big[0], 1\n}\n",
        "cannot allocate the layout: 4294967296 variables", 1, 6);
    const int procs = expect_one_diagnostic(
        "pram wide\nprocs 4294967297\nvars 1\n"
        "step {\n  0: const v0, 1\n}\n",
        "cannot allocate the layout: 4294967297 processors x 1 steps", 2, 1);
    return vars * 10 + procs;
  });
  EXPECT_EQ(status, 0) << "tens digit: the variables case, units: the "
                          "processors case (1 = wrong diagnostics, "
                          "2 = wrong message or place); -1 = crashed";
}

TEST(CompileFile, MissingFileIsADiagnosticNotAThrow) {
  SourceFile src;
  const auto r = compile_file("/nonexistent/nope.pram", src);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].loc.line, 1u);
}

TEST(CompileFile, UnreadablePathIsADiagnostic) {
  // A directory opens but reads nothing.
  const std::string dir = std::string(APEX_SOURCE_DIR) + "/tests/lang/cases";
  SourceFile src;
  const auto r = compile_file(dir, src);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].message, "cannot read '" + dir + "'");
  EXPECT_EQ(r.diagnostics[0].loc.line, 1u);
  EXPECT_EQ(r.diagnostics[0].loc.col, 1u);
  EXPECT_EQ(render_diagnostics(src, r.diagnostics),
            dir + ":1:1: error: cannot read '" + dir + "'\n  \n  ^\n");
}

TEST(CompileFile, ReadsAFileOfUnknownSizeWhole) {
  // /proc reports size 0 for its files, as a pipe has no size: the read
  // buffer has to grow.
  const std::string path = "/proc/self/cmdline";
  std::ifstream in(path, std::ios::binary);
  if (!in) GTEST_SKIP() << "no " << path;
  const std::string whole((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  SourceFile src;
  compile_file(path, src);
  EXPECT_GT(whole.size(), 1u);
  EXPECT_EQ(src.text, whole);
}

}  // namespace
}  // namespace apex::lang
