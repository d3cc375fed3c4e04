// Golden-file tests: every diagnostic class renders EXACTLY the committed
// message, location and caret.  Each case is tests/lang/cases/NAME.pram;
// the expected stderr of `apexcli compile` is NAME.expected.  Regenerate
// a golden (after an intentional change) with:
//
//   cd tests/lang && apexcli compile cases/NAME.pram 2> cases/NAME.expected
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "lang/compile.h"

namespace apex::lang {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compile cases/NAME.pram with the repo-relative name apexcli would use,
/// so the rendered diagnostics are byte-equal to the committed golden.
void check_case(const std::string& name) {
  const std::string dir = std::string(APEX_SOURCE_DIR) + "/tests/lang/";
  const std::string rel = "cases/" + name + ".pram";
  SourceFile src{rel, slurp(dir + rel)};
  const CompileResult r = compile_source(src);
  ASSERT_FALSE(r.ok()) << name << " unexpectedly compiled";
  EXPECT_EQ(render_diagnostics(src, r.diagnostics),
            slurp(dir + "cases/" + name + ".expected"))
      << "golden mismatch for " << name;
}

TEST(DiagnosticsGolden, ErewWriteWrite) { check_case("erew_write"); }
TEST(DiagnosticsGolden, ErewReadRead) { check_case("erew_read"); }
TEST(DiagnosticsGolden, SameStepSegmentWrite) { check_case("segment_write"); }
TEST(DiagnosticsGolden, UndefinedVariable) { check_case("undefined_var"); }
TEST(DiagnosticsGolden, VariableIdOverflow) { check_case("id_overflow"); }
TEST(DiagnosticsGolden, StrayCharacter) { check_case("stray_char"); }
TEST(DiagnosticsGolden, IntegerOver64Bits) { check_case("int_overflow"); }
TEST(DiagnosticsGolden, LexErrorBeatsEarlierSyntaxError) {
  check_case("lex_error_first");
}
TEST(DiagnosticsGolden, ExpectedToken) { check_case("expected_token"); }
TEST(DiagnosticsGolden, UnknownInstruction) { check_case("unknown_instr"); }
TEST(DiagnosticsGolden, DuplicateLane) { check_case("duplicate_lane"); }
TEST(DiagnosticsGolden, LaneOutOfRange) { check_case("lane_range"); }
TEST(DiagnosticsGolden, SubscriptOutOfBounds) {
  check_case("subscript_bounds");
}
TEST(DiagnosticsGolden, UndefinedSegment) { check_case("undefined_segment"); }
TEST(DiagnosticsGolden, ReservedVariableName) { check_case("reserved_name"); }
TEST(DiagnosticsGolden, MissingProcs) { check_case("missing_procs"); }
TEST(DiagnosticsGolden, SemanticErrorsBatchOrder) {
  check_case("batch_order");
}
TEST(DiagnosticsGolden, ErewErrorsBatchOrder) { check_case("erew_order"); }
TEST(DiagnosticsGolden, ErewLocatedInALaterStep) {
  check_case("erew_relocate");
}
TEST(DiagnosticsGolden, HugeLayoutWithALaneError) {
  check_case("huge_layout");
}
TEST(DiagnosticsGolden, DeclarationSizesSumPast64Bits) {
  check_case("layout_overflow");
}
TEST(DiagnosticsGolden, VarsTotalPlusDeclarationPast64Bits) {
  check_case("vars_overflow");
}
TEST(DiagnosticsGolden, ProcsPastVectorMaxSize) {
  check_case("procs_past_max_size");
}

}  // namespace
}  // namespace apex::lang
