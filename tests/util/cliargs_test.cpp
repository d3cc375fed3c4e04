#include "util/cliargs.h"

#include <gtest/gtest.h>

namespace apex::cli {
namespace {

// ---- parse_u64_strict: the regression pinned by the apexcli bugfix ----
// std::stoull accepted " 5", "+5", "0x10" and silently stopped at the
// first non-digit; strict parsing rejects all of those.

TEST(ParseU64Strict, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64_strict("0"), 0u);
  EXPECT_EQ(parse_u64_strict("5"), 5u);
  EXPECT_EQ(parse_u64_strict("007"), 7u);
  EXPECT_EQ(parse_u64_strict("18446744073709551615"),
            18446744073709551615ULL);
}

TEST(ParseU64Strict, RejectsSignsWhitespaceAndHex) {
  EXPECT_FALSE(parse_u64_strict("+5").has_value());
  EXPECT_FALSE(parse_u64_strict("-5").has_value());
  EXPECT_FALSE(parse_u64_strict(" 5").has_value());
  EXPECT_FALSE(parse_u64_strict("5 ").has_value());
  EXPECT_FALSE(parse_u64_strict("\t5").has_value());
  EXPECT_FALSE(parse_u64_strict("0x10").has_value());
  EXPECT_FALSE(parse_u64_strict("5e3").has_value());
  EXPECT_FALSE(parse_u64_strict("").has_value());
  EXPECT_FALSE(parse_u64_strict("12.5").has_value());
}

TEST(ParseU64Strict, RejectsOverflow) {
  EXPECT_FALSE(parse_u64_strict("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64_strict("99999999999999999999999").has_value());
}

// ---- parse_argv: every token accounted for ----

char** fake_argv(std::vector<std::string>& store) {
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : store) ptrs.push_back(s.data());
  return ptrs.data();
}

TEST(ParseArgv, SplitsFlagsAndPositionals) {
  std::vector<std::string> v = {"apexcli", "exec", "--n=8", "file.pram",
                                "--csv"};
  const ParsedArgs a = parse_argv(static_cast<int>(v.size()), fake_argv(v));
  EXPECT_EQ(a.cmd, "exec");
  ASSERT_EQ(a.positional.size(), 1u);
  EXPECT_EQ(a.positional[0], "file.pram");
  EXPECT_EQ(a.kv.at("n"), "8");
  EXPECT_EQ(a.kv.at("csv"), "1");  // bare flag -> "1"
}

TEST(ParseArgv, WithoutSubcommandEveryTokenIsAnArgument) {
  std::vector<std::string> v = {"bench_e1", "--seeds=3", "extra"};
  const ParsedArgs a =
      parse_argv(static_cast<int>(v.size()), fake_argv(v), false);
  EXPECT_EQ(a.cmd, "bench_e1");  // the program, for validate_args' messages
  EXPECT_EQ(a.kv.at("seeds"), "3");
  ASSERT_EQ(a.positional.size(), 1u);
  EXPECT_EQ(a.positional[0], "extra");
}

TEST(ParseArgv, EmptyArgv) {
  std::vector<std::string> v = {"apexcli"};
  const ParsedArgs a = parse_argv(1, fake_argv(v));
  EXPECT_TRUE(a.cmd.empty());
  EXPECT_TRUE(a.kv.empty());
  EXPECT_TRUE(a.positional.empty());
}

// ---- validate_args: the strict contract ----

TEST(ValidateArgs, CleanArgsPass) {
  ParsedArgs a{"exec", {{"n", "8"}, {"seed", "1"}}, {}};
  EXPECT_EQ(validate_args(a, {"n", "seed", "sched"}, 0), "");
}

TEST(ValidateArgs, UnknownFlagWithSuggestion) {
  ParsedArgs a{"exec", {{"interelave", "rr"}}, {}};
  const std::string err =
      validate_args(a, {"interleave", "n", "seed"}, 0);
  EXPECT_NE(err.find("unknown flag '--interelave' for 'exec'"),
            std::string::npos);
  EXPECT_NE(err.find("did you mean '--interleave'?"), std::string::npos);
}

TEST(ValidateArgs, UnknownFlagFarFromAnything) {
  ParsedArgs a{"agree", {{"zzz", "1"}}, {}};
  const std::string err = validate_args(a, {"n", "seed"}, 0);
  EXPECT_NE(err.find("unknown flag '--zzz'"), std::string::npos);
  EXPECT_EQ(err.find("did you mean"), std::string::npos);
}

TEST(ValidateArgs, StrayPositionalRejected) {
  ParsedArgs a{"agree", {}, {"oops"}};
  const std::string err = validate_args(a, {"n"}, 0);
  EXPECT_NE(err.find("unexpected argument 'oops' for 'agree'"),
            std::string::npos);
}

TEST(ValidateArgs, PositionalBudgetRespected) {
  ParsedArgs one{"exec", {}, {"file.pram"}};
  EXPECT_EQ(validate_args(one, {"n"}, 1), "");
  ParsedArgs two{"exec", {}, {"a.pram", "b.pram"}};
  EXPECT_NE(validate_args(two, {"n"}, 1), "");
}

}  // namespace
}  // namespace apex::cli
