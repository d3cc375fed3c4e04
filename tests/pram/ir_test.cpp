#include "pram/ir.h"

#include <gtest/gtest.h>

namespace apex::pram {
namespace {

TEST(Instr, OpcodeMetadata) {
  EXPECT_EQ(reads_of(OpCode::kNop), 0);
  EXPECT_EQ(reads_of(OpCode::kConst), 0);
  EXPECT_EQ(reads_of(OpCode::kCopy), 1);
  EXPECT_EQ(reads_of(OpCode::kAdd), 2);
  EXPECT_EQ(reads_of(OpCode::kSelect), 3);
  EXPECT_EQ(reads_of(OpCode::kRandBelow), 0);
  EXPECT_FALSE(writes_dest(OpCode::kNop));
  EXPECT_TRUE(writes_dest(OpCode::kCoin));
  EXPECT_TRUE(is_nondeterministic(OpCode::kRandBelow));
  EXPECT_TRUE(is_nondeterministic(OpCode::kCoin));
  EXPECT_FALSE(is_nondeterministic(OpCode::kAdd));
}

TEST(Instr, DeterministicEvaluation) {
  EXPECT_EQ(eval_deterministic(Instr::constant(0, 42), 0, 0, 0), 42u);
  EXPECT_EQ(eval_deterministic(Instr::copy(0, 1), 7, 0, 0), 7u);
  EXPECT_EQ(eval_deterministic(Instr::add(0, 1, 2), 3, 4, 0), 7u);
  EXPECT_EQ(eval_deterministic(Instr::sub(0, 1, 2), 3, 4, 0),
            static_cast<Word>(-1));
  EXPECT_EQ(eval_deterministic(Instr::mul(0, 1, 2), 3, 4, 0), 12u);
  EXPECT_EQ(eval_deterministic(Instr::min(0, 1, 2), 3, 4, 0), 3u);
  EXPECT_EQ(eval_deterministic(Instr::max(0, 1, 2), 3, 4, 0), 4u);
  EXPECT_EQ(eval_deterministic(Instr::xor_(0, 1, 2), 5, 3, 0), 6u);
  EXPECT_EQ(eval_deterministic(Instr::and_(0, 1, 2), 5, 3, 0), 1u);
  EXPECT_EQ(eval_deterministic(Instr::or_(0, 1, 2), 5, 3, 0), 7u);
  EXPECT_EQ(eval_deterministic(Instr::less(0, 1, 2), 3, 4, 0), 1u);
  EXPECT_EQ(eval_deterministic(Instr::less(0, 1, 2), 4, 3, 0), 0u);
  EXPECT_EQ(eval_deterministic(Instr::eq(0, 1, 2), 4, 4, 0), 1u);
  EXPECT_EQ(eval_deterministic(Instr::select(0, 3, 1, 2), 10, 20, 1), 10u);
  EXPECT_EQ(eval_deterministic(Instr::select(0, 3, 1, 2), 10, 20, 0), 20u);
}

TEST(Instr, SupportOfDeterministicOpsIsSingleton) {
  const Instr add = Instr::add(0, 1, 2);
  EXPECT_TRUE(in_support(add, 7, 3, 4, 0));
  EXPECT_FALSE(in_support(add, 8, 3, 4, 0));
}

TEST(Instr, SupportOfRandBelow) {
  const Instr r = Instr::rand_below(0, 10);
  EXPECT_TRUE(in_support(r, 0, 0, 0, 0));
  EXPECT_TRUE(in_support(r, 9, 0, 0, 0));
  EXPECT_FALSE(in_support(r, 10, 0, 0, 0));
}

TEST(Instr, SupportOfCoin) {
  const Instr fair = Instr::coin(0, 0.5);
  EXPECT_TRUE(in_support(fair, 0, 0, 0, 0));
  EXPECT_TRUE(in_support(fair, 1, 0, 0, 0));
  EXPECT_FALSE(in_support(fair, 2, 0, 0, 0));
  const Instr never = Instr::coin(0, 0.0);
  EXPECT_TRUE(in_support(never, 0, 0, 0, 0));
  EXPECT_FALSE(in_support(never, 1, 0, 0, 0));
  const Instr always = Instr::coin(0, 1.0);
  EXPECT_FALSE(in_support(always, 0, 0, 0, 0));
  EXPECT_TRUE(in_support(always, 1, 0, 0, 0));
}

TEST(Instr, ToStringMentionsOperands) {
  EXPECT_EQ(Instr::nop().to_string(), "nop");
  const std::string s = Instr::add(3, 1, 2).to_string();
  EXPECT_NE(s.find("add"), std::string::npos);
  EXPECT_NE(s.find("v3"), std::string::npos);
  EXPECT_NE(s.find("v1"), std::string::npos);
  EXPECT_NE(s.find("v2"), std::string::npos);
  // Exact renderings (what `apexcli compile` prints) for the ops the
  // tutorial golden does not cover.
  EXPECT_EQ(Instr::copy(35, 27).to_string(), "copy v35 <- v27");
  EXPECT_EQ(Instr::and_(25, 88, 96).to_string(), "and v25 <- v88, v96");
  EXPECT_EQ(Instr::or_(81, 81, 113).to_string(), "or v81 <- v81, v113");
  EXPECT_EQ(Instr::eq(96, 7, 144).to_string(), "eq v96 <- v7, v144");
  EXPECT_EQ(Instr::mul(97, 81, 89).to_string(), "mul v97 <- v81, v89");
}

TEST(Instr, CoinQuantization) {
  EXPECT_EQ(Instr::coin(0, -0.5).imm, 0u);
  EXPECT_EQ(Instr::coin(0, 2.0).imm, 1ULL << 32);
  const Word half = Instr::coin(0, 0.5).imm;
  EXPECT_EQ(half, 1ULL << 31);
}

}  // namespace
}  // namespace apex::pram
