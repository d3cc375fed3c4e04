#include "sim/memory.h"

#include <gtest/gtest.h>

namespace apex::sim {
namespace {

TEST(Memory, InitiallyZeroWithStampZero) {
  Memory m(8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(m.at(i).value, 0u);
    EXPECT_EQ(m.at(i).stamp, 0u);
  }
}

TEST(Memory, ReadWriteCell) {
  Memory m(4);
  m.at(2) = Cell{42, 7};
  EXPECT_EQ(m.at(2).value, 42u);
  EXPECT_EQ(m.at(2).stamp, 7u);
}

TEST(Memory, OutOfRangeThrows) {
  Memory m(4);
  EXPECT_THROW(m.at(4), std::out_of_range);
  EXPECT_THROW(m.at(100), std::out_of_range);
  const Memory& cm = m;
  EXPECT_THROW(cm.at(4), std::out_of_range);
}

TEST(Memory, ExtendReturnsBaseAndGrows) {
  Memory m(4);
  const std::size_t base = m.extend(6);
  EXPECT_EQ(base, 4u);
  EXPECT_EQ(m.size(), 10u);
  m.at(9) = Cell{1, 1};
  EXPECT_EQ(m.at(9).value, 1u);
}

TEST(Memory, CellEquality) {
  EXPECT_EQ((Cell{1, 2}), (Cell{1, 2}));
  EXPECT_NE((Cell{1, 2}), (Cell{1, 3}));
  EXPECT_NE((Cell{1, 2}), (Cell{2, 2}));
}

}  // namespace
}  // namespace apex::sim
