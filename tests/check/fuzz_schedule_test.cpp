#include "check/fuzz_schedule.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace apex::check {
namespace {

TEST(FuzzedSchedule, DeterministicFromSeed) {
  FuzzedSchedule a(8, 42), b(8, 42);
  for (std::uint64_t t = 0; t < 50000; ++t)
    ASSERT_EQ(a.next(t), b.next(t)) << "t=" << t;
  EXPECT_EQ(a.describe(), b.describe());
}

TEST(FuzzedSchedule, DifferentSeedsDiffer) {
  FuzzedSchedule a(8, 1), b(8, 2);
  int differ = 0;
  for (std::uint64_t t = 0; t < 5000; ++t) differ += a.next(t) != b.next(t);
  EXPECT_GT(differ, 100);
}

TEST(FuzzedSchedule, GrantsStayInRange) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    FuzzedSchedule s(5, seed);
    for (std::uint64_t t = 0; t < 30000; ++t) ASSERT_LT(s.next(t), 5u);
  }
}

TEST(FuzzedSchedule, EventuallyCoversEveryProc) {
  const std::size_t n = 6;
  FuzzedSchedule s(n, 3);
  std::set<std::size_t> seen;
  for (std::uint64_t t = 0; t < 100000 && seen.size() < n; ++t)
    seen.insert(s.next(t));
  EXPECT_EQ(seen.size(), n);
}

TEST(FuzzedSchedule, IsObliviousAndComposesManySegments) {
  FuzzedSchedule s(4, 11);
  EXPECT_TRUE(s.is_oblivious());
  for (std::uint64_t t = 0; t < 200000; ++t) s.next(t);
  // Mean segment length is a few hundred; 200k grants must cross many.
  EXPECT_GT(s.segments_generated(), 20u);
  EXPECT_FALSE(s.describe().empty());
}

TEST(FuzzedSchedule, SingleProcDegenerate) {
  FuzzedSchedule s(1, 5);
  for (std::uint64_t t = 0; t < 20000; ++t) ASSERT_EQ(s.next(t), 0u);
}

TEST(RecordingSchedule, TraceReplaysExactly) {
  RecordingSchedule rec(std::make_unique<FuzzedSchedule>(6, 77));
  std::vector<std::size_t> live;
  for (std::uint64_t t = 0; t < 9000; ++t) live.push_back(rec.next(t));
  ASSERT_EQ(rec.trace(), live);

  // Replaying the trace through a ScriptedSchedule yields the same grants.
  sim::ScriptedSchedule replay(6, rec.trace(), sim::ScriptExhaust::kThrow);
  for (std::uint64_t t = 0; t < 9000; ++t)
    ASSERT_EQ(replay.next(t), live[t]) << "t=" << t;
  EXPECT_THROW(replay.next(9000), std::out_of_range);
}

TEST(RecordingSchedule, ForwardsObliviousness) {
  RecordingSchedule a(std::make_unique<FuzzedSchedule>(2, 1));
  EXPECT_TRUE(a.is_oblivious());
  RecordingSchedule b(std::make_unique<sim::CallbackSchedule>(
      2, [](std::uint64_t) { return std::size_t{0}; }));
  EXPECT_FALSE(b.is_oblivious());
}

}  // namespace
}  // namespace apex::check
