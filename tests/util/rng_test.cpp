#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace apex {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

// Golden values: the streams every seeded artifact depends on (fuzz corpora,
// bench tables, T=1 host runs) must not drift when the generator's code
// moves.  Values recorded from the out-of-line implementation.
TEST(RngGolden, NextStream) {
  Rng r(42);
  EXPECT_EQ(r.next(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(r.next(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(r.next(), 0xae17533239e499a1ULL);
  EXPECT_EQ(r.next(), 0xecb8ad4703b360a1ULL);
  Rng z(0);
  EXPECT_EQ(z.next(), 0x99ec5f36cb75f2b4ULL);
  EXPECT_EQ(z.next(), 0xbf6e1f784956452aULL);
}

TEST(RngGolden, BelowSmallBounds) {
  Rng a(7);
  for (std::uint64_t want : {2869u, 1141u, 3439u, 4018u, 4058u, 3574u})
    EXPECT_EQ(a.below(4096), want);
  Rng b(7);
  for (std::uint64_t want : {7u, 2u, 8u, 9u, 9u, 8u})
    EXPECT_EQ(b.below(10), want);
}

TEST(RngGolden, BelowRejectionLoop) {
  // Bound 2^63 + 1 rejects about half of all draws (Lemire's slow path):
  // six results consume twelve draws on this seed.
  const std::uint64_t bound = (1ULL << 63) + 1;
  Rng r(7);
  for (std::uint64_t want :
       {0x59ac7d7ba77cbb2dULL, 0x6b78e9a4ca963ccbULL, 0x7d949c398f403920ULL,
        0x7ed482763f2a018cULL, 0x136eb5d000c700b1ULL, 0x5dad879c48f94fecULL})
    EXPECT_EQ(r.below(bound), want);
  Rng draws(7);
  for (int i = 0; i < 12; ++i) (void)draws.next();
  EXPECT_EQ(r.next(), draws.next());
}

TEST(RngGolden, Uniform) {
  Rng r(13);
  EXPECT_EQ(r.uniform(), 0x1.f038933268cf8p-3);
  EXPECT_EQ(r.uniform(), 0x1.90cb640a8d125p-1);
  EXPECT_EQ(r.uniform(), 0x1.ed028d7a3f629p-1);
}

TEST(RngGolden, ChildAndProcessorStreams) {
  Rng parent(99);
  Rng c1 = parent.child(1);
  EXPECT_EQ(c1.next(), 0xe55426925021c89cULL);
  EXPECT_EQ(c1.next(), 0x91b69a5daab5e773ULL);
  EXPECT_EQ(parent.child(2).next(), 0x28acc819f8d9453eULL);
  Rng p3 = SeedTree{1}.processor(3);
  EXPECT_EQ(p3.next(), 0x1cd79159309fdfc8ULL);
  EXPECT_EQ(p3.below(4096), 288u);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(13);
  double sum = 0.0;
  const int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, CoinFrequencyMatchesP) {
  Rng r(17);
  const int kN = 20000;
  int heads = 0;
  for (int i = 0; i < kN; ++i) heads += r.coin(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.3, 0.02);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(23);
  const std::uint64_t kBuckets = 10;
  std::vector<int> counts(kBuckets, 0);
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) ++counts[r.below(kBuckets)];
  for (auto c : counts)
    EXPECT_NEAR(static_cast<double>(c), kN / 10.0, kN / 10.0 * 0.15);
}

TEST(Rng, ChildStreamsIndependentAndDeterministic) {
  Rng parent(99);
  Rng c1 = parent.child(1);
  Rng c2 = parent.child(2);
  Rng c1_again = parent.child(1);
  EXPECT_EQ(c1.next(), c1_again.next());
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (c1.next() == c2.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ChildDoesNotPerturbParent) {
  Rng a(5), b(5);
  (void)a.child(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SeedTree, StreamsAreDomainSeparated) {
  SeedTree t{123};
  std::set<std::uint64_t> firsts;
  firsts.insert(t.schedule().next());
  firsts.insert(t.workload().next());
  for (std::size_t i = 0; i < 16; ++i) firsts.insert(t.processor(i).next());
  EXPECT_EQ(firsts.size(), 18u);  // all distinct
}

TEST(SeedTree, ScheduleIndependentOfProcessorStreams) {
  // Drawing from processor streams must not change the schedule stream:
  // this is the structural form of the oblivious-adversary requirement.
  SeedTree t{7};
  Rng s1 = t.schedule();
  for (std::size_t i = 0; i < 8; ++i) {
    Rng p = t.processor(i);
    for (int k = 0; k < 100; ++k) (void)p.next();
  }
  Rng s2 = t.schedule();
  for (int k = 0; k < 32; ++k) EXPECT_EQ(s1.next(), s2.next());
}

TEST(Mix64, DistinctInputsDistinctOutputs) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t a = 0; a < 30; ++a)
    for (std::uint64_t b = 0; b < 30; ++b) outs.insert(mix64(a, b));
  EXPECT_EQ(outs.size(), 900u);
}

}  // namespace
}  // namespace apex
