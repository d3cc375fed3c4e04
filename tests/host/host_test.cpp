#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "host/host_executor.h"
#include "host/host_memory.h"

namespace apex::host {
namespace {

TEST(Pack, RoundTrips) {
  const std::uint64_t w = Pack::pack(0x12345678AULL, 0xABCDEF);
  EXPECT_EQ(Pack::value_of(w), 0x12345678AULL);
  EXPECT_EQ(Pack::stamp_of(w), 0xABCDEFu);
}

TEST(Pack, ZeroIsEmptyCell) {
  EXPECT_EQ(Pack::value_of(0), 0u);
  EXPECT_EQ(Pack::stamp_of(0), 0u);
}

TEST(Pack, RejectsOverwideValues) {
  EXPECT_NO_THROW(Pack::pack(Pack::kValueLimit - 1, 0));
  EXPECT_THROW(Pack::pack(Pack::kValueLimit, 0), std::out_of_range);
}

TEST(Pack, StampMasked) {
  const std::uint64_t w = Pack::pack(1, 0xFFFFFFFF);
  EXPECT_EQ(Pack::stamp_of(w), Pack::kStampMask);
  EXPECT_EQ(Pack::value_of(w), 1u);
}

TEST(HostMemory, ReadWriteRoundTrip) {
  HostMemory mem(4);
  EXPECT_EQ(mem.size(), 4u);
  mem.write(2, 99, 7);
  const HostCell c = mem.read(2);
  EXPECT_EQ(c.value, 99u);
  EXPECT_EQ(c.stamp, 7u);
  EXPECT_EQ(mem.read(0).stamp, 0u);
}

TEST(HostMemory, OutOfRangeThrows) {
  HostMemory mem(2);
  EXPECT_THROW(mem.read(2), std::out_of_range);
  EXPECT_THROW(mem.write(5, 1, 1), std::out_of_range);
}

// --- bin-array agreement as a one-step program -------------------------
//
// Standalone agreement (Theorem 1's setting) is a one-step program on the
// host executor: processor i evaluates one instruction writing variable i,
// so bin i agrees on one value.  agreed_values() checks the scannable
// Theorem 1 properties at quiescence: accessibility (at least half the
// upper cells carry the step's stamp) and uniqueness (they all hold one
// value).

pram::Program one_step(std::size_t procs,
                       const std::function<pram::Instr(std::uint32_t)>& task) {
  pram::ProgramBuilder b(procs, procs);
  b.step().all([&](std::size_t i) {
    return task(static_cast<std::uint32_t>(i));
  });
  return b.build();
}

/// Runs `p` and returns each bin's agreed value; every bin must have agreed,
/// on the value the Copy subphase committed.
std::vector<std::uint64_t> agree(const pram::Program& p, HostExecConfig cfg) {
  HostExecutor ex(p, cfg);
  const HostExecResult res = ex.run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.lost_commits, 0u);
  EXPECT_GT(res.total_work, 0u);
  const auto agreed = ex.agreed_values(0);
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < p.nthreads(); ++i) {
    EXPECT_TRUE(agreed[i].has_value()) << "bin " << i;
    values.push_back(agreed[i].value_or(0));
    EXPECT_EQ(values[i], res.memory[i]) << "bin " << i;
  }
  return values;
}

HostExecConfig seeded(std::uint64_t seed) {
  HostExecConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(StepAgreement, ReachesAgreementOnRealThreads) {
  const auto values = agree(one_step(4, [](std::uint32_t i) {
                              return pram::Instr::rand_below(i, 1000);
                            }),
                            seeded(1));
  for (auto v : values) EXPECT_LT(v, 1000u);
}

TEST(StepAgreement, UniquenessHoldsInUpperHalf) {
  // agreed_values() is engaged only where every stamped upper cell holds the
  // same value, so agree() failing no bin is the uniqueness property.
  const auto values = agree(one_step(4, [](std::uint32_t i) {
                              return pram::Instr::rand_below(i, 1ULL << 30);
                            }),
                            seeded(2));
  for (auto v : values) EXPECT_LT(v, 1ULL << 30);
}

TEST(StepAgreement, ConstantTaskAgreesOnOnlyValidValue) {
  const auto values = agree(one_step(4, [](std::uint32_t i) {
                              return pram::Instr::constant(i, 100 + i);
                            }),
                            seeded(3));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(values[i], 100 + i);
}

TEST(StepAgreement, WorksWithMoreThreadsThanCores) {
  // P = T = 8: oversubscription produces exactly the preemption asynchrony
  // the paper targets; the protocol must still converge.
  HostExecConfig cfg = seeded(4);
  cfg.os_threads = 8;
  const auto p = one_step(8, [](std::uint32_t i) {
    return pram::Instr::rand_below(i, 64);
  });
  EXPECT_EQ(HostExecutor(p, cfg).os_threads(), 8u);
  for (auto v : agree(p, cfg)) EXPECT_LT(v, 64u);
}

TEST(StepAgreement, OnlyTheFinalStepsBinsAreExact) {
  // The next phase recycles a step's bins, so step 0's stamp survives in too
  // few upper cells once step 1 has run; the final step's bins stay exact.
  // T = 1 makes the interleaving, and so this outcome, a function of the
  // seed.
  pram::ProgramBuilder b(4, 8);
  b.step().all([](std::size_t i) {
    return pram::Instr::rand_below(static_cast<std::uint32_t>(i), 1000);
  });
  b.step().all([](std::size_t i) {
    return pram::Instr::constant(static_cast<std::uint32_t>(4 + i), 7);
  });
  const pram::Program p = b.build();
  HostExecConfig cfg = seeded(5);
  cfg.os_threads = 1;
  HostExecutor ex(p, cfg);
  ASSERT_TRUE(ex.run().completed);
  for (const auto& v : ex.agreed_values(0)) EXPECT_FALSE(v.has_value());
  for (const auto& v : ex.agreed_values(1)) EXPECT_EQ(v, 7u);
  EXPECT_THROW(ex.agreed_values(2), std::out_of_range);
}

TEST(StepAgreement, DistributionRoughlyPreservedAcrossRuns) {
  // Claim 8 smoke test on real threads: fair coins should not be heavily
  // biased by OS scheduling (loose 3:1 bound over 48 samples).
  const auto p = one_step(4, [](std::uint32_t i) {
    return pram::Instr::coin(i, 0.5);
  });
  int ones = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed)
    for (auto v : agree(p, seeded(100 + seed))) {
      ones += static_cast<int>(v);
      ++total;
    }
  EXPECT_GT(ones, total / 4);
  EXPECT_LT(ones, 3 * total / 4);
}

}  // namespace
}  // namespace apex::host
