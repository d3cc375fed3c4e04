#include "pram/interp.h"

#include <gtest/gtest.h>

#include "pram/workloads.h"

namespace apex::pram {
namespace {

TEST(Interpreter, SimpleDeterministicProgram) {
  ProgramBuilder b(2, 4);
  b.step().thread(0, Instr::constant(0, 5)).thread(1, Instr::constant(1, 7));
  b.step().thread(0, Instr::add(2, 0, 1));
  Program p = b.build();
  const auto r = Interpreter(p).run_deterministic({});
  EXPECT_EQ(r.memory[0], 5u);
  EXPECT_EQ(r.memory[1], 7u);
  EXPECT_EQ(r.memory[2], 12u);
  EXPECT_EQ(r.produced[0][0], 5u);
  EXPECT_EQ(r.produced[1][0], 12u);
}

TEST(Interpreter, StepSemanticsAreSynchronous) {
  // Swap via simultaneous reads: both threads read the PRE-step values.
  ProgramBuilder b(2, 2);
  b.step().thread(0, Instr::copy(1, 0)).thread(1, Instr::copy(0, 1));
  Program p = b.build();
  const auto r = Interpreter(p).run_deterministic({3, 9});
  EXPECT_EQ(r.memory[0], 9u);
  EXPECT_EQ(r.memory[1], 3u);
}

TEST(Interpreter, RunDeterministicRejectsNondet) {
  ProgramBuilder b(1, 1);
  b.step().thread(0, Instr::rand_below(0, 4));
  Program p = b.build();
  EXPECT_THROW(Interpreter(p).run_deterministic({}), std::logic_error);
}

TEST(Interpreter, ReductionComputesSum) {
  const std::size_t n = 16;
  Program p = make_reduction(n);
  std::vector<Word> init(p.nvars(), 0);
  Word expect = 0;
  for (std::size_t i = 0; i < n; ++i) {
    init[i] = i * i + 1;
    expect += init[i];
  }
  const auto r = Interpreter(p).run_deterministic(init);
  EXPECT_EQ(r.memory[reduction_result_var(n)], expect);
}

TEST(Interpreter, ReductionAllSizes) {
  for (std::size_t n : {2u, 4u, 8u, 32u, 64u}) {
    Program p = make_reduction(n);
    std::vector<Word> init(p.nvars(), 0);
    for (std::size_t i = 0; i < n; ++i) init[i] = 1;
    const auto r = Interpreter(p).run_deterministic(init);
    EXPECT_EQ(r.memory[reduction_result_var(n)], n) << "n=" << n;
  }
}

TEST(Interpreter, NondetDrawsFromRng) {
  ProgramBuilder b(1, 1);
  b.step().thread(0, Instr::rand_below(0, 1000));
  Program p = b.build();
  Interpreter it(p);
  const auto a = it.run({}, apex::Rng(1));
  const auto b2 = it.run({}, apex::Rng(1));
  const auto c = it.run({}, apex::Rng(2));
  EXPECT_EQ(a.memory[0], b2.memory[0]);
  EXPECT_LT(a.memory[0], 1000u);
  // Different seeds almost surely differ over 1000 values.
  EXPECT_NE(a.memory[0], c.memory[0]);
}

TEST(Interpreter, LubyInvariantHoldsOnEveryExecution) {
  const std::size_t n = 16;
  Program p = make_luby_cycle_round(n, 1 << 20);
  Interpreter it(p);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto r = it.run({}, apex::Rng(seed));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(r.memory[luby_violation_var(n, i)], 0u)
          << "seed=" << seed << " node " << i;
  }
}

TEST(Interpreter, LeaderElectionInvariants) {
  const std::size_t n = 16;
  Program p = make_leader_election(n, 1 << 16);
  Interpreter it(p);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto r = it.run({}, apex::Rng(seed));
    Word maxv = 0;
    for (std::size_t i = 0; i < n; ++i)
      maxv = std::max(maxv, r.memory[leader_ticket_var(n, i)]);
    std::size_t leaders = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r.memory[leader_max_var(n, i)], maxv) << "broadcast failed";
      if (r.memory[leader_flag_var(n, i)]) {
        ++leaders;
        EXPECT_EQ(r.memory[leader_ticket_var(n, i)], maxv);
      }
    }
    EXPECT_GE(leaders, 1u);
  }
}

TEST(Interpreter, ConsistencyProbeFlagsAlwaysOne) {
  const std::size_t n = 4, chain = 6;
  Program p = make_consistency_probe(n, chain, 1000);
  Interpreter it(p);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto r = it.run({}, apex::Rng(seed));
    for (std::size_t j = 0; j < probe_flag_count(chain); ++j)
      EXPECT_EQ(r.memory[probe_flag_var(n, chain, j)], 1u) << "flag " << j;
  }
}

// --- Consistency oracle ------------------------------------------------------

TEST(ConsistencyOracle, AcceptsInterpreterTrace) {
  const std::size_t n = 8;
  Program p = make_luby_cycle_round(n, 1000);
  const auto r = Interpreter(p).run({}, apex::Rng(3));
  const std::string err = check_execution_consistency(
      p, std::vector<Word>(p.nvars(), 0), r.produced, r.memory);
  EXPECT_EQ(err, "") << err;
}

TEST(ConsistencyOracle, RejectsOutOfSupportValue) {
  ProgramBuilder b(1, 1);
  b.step().thread(0, Instr::rand_below(0, 4));
  Program p = b.build();
  auto r = Interpreter(p).run({}, apex::Rng(1));
  r.produced[0][0] = 99;  // impossible draw
  r.memory[0] = 99;
  const std::string err =
      check_execution_consistency(p, {0}, r.produced, r.memory);
  EXPECT_NE(err.find("not a valid result"), std::string::npos) << err;
}

TEST(ConsistencyOracle, RejectsInconsistentDeterministicOp) {
  // Copy chain where the relayed value silently changes: exactly the
  // deterministic-scheme failure mode on nondeterministic programs.
  const std::size_t n = 4, chain = 3;
  Program p = make_consistency_probe(n, chain, 1000);
  auto r = Interpreter(p).run({}, apex::Rng(5));
  // Corrupt the copy at step 2 (c2 = copy(c1)) to a different value.
  r.produced[2][1] += 1;
  const std::string err = check_execution_consistency(
      p, std::vector<Word>(p.nvars(), 0), r.produced, r.memory);
  EXPECT_NE(err, "");
}

TEST(ConsistencyOracle, RejectsFinalMemoryMismatch) {
  ProgramBuilder b(1, 2);
  b.step().thread(0, Instr::constant(0, 5));
  Program p = b.build();
  auto r = Interpreter(p).run_deterministic({});
  r.memory[0] = 6;
  const std::string err =
      check_execution_consistency(p, {0, 0}, r.produced, r.memory);
  EXPECT_NE(err.find("final memory mismatch"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Data-dependent addressing (kGatherDyn) edge cases
// ---------------------------------------------------------------------------

TEST(Gather, ReadsTheComputedCell) {
  // Segment [1, 5) holds 10..13; index v0 plus offset v6 picks the cell,
  // bound v7 caps it, the result lands in v5.
  ProgramBuilder b(1, 8);
  b.step().thread(0, Instr::gather_dyn(5, 0, 6, 7, 1, 4));
  Program p = b.build();
  const auto r =
      Interpreter(p).run_deterministic({1, 10, 11, 12, 13, 0, 1, 4});
  EXPECT_EQ(r.memory[5], 12u);  // segment[1 + 1]
}

TEST(Gather, OutOfRangeComputedIndexYieldsZeroNotAFault) {
  // An index at or past the bound, or past the segment length, reads 0 --
  // including sums that would overflow a size_t subscript if added to the
  // segment base naively, and index + offset sums that wrap.
  ProgramBuilder b(1, 8);
  b.step().thread(0, Instr::gather_dyn(5, 0, 6, 7, 1, 4));
  Program p = b.build();
  struct Case {
    Word idx, off, bound;
  };
  for (const Case c : {Case{3, 0, 3}, Case{1, 2, 2}, Case{4, 0, 100},
                       Case{Word{1} << 32, 0, ~Word{0}},
                       Case{~Word{0}, 0, ~Word{0}},
                       Case{~Word{0}, ~Word{0}, ~Word{0}},
                       Case{~Word{0}, 5, ~Word{0}}}) {
    const auto r = Interpreter(p).run_deterministic(
        {c.idx, 10, 11, 12, 13, 7, c.off, c.bound});
    EXPECT_EQ(r.memory[5], 0u)
        << "index " << c.idx << " offset " << c.off << " bound " << c.bound;
  }
  // The sum wraps: 2^64 - 1 plus 2 is index 1, inside both limits.
  const auto r = Interpreter(p).run_deterministic(
      {~Word{0}, 10, 11, 12, 13, 7, 2, 4});
  EXPECT_EQ(r.memory[5], 11u);
}

TEST(Gather, IndexComputedAtRuntimeFeedsTheGather) {
  // idx = a + b computed in step 0; the gather uses it in step 1.
  ProgramBuilder b(1, 10);
  b.step().thread(0, Instr::add(2, 0, 1));
  b.step().thread(0, Instr::gather_dyn(7, 2, 8, 9, 3, 4));
  Program p = b.build();
  const auto r =
      Interpreter(p).run_deterministic({1, 2, 0, 20, 21, 22, 23, 0, 0, 4});
  EXPECT_EQ(r.memory[7], 23u);  // segment[3]
}

TEST(Gather, SegmentReadsAreSharedButTheSegmentIsFrozenForTheStep) {
  // Two threads may gather from one segment in a step (CREW)...
  {
    ProgramBuilder b(2, 12);
    b.step()
        .thread(0, Instr::gather_dyn(10, 0, 1, 2, 6, 4))
        .thread(1, Instr::gather_dyn(11, 3, 4, 5, 6, 4));
    EXPECT_NO_THROW(b.build());
  }
  // ...but a same-step write into it throws, whoever writes,
  {
    ProgramBuilder b(2, 12);
    b.step()
        .thread(0, Instr::gather_dyn(10, 0, 1, 2, 6, 4))
        .thread(1, Instr::constant(9, 99));  // v9 is inside [6, 10)
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
  {
    ProgramBuilder b(1, 12);
    b.step().thread(0, Instr::gather_dyn(7, 0, 1, 2, 6, 4));
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
  // while a write just outside it, or into it in another step, is fine.
  {
    ProgramBuilder b(2, 12);
    b.step()
        .thread(0, Instr::gather_dyn(10, 0, 1, 2, 6, 4))
        .thread(1, Instr::constant(5, 99));
    b.step().thread(1, Instr::constant(9, 99));
    EXPECT_NO_THROW(b.build());
  }
}

TEST(Gather, WindowMustFitInsideVariableSpace) {
  {
    ProgramBuilder b(1, 6);
    b.step().thread(0, Instr::gather_dyn(0, 1, 2, 5, 3, 4));  // [3, 7) > 6
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
  {
    ProgramBuilder b(1, 6);
    b.step().thread(0, Instr::gather_dyn(0, 1, 2, 5, 3, 0));  // empty
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
  {
    ProgramBuilder b(1, 6);
    b.step().thread(0, Instr::gather_dyn(0, 1, 2, 5, 3, 3));  // [3, 6) fits
    EXPECT_NO_THROW(b.build());
  }
}

TEST(Gather, ConsistencyOracleResolvesGathersAgainstTheReplayImage) {
  ProgramBuilder b(1, 8);
  b.step().thread(0, Instr::gather_dyn(5, 0, 6, 7, 1, 4));
  Program p = b.build();
  const std::vector<Word> in = {2, 10, 11, 12, 13, 0, 0, 4};
  auto r = Interpreter(p).run_deterministic(in);
  EXPECT_EQ(check_execution_consistency(p, in, r.produced, r.memory), "");
  // A forged gather result must be rejected.
  r.produced[0][0] = 99;
  r.memory[5] = 99;
  EXPECT_NE(check_execution_consistency(p, in, r.produced, r.memory), "");
}

TEST(Gather, WriterTableResolvesRuntimeTargets) {
  // The gather target was written two steps earlier; last_writer_before
  // must answer for every segment cell so executors can stamp-check.
  ProgramBuilder b(2, 10);
  b.step().thread(0, Instr::constant(3, 42)).thread(1, Instr::constant(0, 2));
  b.step().thread(0, Instr::constant(9, 4));
  b.step().thread(0, Instr::gather_dyn(7, 0, 8, 9, 1, 4));
  Program p = b.build();
  EXPECT_EQ(p.last_writer_before(2, 3), 0u);  // segment cell written step 0
  EXPECT_EQ(p.last_writer_before(2, 2), kInitial);
  const auto r = Interpreter(p).run_deterministic({});
  EXPECT_EQ(r.memory[7], 42u);  // idx=2 -> segment[2] = v3 = 42
}

}  // namespace
}  // namespace apex::pram
