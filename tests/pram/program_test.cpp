#include "pram/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lang/compile.h"
#include "lang/gen.h"
#include "pram/interp.h"
#include "pram/workloads.h"
#include "util/math.h"

namespace apex::pram {
namespace {

TEST(ProgramBuilder, BuildsValidProgram) {
  ProgramBuilder b(2, 4);
  b.step().thread(0, Instr::constant(0, 5)).thread(1, Instr::constant(1, 7));
  b.step().thread(0, Instr::add(2, 0, 1));
  Program p = b.build();
  EXPECT_EQ(p.nthreads(), 2u);
  EXPECT_EQ(p.nvars(), 4u);
  EXPECT_EQ(p.nsteps(), 2u);
  EXPECT_FALSE(p.is_nondeterministic());
}

TEST(ProgramBuilder, DetectsNondeterminism) {
  ProgramBuilder b(1, 1);
  b.step().thread(0, Instr::rand_below(0, 10));
  EXPECT_TRUE(b.build().is_nondeterministic());
}

TEST(ProgramBuilder, ThreadIndexValidated) {
  ProgramBuilder b(2, 2);
  auto s = b.step();
  EXPECT_THROW(s.thread(2, Instr::nop()), std::invalid_argument);
}

TEST(Erew, ConcurrentReadRejected) {
  ProgramBuilder b(2, 4);
  b.step()
      .thread(0, Instr::copy(1, 0))
      .thread(1, Instr::copy(2, 0));  // both read v0
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Erew, ConcurrentWriteRejected) {
  ProgramBuilder b(2, 4);
  b.step().thread(0, Instr::constant(0, 1)).thread(1, Instr::constant(0, 2));
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Erew, ReadWriteSameVarAllowed) {
  // Thread 0 reads v0 while thread 1 writes it: legal, because split
  // execution performs all of a step's reads before any of its writes.
  ProgramBuilder b(2, 4);
  b.step().thread(0, Instr::copy(1, 0)).thread(1, Instr::constant(0, 2));
  EXPECT_NO_THROW(b.build());
}

TEST(Erew, SelfIncrementAllowed) {
  // z = z + y reads and writes z in one step: well-defined under split
  // execution (the read sees the pre-step value).
  ProgramBuilder b(1, 2);
  b.step().thread(0, Instr::add(0, 0, 1));
  EXPECT_NO_THROW(b.build());
}

TEST(Erew, SelfIncrementExecutesWithPreStepRead) {
  ProgramBuilder b(1, 2);
  b.step().thread(0, Instr::constant(1, 3));
  b.step().thread(0, Instr::constant(0, 5));
  b.step().thread(0, Instr::add(0, 0, 1));  // v0 <- v0 + v1
  const auto r = Interpreter(b.build()).run_deterministic({});
  EXPECT_EQ(r.memory[0], 8u);
}

TEST(Erew, SelectCountsAllThreeReads) {
  ProgramBuilder b(2, 5);
  b.step()
      .thread(0, Instr::select(4, 0, 1, 2))
      .thread(1, Instr::copy(3, 2));  // v2 read twice
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Erew, VarOutOfRangeRejected) {
  ProgramBuilder b(1, 2);
  b.step().thread(0, Instr::copy(0, 5));
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Erew, DisjointAccessAccepted) {
  ProgramBuilder b(3, 6);
  b.step()
      .thread(0, Instr::add(3, 0, 1))
      .thread(1, Instr::copy(4, 2))
      .thread(2, Instr::constant(5, 9));
  EXPECT_NO_THROW(b.build());
}

/// Thread t's operand provenance at step s, as Program::walk_writers
/// reports it.
OperandWriters walked(const Program& p, std::size_t s, std::size_t t) {
  OperandWriters out;
  p.walk_writers([&](std::size_t ws, std::size_t wt, const Instr&,
                     const OperandWriters& w) {
    if (ws == s && wt == t) out = w;
  });
  return out;
}

TEST(WriterTable, TracksLastWriter) {
  ProgramBuilder b(2, 4);
  b.step().thread(0, Instr::constant(0, 5));               // step 0 writes v0
  b.step().thread(1, Instr::copy(1, 0));                   // step 1 reads v0
  b.step().thread(0, Instr::constant(0, 6));               // step 2 rewrites v0
  b.step().thread(1, Instr::add(2, 0, 1));                 // step 3 reads v0, v1
  Program p = b.build();

  EXPECT_EQ(walked(p, 1, 1).x, 0u);        // v0 written at step 0
  EXPECT_EQ(walked(p, 3, 1).x, 2u);        // v0 rewritten at step 2
  EXPECT_EQ(walked(p, 3, 1).y, 1u);        // v1 written at step 1
  EXPECT_EQ(p.last_writer_before(1, 0), 0u);
  EXPECT_EQ(p.last_writer_before(3, 0), 2u);
  EXPECT_EQ(p.last_writer_before(3, 1), 1u);
  EXPECT_EQ(p.last_writer_before(1, 3), kInitial);  // v3 never written
}

TEST(WriterTable, InitialValuesHaveStampZero) {
  ProgramBuilder b(1, 2);
  b.step().thread(0, Instr::copy(1, 0));  // reads v0's initial value
  Program p = b.build();
  EXPECT_EQ(walked(p, 0, 0).x, kInitial);
  EXPECT_EQ(p.last_writer_before(0, 0), kInitial);
  EXPECT_EQ(stamp_of_writer(kInitial), 0u);
  EXPECT_EQ(stamp_of_writer(0), 1u);
  EXPECT_EQ(stamp_of_step(4), 5u);
}

TEST(Program, ToStringListsInstructions) {
  ProgramBuilder b(2, 3);
  b.step().thread(0, Instr::add(2, 0, 1));
  const std::string s = b.build().to_string();
  EXPECT_NE(s.find("add"), std::string::npos);
  EXPECT_NE(s.find("T0"), std::string::npos);
}

TEST(Program, RejectsDegenerateShapes) {
  EXPECT_THROW(Program(0, 1, {}), std::invalid_argument);
  EXPECT_THROW(Program(1, 0, {}), std::invalid_argument);
  std::vector<Step> bad_width{Step{{Instr::nop(), Instr::nop()}}};
  EXPECT_THROW(Program(1, 1, bad_width), std::invalid_argument);
}

// --- The one EREW pass -------------------------------------------------------

/// validate_erew's message for a one-step program, or "" when it passes.
std::string erew_message(std::size_t nthreads, std::size_t nvars,
                         std::vector<Instr> instrs) {
  try {
    Program::validate_erew(nthreads, nvars, {Step{std::move(instrs)}});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Erew, ValidateErewMessages) {
  EXPECT_EQ(erew_message(2, 4, {Instr::nop()}),
            "PRAM step 0: instruction count != nthreads");
  EXPECT_EQ(erew_message(1, 4, {Instr::copy(1, 9)}),
            "PRAM step 0: read variable v9 out of range (nvars=4)");
  EXPECT_EQ(erew_message(1, 4, {Instr::constant(7, 1)}),
            "PRAM step 0: written variable v7 out of range (nvars=4)");
  EXPECT_EQ(erew_message(2, 4, {Instr::copy(1, 0), Instr::copy(2, 0)}),
            "PRAM step 0: EREW violation, variable v0 read by more than one "
            "thread");
  EXPECT_EQ(erew_message(2, 4, {Instr::constant(3, 1), Instr::constant(3, 2)}),
            "PRAM step 0: EREW violation, variable v3 written by more than "
            "one thread");
  EXPECT_EQ(erew_message(1, 8, {Instr::gather_dyn(0, 1, 2, 3, 4, 0)}),
            "PRAM step 0: gather_dyn segment length is 0");
  EXPECT_EQ(erew_message(1, 8, {Instr::gather_dyn(0, 1, 2, 3, 6, 4)}),
            "PRAM step 0: gather_dyn segment [v6, v10) exceeds nvars=8");
  EXPECT_EQ(erew_message(2, 8, {Instr::gather_dyn(0, 1, 2, 3, 4, 4),
                                Instr::constant(5, 1)}),
            "PRAM step 0: variable v5 written inside gather_dyn segment [v4, "
            "v8)");
  EXPECT_EQ(erew_message(2, 8, {Instr::gather_dyn(0, 1, 2, 3, 4, 4),
                                Instr::copy(5, 1)}),
            "PRAM step 0: EREW violation, variable v1 read by more than one "
            "thread");  // the read comes before the step's segment check
}

/// Keeps everything the pass reports.
struct Recorder final : ErewSink {
  std::vector<ErewViolation> seen;
  std::vector<std::size_t> checked;
  void violation(const ErewViolation& v) override { seen.push_back(v); }
  void step_checked(std::size_t s) override { checked.push_back(s); }
};

std::vector<Step> two_bad_steps() {
  return {Step{{Instr::gather_dyn(2, 0, 1, 3, 4, 4),  // reads v0 v1 v3
                Instr::add(2, 7, 0),                  // v2 again, v0 again
                Instr::constant(5, 1)}},              // inside [v4, v8)
          Step{{Instr::rand_below(1, 10), Instr::copy(3, 9), Instr::nop()}}};
}

TEST(Erew, SinkGetsEveryViolationInOrder) {
  Recorder rec;
  const ErewScan scan = scan_erew(3, 8, two_bad_steps(), &rec);
  EXPECT_EQ(scan.violations, 4u);
  EXPECT_TRUE(scan.nondet);
  EXPECT_TRUE(scan.dyn_gather);
  ASSERT_EQ(rec.seen.size(), 4u);
  auto expect = [&](std::size_t i, ErewRule rule, std::size_t step,
                    std::size_t thread, Operand operand, std::uint32_t var) {
    EXPECT_EQ(rec.seen[i].rule, rule) << i;
    EXPECT_EQ(rec.seen[i].step, step) << i;
    EXPECT_EQ(rec.seen[i].thread, thread) << i;
    EXPECT_EQ(rec.seen[i].operand, operand) << i;
    EXPECT_EQ(rec.seen[i].var, var) << i;
  };
  expect(0, ErewRule::kShared, 0, 1, Operand::kY, 0);
  expect(1, ErewRule::kShared, 0, 1, Operand::kZ, 2);
  expect(2, ErewRule::kSegmentWrite, 0, 2, Operand::kZ, 5);
  EXPECT_EQ(rec.seen[2].seg_base, 4u);
  EXPECT_EQ(rec.seen[2].seg_len, 4u);
  expect(3, ErewRule::kOutOfRange, 1, 1, Operand::kX, 9);
  EXPECT_EQ(rec.checked, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(rec.seen[3].message(8),
            "PRAM step 1: read variable v9 out of range (nvars=8)");
}

TEST(Erew, ConstructorReportsToTheSinkThenThrows) {
  Recorder rec;
  EXPECT_THROW(Program(3, 8, two_bad_steps(), &rec), std::invalid_argument);
  EXPECT_EQ(rec.seen.size(), 4u);
  // A valid program: one pass, every step checked once, nothing reported.
  Recorder ok;
  const Program p(2, 4,
                  {Step{{Instr::constant(0, 1), Instr::coin(1, 0.5)}},
                   Step{{Instr::add(2, 0, 1), Instr::nop()}}},
                  &ok);
  EXPECT_TRUE(ok.seen.empty());
  EXPECT_EQ(ok.checked, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(p.is_nondeterministic());
  EXPECT_FALSE(p.has_dyn_gather());
  EXPECT_EQ(walked(p, 1, 0).x, 0u);
  EXPECT_EQ(p.last_writer_before(1, 0), 0u);
}

// --- Every provenance answer agrees ----------------------------------------

/// The last step before `s` that writes `var`, by scanning the steps
/// backwards: the rule itself, with no index.
std::uint32_t scan_back(const Program& p, std::size_t s, std::uint32_t var) {
  for (std::size_t w = s; w-- > 0;)
    for (const Instr& ins : p.step(w).instrs)
      if (writes_dest(ins.op) && ins.z == var)
        return static_cast<std::uint32_t>(w);
  return kInitial;
}

/// Checks, for every operand of every instruction of `p`, that
/// walk_writers, last_writer_before and scan_back give one answer, and that
/// the walk leaves the operands an op does not read at kInitial.  A
/// gather_dyn's computed read may land anywhere in its segment, so the
/// index must also agree with the scan on every variable of the segment.
/// Returns the number of operands checked.
std::size_t expect_provenance_agrees(const Program& p,
                                     const std::string& what) {
  std::size_t visited = 0, operands = 0;
  p.walk_writers([&](std::size_t s, std::size_t t, const Instr& ins,
                     const OperandWriters& w) {
    ++visited;
    EXPECT_EQ(&ins, &p.step(s).instrs[t]) << what;
    const std::uint32_t vars[] = {ins.x, ins.y, ins.c};
    const std::uint32_t answers[] = {w.x, w.y, w.c};
    const int r = reads_of(ins.op);
    for (int k = 0; k < 3; ++k) {
      if (k >= r) {
        EXPECT_EQ(answers[k], kInitial) << what << " step " << s;
        continue;
      }
      ++operands;
      const std::uint32_t truth = scan_back(p, s, vars[k]);
      ASSERT_EQ(answers[k], truth)
          << what << ": walk, step " << s << " thread " << t << " v"
          << vars[k];
      ASSERT_EQ(p.last_writer_before(s, vars[k]), truth)
          << what << ": index, step " << s << " thread " << t << " v"
          << vars[k];
    }
    if (!reads_dyn_window(ins.op)) return;
    for (std::uint32_t v = dyn_seg_base(ins);
         v < dyn_seg_base(ins) + dyn_seg_len(ins); ++v) {
      ASSERT_EQ(p.last_writer_before(s, v), scan_back(p, s, v))
          << what << ": segment, step " << s << " v" << v;
    }
  });
  EXPECT_EQ(visited, p.nsteps() * p.nthreads()) << what;
  return operands;
}

TEST(WriterIndex, SameStepReadSeesThePreStepWriter) {
  ProgramBuilder b(2, 4);
  b.step().thread(1, Instr::constant(0, 5));  // step 0 writes v0
  b.step()
      .thread(0, Instr::constant(0, 6))       // step 1: thread 0 rewrites v0
      .thread(1, Instr::copy(1, 0));          //   while thread 1 reads it
  b.step().thread(0, Instr::add(2, 0, 3));    // step 2 reads v0 and v3
  const Program p = b.build();
  EXPECT_EQ(walked(p, 1, 1).x, 0u);           // the pre-step writer
  EXPECT_EQ(p.last_writer_before(1, 0), 0u);
  EXPECT_EQ(walked(p, 2, 0).x, 1u);
  EXPECT_EQ(walked(p, 2, 0).y, kInitial);     // v3 is never written
  EXPECT_EQ(p.last_writer_before(2, 3), kInitial);
  EXPECT_EQ(p.last_writer_before(0, 0), kInitial);
  EXPECT_EQ(expect_provenance_agrees(p, "hand-built"), 3u);
}

TEST(WriterIndex, AgreesOnEveryRegistryWorkload) {
  std::size_t programs = 0, operands = 0;
  for (const WorkloadSpec& spec : workload_registry())
    for (const std::size_t n : {std::max<std::size_t>(spec.min_n, 8),
                                std::size_t{16}}) {
      if (!workload_supports_n(spec, n)) continue;
      ++programs;
      operands += expect_provenance_agrees(
          spec.make(n), std::string(spec.name) + " n=" + std::to_string(n));
    }
  EXPECT_GE(programs, workload_registry().size());
  EXPECT_GT(operands, 0u);
}

TEST(WriterIndex, AgreesOnGrammarGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const lang::GeneratedProgram g =
        lang::generate_program({seed, (seed & 1) != 0});
    const lang::CompileResult r = lang::compile_source(g.source);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    expect_provenance_agrees(*r.program, "seed " + std::to_string(seed));
  }
}

// --- Workloads are EREW-valid and have the expected shapes -----------------

TEST(Workloads, ReductionShapeAndValidity) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    Program p = make_reduction(n);
    EXPECT_EQ(p.nthreads(), n);
    EXPECT_EQ(p.nsteps(), 2 * static_cast<std::size_t>(lg(n)));
    EXPECT_FALSE(p.is_nondeterministic());
  }
  EXPECT_THROW(make_reduction(3), std::invalid_argument);
  EXPECT_THROW(make_reduction(1), std::invalid_argument);
}

TEST(Workloads, LubyShape) {
  Program p = make_luby_cycle_round(8, 100);
  EXPECT_EQ(p.nthreads(), 8u);
  EXPECT_TRUE(p.is_nondeterministic());
  EXPECT_THROW(make_luby_cycle_round(2, 10), std::invalid_argument);
}

TEST(Workloads, LeaderElectionShape) {
  Program p = make_leader_election(8, 1000);
  EXPECT_TRUE(p.is_nondeterministic());
  EXPECT_THROW(make_leader_election(6, 10), std::invalid_argument);
}

TEST(Workloads, ConsistencyProbeShape) {
  Program p = make_consistency_probe(4, 6, 100);
  EXPECT_TRUE(p.is_nondeterministic());
  EXPECT_EQ(probe_flag_count(6), 6u);
  EXPECT_THROW(make_consistency_probe(1, 3, 10), std::invalid_argument);
  EXPECT_THROW(make_consistency_probe(4, 0, 10), std::invalid_argument);
}

TEST(Workloads, CoinMatrixShape) {
  Program p = make_coin_matrix(4, 3, 0.5);
  EXPECT_EQ(p.nsteps(), 3u);
  EXPECT_EQ(p.nvars(), 12u);
  EXPECT_TRUE(p.is_nondeterministic());
}

}  // namespace
}  // namespace apex::pram
