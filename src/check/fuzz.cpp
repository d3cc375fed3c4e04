#include "check/fuzz.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "agreement/testbed.h"
#include "batch/sweep.h"
#include "consensus/scan_consensus.h"
#include "exec/executor.h"
#include "lang/compile.h"
#include "lang/gen.h"
#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex::check {

namespace {

constexpr std::uint64_t kTrialTag = 0xF0221A6;
constexpr sim::Word kSupportMax = 1 << 20;

/// Grants between stop-predicate polls: small enough that shrink traces end
/// close to the violation, large enough not to dominate wall time.
constexpr std::uint64_t kPollInterval = 16;

std::unique_ptr<sim::Schedule> build_adversary(const TrialSpec& spec,
                                               std::size_t nprocs,
                                               apex::Rng rng) {
  if (spec.script != nullptr)
    return std::make_unique<sim::ScriptedSchedule>(
        nprocs, *spec.script, sim::ScriptExhaust::kRoundRobin);
  if (spec.fuzzed)
    return std::make_unique<FuzzedSchedule>(nprocs, spec.seed);
  return sim::make_schedule(spec.kind, nprocs, rng);
}

/// The trial's adversary, captured as the run builds it: the fuzzed
/// schedule (for its description) and, when recording, the
/// RecordingSchedule wrapped around it.
struct Adversary {
  const TrialSpec& spec;
  bool record;
  FuzzedSchedule* fz = nullptr;
  RecordingSchedule* rec = nullptr;

  std::unique_ptr<sim::Schedule> make(std::size_t nprocs, apex::Rng rng) {
    auto inner = build_adversary(spec, nprocs, rng);
    if (spec.script == nullptr && spec.fuzzed)
      fz = static_cast<FuzzedSchedule*>(inner.get());
    if (!record) return inner;
    auto wrapped = std::make_unique<RecordingSchedule>(std::move(inner));
    rec = wrapped.get();
    return wrapped;
  }

  /// For configs that take a schedule factory.
  auto factory() {
    return [this](std::size_t nprocs, apex::Rng rng) {
      return make(nprocs, rng);
    };
  }

  /// Copy the schedule description and the executed grant trace into
  /// `out`.  The batched engine may have drawn grants it never executed;
  /// the executed interleaving is exactly the first ticks() entries.
  void report(TrialOutcome& out, const sim::Simulator& sim) const {
    if (fz != nullptr) out.schedule_desc = fz->describe();
    if (rec != nullptr) {
      out.trace = rec->trace();
      const auto executed = static_cast<std::size_t>(sim.ticks());
      if (out.trace.size() > executed) out.trace.resize(executed);
    }
  }
};

void fail(TrialOutcome& out, std::string oracle, std::string message) {
  out.failed = true;
  out.oracle = std::move(oracle);
  out.message = std::move(message);
}

void report_oracles(const OracleSet& set, TrialOutcome& out) {
  if (const Oracle* o = set.first_failing())
    fail(out, o->name(), o->failures().front());
}

/// Run a bare protocol trial to its budget, stopping early once an oracle
/// fails.
void run_protocol(sim::Simulator& sim, OracleSet& set, std::uint64_t budget,
                  TrialOutcome& out) {
  try {
    sim.run(budget, [&] { return set.failed(); }, kPollInterval);
    set.finish(sim);
    report_oracles(set, out);
  } catch (const std::exception& e) {
    fail(out, "exception", e.what());
  }
}

TrialOutcome run_agreement_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                                 bool record) {
  TrialOutcome out;
  Adversary adv{spec, record};

  agreement::TestbedConfig tc;
  tc.n = spec.n;
  tc.beta = spec.beta;
  tc.seed = spec.seed;
  tc.engine = spec.engine;
  tc.schedule_factory = adv.factory();
  agreement::AgreementTestbed tb(tc, agreement::uniform_task(kSupportMax),
                                 agreement::uniform_support(kSupportMax));

  WorkAccountingOracle work;
  ClockOracle clock(tb.clock(), spec.n, cfg.skew_ticks);
  BinArrayOracle bins(tb.bins(), agreement::uniform_support(kSupportMax));
  ClobberOracle clobbers(tb.bins(), tb.clock(), cfg.clobber_bound);
  OracleSet set;
  set.add(&work);
  set.add(&clock);
  set.add(&bins);
  set.add(&clobbers);
  tb.attach(static_cast<sim::StepObserver*>(&set));
  tb.attach(static_cast<agreement::AgreementObserver*>(&set));

  run_protocol(tb.simulator(), set, spec.budget, out);
  adv.report(out, tb.simulator());
  return out;
}

TrialOutcome run_consensus_trial(const TrialSpec& spec,
                                 [[maybe_unused]] const FuzzConfig& cfg,
                                 bool record) {
  TrialOutcome out;
  Adversary adv{spec, record};

  apex::SeedTree seeds{spec.seed};
  consensus::ScanConfig sc;
  sc.n = spec.n;
  sc.seed = spec.seed;
  sc.engine = spec.engine;
  consensus::ScanConsensus scan(sc, agreement::uniform_task(kSupportMax),
                                adv.make(spec.n, seeds.schedule()));

  WorkAccountingOracle work;
  ConsensusOracle cons(scan);
  OracleSet set;
  set.add(&work);
  set.add(&cons);
  scan.simulator().add_observer(&set);

  run_protocol(scan.simulator(), set, spec.budget, out);
  adv.report(out, scan.simulator());
  return out;
}

/// Judges an exec run the scheme itself reports clean (completed, no
/// incomplete tasks) and records any finding in the outcome.
using CleanVerdict =
    std::function<void(const exec::ExecResult&, TrialOutcome&)>;

/// One program through the full execution scheme with the four oracles
/// attached.  An adversary may legitimately stall completion within the
/// budget, and the scheme's own w.h.p. failure mode — a subphase ending
/// with unfinished tasks under an extreme schedule — is self-reported via
/// incomplete_tasks (the monitor's audit).  `clean_verdict` asserts the
/// UNCONDITIONAL end-to-end part of the contract on the remaining runs.
TrialOutcome run_exec_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                            bool record, const pram::Program& prog,
                            sim::GrantEngine engine,
                            const CleanVerdict& clean_verdict) {
  TrialOutcome out;
  Adversary adv{spec, record};
  exec::ExecConfig ec;
  ec.seed = spec.seed;
  ec.engine = engine;
  ec.schedule_factory = adv.factory();
  exec::Executor ex(prog, exec::Scheme::kNondeterministic, ec);

  const std::size_t n = prog.nthreads();
  WorkAccountingOracle work;
  ClockOracle clock(ex.clock(), n, cfg.skew_ticks);
  // The agreed values are whole-program data, not a fixed per-bin support,
  // so the bin oracle's support predicate is permissive here; its stamp and
  // copy-forward provenance checks (the hard Fig. 2 invariants) stay live.
  BinArrayOracle bins(*ex.bins(), [](std::size_t, sim::Word) { return true; });
  // The Lemma-1 cap is calibrated per phase on the single-phase agreement
  // corpus; a program run takes the max over HUNDREDS of phases (bfs at
  // n=8: ~460), so the legitimate extreme-value tail sits higher.  Measured
  // over a 120-seed fuzzed corpus: worst 74 (bfs n=8), 62 (bfs n=6), <=41
  // for merge/spmv/dag, against single-phase caps of 52.  Doubling the cap
  // keeps >=40% two-sided margin while a stamp-refresh mutation floods
  // ~alpha*lg(n) = 72 per phase in EVERY phase of the run.
  ClobberOracle clobbers(*ex.bins(), ex.clock(),
                         cfg.clobber_bound != 0
                             ? cfg.clobber_bound
                             : 2 * ClobberOracle::default_bound(n));
  OracleSet set;
  set.add(&work);
  set.add(&clock);
  set.add(&bins);
  set.add(&clobbers);
  ex.simulator().add_observer(&set);
  ex.set_agreement_observer(&set);

  try {
    const std::uint64_t budget =
        spec.budget != 0 ? spec.budget : exec::Executor::default_budget(prog);
    const auto res = ex.run(budget);
    set.finish(ex.simulator());
    report_oracles(set, out);
    if (!out.failed && res.completed && res.incomplete_tasks == 0)
      clean_verdict(res, out);
  } catch (const std::exception& e) {
    fail(out, "exception", e.what());
  }
  adv.report(out, ex.simulator());
  return out;
}

TrialOutcome run_workload_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                                bool record) {
  const pram::WorkloadSpec* wl = pram::find_workload(spec.workload);
  if (wl == nullptr) {
    TrialOutcome out;
    fail(out, "exception", "unknown workload '" + spec.workload + "'");
    return out;
  }
  const pram::Program prog = wl->make(spec.n);
  // A clean run must be consistent with some valid synchronous execution
  // and satisfy the workload's invariants.
  return run_exec_trial(
      spec, cfg, record, prog, spec.engine,
      [&](const exec::ExecResult& res, TrialOutcome& out) {
        const std::string cons = pram::check_execution_consistency(
            prog, std::vector<pram::Word>(prog.nvars(), 0), res.produced,
            res.memory);
        if (!cons.empty()) {
          fail(out, "workload_consistency", cons);
          return;
        }
        const std::string verdict = wl->check(spec.n, res.memory);
        if (!verdict.empty()) fail(out, "workload_invariant", verdict);
      });
}

/// Everything a kGrammar trial derives from its seed alone: the generated
/// source, whether nondeterministic ops were allowed, and which grant
/// engine runs it.  Deriving from the SEED (not the trial index) keeps
/// repro files self-contained — replaying a dumped seed regenerates the
/// identical program on the identical engine.
struct GrammarDraw {
  lang::GeneratedProgram gen;
  bool deterministic = false;
  sim::GrantEngine engine = sim::GrantEngine::kBatched;
};

GrammarDraw draw_grammar(std::uint64_t seed) {
  GrammarDraw d;
  d.deterministic = (seed & 1) != 0;
  d.engine = ((seed >> 1) & 1) != 0 ? sim::GrantEngine::kSingleStep
                                    : sim::GrantEngine::kBatched;
  d.gen = lang::generate_program({seed, d.deterministic});
  return d;
}

TrialOutcome run_grammar_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                               bool record) {
  const GrammarDraw draw = draw_grammar(spec.seed);

  // The whole language front-end is under test: generated source must
  // compile cleanly (the generator is EREW-valid by construction), so a
  // diagnostic here is a front-end or generator bug, not a bad input.
  const lang::CompileResult comp = lang::compile_source(draw.gen.source);
  if (!comp.ok()) {
    TrialOutcome out;
    fail(out, "grammar_compile",
         lang::render_diagnostics(draw.gen.source, comp.diagnostics));
    return out;
  }
  const pram::Program& prog = *comp.program;
  // Differential oracles: a clean run must be consistent with some valid
  // synchronous execution, and a deterministic program's final memory must
  // match the reference interpreter bit-for-bit.
  return run_exec_trial(
      spec, cfg, record, prog, draw.engine,
      [&](const exec::ExecResult& res, TrialOutcome& out) {
        const std::vector<pram::Word> zeros(prog.nvars(), 0);
        const std::string cons = pram::check_execution_consistency(
            prog, zeros, res.produced, res.memory);
        if (!cons.empty()) {
          fail(out, "grammar_consistency", cons);
        } else if (!prog.is_nondeterministic()) {
          const auto ref = pram::Interpreter(prog).run_deterministic(zeros);
          if (ref.memory != res.memory)
            fail(out, "grammar_determinism",
                 "deterministic generated program diverged from the "
                 "reference interpreter (seed " +
                     std::to_string(spec.seed) + ")");
        }
      });
}

/// Shrink: find the shortest grant-trace prefix that still trips the same
/// oracle, by binary search over the prefix length (replays are cheap and
/// fully deterministic, so ~log2(trace) re-runs).
void shrink_failure(const FuzzConfig& cfg, FuzzFailure& f) {
  TrialSpec ts = make_trial_spec(cfg, f.trial);
  const TrialOutcome recorded = run_trial(ts, cfg, /*record=*/true);
  if (!recorded.failed || recorded.trace.empty()) return;

  std::vector<std::size_t> prefix;
  auto fails_with = [&](std::size_t len) {
    prefix.assign(recorded.trace.begin(),
                  recorded.trace.begin() +
                      static_cast<std::ptrdiff_t>(len));
    TrialSpec rs = ts;
    rs.fuzzed = false;
    rs.script = &prefix;
    const TrialOutcome o = run_trial(rs, cfg, false);
    return o.failed && o.oracle == f.oracle;
  };

  std::size_t hi = recorded.trace.size();
  if (!fails_with(hi)) {
    // Should not happen (replay is exact); keep the full trace as repro.
    f.repro_script = recorded.trace;
    return;
  }
  std::size_t lo = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails_with(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  prefix.assign(recorded.trace.begin(),
                recorded.trace.begin() + static_cast<std::ptrdiff_t>(hi));
  f.repro_script = std::move(prefix);
}

}  // namespace

const char* fuzz_protocol_name(FuzzProtocol p) noexcept {
  switch (p) {
    case FuzzProtocol::kAgreement: return "agreement";
    case FuzzProtocol::kConsensus: return "consensus";
    case FuzzProtocol::kWorkload: return "workload";
    case FuzzProtocol::kGrammar: return "grammar";
  }
  return "?";
}

const std::vector<const char*>& fuzz_workload_pool() {
  static const std::vector<const char*> kPool = {"bfs", "merge", "spmv",
                                                 "dag"};
  return kPool;
}

TrialOutcome run_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                       bool record) {
  try {
    switch (spec.protocol) {
      case FuzzProtocol::kAgreement:
        return run_agreement_trial(spec, cfg, record);
      case FuzzProtocol::kConsensus:
        return run_consensus_trial(spec, cfg, record);
      case FuzzProtocol::kWorkload:
        return run_workload_trial(spec, cfg, record);
      case FuzzProtocol::kGrammar:
        return run_grammar_trial(spec, cfg, record);
    }
    throw std::logic_error("run_trial: unknown protocol");
  } catch (const std::exception& e) {
    // Construction-time failures (bad config) — still a finding.
    TrialOutcome out;
    fail(out, "exception", e.what());
    return out;
  }
}

TrialSpec make_trial_spec(const FuzzConfig& cfg, std::size_t i) {
  apex::Rng rng(apex::mix64(apex::mix64(cfg.seed, kTrialTag), i));
  TrialSpec ts;
  ts.fuzzed = true;
  ts.seed = rng.next();
  if (cfg.grammar_only || i % 8 == 6) {
    // Grammar-generated programs through the language front-end and the
    // full execution scheme.  Everything else about the trial (the program
    // text, det/nondet, grant engine) is derived from ts.seed inside
    // run_grammar_trial, so repro files stay self-contained.
    ts.protocol = FuzzProtocol::kGrammar;
    const GrammarDraw draw = draw_grammar(ts.seed);
    ts.n = draw.gen.nthreads;
    const lang::CompileResult comp = lang::compile_source(draw.gen.source);
    // A generator/compiler bug surfaces as the grammar_compile finding when
    // the trial runs; budget 1 here just keeps the spec well-formed.
    ts.budget = comp.ok() ? exec::Executor::default_budget(*comp.program) : 1;
    return ts;
  }
  if (i % 4 == 1) {
    ts.protocol = FuzzProtocol::kConsensus;
    static constexpr std::size_t kNs[] = {3, 4, 6, 8};
    ts.n = kNs[rng.below(4)];
    ts.budget =
        2000 + 800 * static_cast<std::uint64_t>(ts.n) * ts.n;
  } else if (i % 4 == 3) {
    // The irregular PRAM suite through the full execution scheme.  n >= 6
    // for the same clobber-cap reason as the agreement trials (the scheme
    // runs the identical protocol underneath); merge needs a power of two.
    ts.protocol = FuzzProtocol::kWorkload;
    const auto& pool = fuzz_workload_pool();
    ts.workload = pool[rng.below(pool.size())];
    ts.n = ts.workload == std::string("merge") ? 8 : (rng.below(2) ? 6 : 8);
    if (i % 64 == 19) {
      // Rare LARGE-n trial: a registry scale_ns instance through the
      // simulated scheme (n = 64 costs ~1-2 s with oracles attached, so
      // one trial in 64 keeps the soak budget).  spmv is the gather-heavy
      // pick — the computed-index path is where large n stresses the
      // writer-table discipline hardest.
      ts.workload = "spmv";
      ts.n = 64;
    }
    const pram::WorkloadSpec* wl = pram::find_workload(ts.workload);
    ts.budget = exec::Executor::default_budget(wl->make(ts.n));
  } else {
    ts.protocol = FuzzProtocol::kAgreement;
    // n >= 6: at n=4 the clock has 4 slots, lost updates stretch phases and
    // the legitimate clobber tail closes to within ~1 of the stale-stamp
    // flood — no sound cap separates them.  Tiny n stays covered by the
    // consensus trials.
    static constexpr std::size_t kNs[] = {6, 8, 12, 16};
    ts.n = kNs[rng.below(4)];
    ts.budget = 20000 + 4000 * static_cast<std::uint64_t>(ts.n);
  }
  return ts;
}

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  FuzzReport rep;
  rep.trials = cfg.trials;
  std::vector<std::unique_ptr<FuzzFailure>> slots(cfg.trials);

  batch::SweepSpec spec;
  spec.trials = cfg.trials;
  spec.jobs = cfg.jobs;
  spec.keep_going = true;
  batch::SweepEngine().run(spec, [&](std::size_t i) {
    const TrialSpec ts = make_trial_spec(cfg, i);
    const TrialOutcome out = run_trial(ts, cfg, false);
    batch::TrialResult r;
    if (out.failed) {
      auto f = std::make_unique<FuzzFailure>();
      f->trial = i;
      f->seed = ts.seed;
      f->protocol = ts.protocol;
      f->n = ts.n;
      f->budget = ts.budget;
      f->workload = ts.workload;
      f->oracle = out.oracle;
      f->message = out.message;
      f->schedule = out.schedule_desc;
      slots[i] = std::move(f);
      r.ok = false;
    }
    return r;
  });

  bool repro_dir_ready = false;
  for (auto& slot : slots) {
    if (!slot) continue;
    if (cfg.shrink) shrink_failure(cfg, *slot);
    if (!cfg.repro_dir.empty()) {
      Repro r;
      r.protocol = slot->protocol;
      r.n = slot->n;
      r.workload = slot->workload;
      r.seed = slot->seed;
      r.budget = slot->budget;
      r.skew_ticks = cfg.skew_ticks;
      r.clobber_bound = cfg.clobber_bound;
      r.oracle = slot->oracle;
      r.script = slot->repro_script;
      const std::string path = cfg.repro_dir + "/repro-trial" +
                               std::to_string(slot->trial) + ".txt";
      // A dump problem must never lose the report itself — note it on the
      // failure and carry on.
      try {
        if (!repro_dir_ready) {
          std::filesystem::create_directories(cfg.repro_dir);
          repro_dir_ready = true;
        }
        write_repro(path, r);
        slot->repro_path = path;
      } catch (const std::exception& e) {
        slot->message += " [repro not written: " + std::string(e.what()) +
                         "]";
      }
    }
    rep.failures.push_back(std::move(*slot));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

void write_repro(const std::string& path, const Repro& r) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_repro: cannot open " + path);
  out << "apex-fuzz-repro v1\n";
  out << "protocol " << fuzz_protocol_name(r.protocol) << "\n";
  if (!r.workload.empty()) out << "workload " << r.workload << "\n";
  out << "n " << r.n << "\n";
  out << "beta " << r.beta << "\n";
  out << "seed " << r.seed << "\n";
  out << "budget " << r.budget << "\n";
  out << "skew " << r.skew_ticks << "\n";
  out << "clobber_bound " << r.clobber_bound << "\n";
  out << "oracle " << r.oracle << "\n";
  out << "script";
  for (auto p : r.script) out << ' ' << p;
  out << "\n";
}

Repro load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_repro: cannot open " + path);
  std::string header;
  std::getline(in, header);
  if (header != "apex-fuzz-repro v1")
    throw std::runtime_error("load_repro: bad header in " + path);
  Repro r;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "protocol") {
      std::string v;
      ls >> v;
      if (v == "agreement")
        r.protocol = FuzzProtocol::kAgreement;
      else if (v == "consensus")
        r.protocol = FuzzProtocol::kConsensus;
      else if (v == "workload")
        r.protocol = FuzzProtocol::kWorkload;
      else if (v == "grammar")
        r.protocol = FuzzProtocol::kGrammar;
      else
        throw std::runtime_error("load_repro: unknown protocol " + v);
    } else if (key == "workload") {
      ls >> r.workload;
    } else if (key == "n") {
      ls >> r.n;
    } else if (key == "beta") {
      ls >> r.beta;
    } else if (key == "seed") {
      ls >> r.seed;
    } else if (key == "budget") {
      ls >> r.budget;
    } else if (key == "skew") {
      ls >> r.skew_ticks;
    } else if (key == "clobber_bound") {
      ls >> r.clobber_bound;
    } else if (key == "oracle") {
      ls >> r.oracle;
    } else if (key == "script") {
      std::size_t p;
      while (ls >> p) r.script.push_back(p);
    } else if (!key.empty()) {
      throw std::runtime_error("load_repro: unknown key " + key);
    }
  }
  if (r.n == 0 || r.budget == 0)
    throw std::runtime_error("load_repro: incomplete repro " + path);
  return r;
}

TrialOutcome replay_repro(const Repro& r, const FuzzConfig& cfg) {
  FuzzConfig replay_cfg = cfg;
  replay_cfg.skew_ticks = r.skew_ticks;
  replay_cfg.clobber_bound = r.clobber_bound;
  TrialSpec ts;
  ts.protocol = r.protocol;
  ts.n = r.n;
  ts.workload = r.workload;
  ts.beta = r.beta;
  ts.seed = r.seed;
  ts.budget = r.budget;
  if (r.script.empty())
    ts.fuzzed = true;
  else
    ts.script = &r.script;
  return run_trial(ts, replay_cfg, false);
}

}  // namespace apex::check
