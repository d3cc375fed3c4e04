// apexcli — command-line driver for the APEX library.
//
// Lets a user run any piece of the reproduction without writing C++:
//
//   apexcli agree  [--n=64] [--sched=uniform] [--seed=1] [--beta=8]
//       run standalone n-value agreement (Theorem 1 setting); print work,
//       per-property status, and a bin heatmap.
//
//   apexcli exec   [--workload=luby] [--n=8] [--scheme=nondet] [--sched=...]
//                  [--engine=batched|single_step|host]
//       run any REGISTERED PRAM workload (pram::workload_registry(): the
//       regular kernels plus the irregular suite — bfs, merge, spmv, dag)
//       through the execution scheme and verify its final-memory
//       invariants.  --engine=host runs it on the virtualized real-thread
//       executor instead of the simulator: P = n logical processors on
//       --threads OS threads (default: the hardware threads, at most P),
//       --interleave=rr|partition (equal-count or weight-balanced slices;
//       partition takes the workload's reported per-processor weights),
//       --alpha=N clock updates per tick — which is how the large registry
//       instances (n = 64/128, and the graph-scale 1e4/1e5 CSR kernels) run
//       on a laptop.  A run with unrepairable preemption damage is retried on a
//       fresh seed (host::run_until_clean).
//
//   apexcli host   [--threads=4] [--seed=1]
//       run bin-array agreement on real std::threads: a one-step program
//       with P = T = --threads, checked bin by bin at quiescence.
//
//   apexcli sweep  [--n=16,32,64] [--sched=uniform,burst] [--seeds=3]
//                  [--jobs=1] [--beta=8] [--csv]
//       run the Theorem-1 agreement testbed over the full (sched, n, seed)
//       grid on a worker pool (batch::SweepEngine; --jobs=0 = all hardware
//       threads) and print per-config work statistics.  Output is
//       byte-identical for every --jobs value.
//
//   apexcli fuzz   [--trials=500] [--jobs=1] [--seed=1] [--no-shrink]
//                  [--repro-dir=DIR] [--replay=FILE] [--selftest]
//       adversarial scenario fuzzing (src/check): run protocol x
//       fuzzed-schedule x seed trials with the invariant oracles attached,
//       shrink any failure to a minimal scripted-schedule prefix, and
//       (with --repro-dir) dump replayable repro files.  Output is
//       byte-identical for every --jobs value.  --replay re-runs a repro
//       file (exit 0 = failure reproduced); --selftest proves each oracle
//       catches its injected protocol mutation.
//
//   apexcli perfbench [--quick] [--steps=N] [--out=BENCH_core.json]
//       simulator-core microbenchmark: steps/second over the
//       (schedule kind x nprocs x observer on/off x grant engine) grid.
//       `single_step` rows measure the pre-batching reference engine, so
//       the batched/single_step ratio is the engine speedup.  A second
//       grid runs registered PRAM workloads through the full execution
//       scheme (regular vs irregular kernels), so data-dependent
//       throughput is on the trajectory too.  A third grid (`host_rows`)
//       runs the virtualized host executor over T x P configurations —
//       including the P = 64/128 registry scale instances — so the
//       real-thread scaling story is measured, not asserted.  A fourth
//       grid (`graph_rows`) runs the CSR-backed graph kernels at n = 1e4
//       under partition-aware vs round-robin placement; the within-run
//       placement ratio is part of the CI hard gate.  Results are printed
//       as tables and dumped to a JSON file that CI archives as the repo's
//       perf trajectory (soft-gated against the committed baseline).
//
//   apexcli sched
//       list the adversary schedule family.
//
// Exit code 0 = run completed and all checked invariants held.
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/sweep.h"
#include "core/apex.h"
#include "lang/compile.h"
#include "lang/emit.h"
#include "util/cliargs.h"

using namespace apex;

namespace {

/// Strict digits-only parse (util/cliargs): " 5" and "+5" are rejected,
/// matching the "non-negative integer" the message promises.  Usage errors
/// exit 2.
std::uint64_t parse_u64(const char* flag, const std::string& value) {
  const auto v = cli::parse_u64_strict(value);
  if (!v) {
    std::fprintf(stderr, "--%s expects a non-negative integer, got '%s'\n",
                 flag, value.c_str());
    std::exit(2);
  }
  return *v;
}

/// Parsed argv plus typed accessors.  Every token is accounted for:
/// main() validates flags and positionals against the subcommand's
/// declared contract before dispatch, so typos fail loudly (exit 2)
/// instead of silently running with defaults.
struct Args : cli::ParsedArgs {
  static Args parse(int argc, char** argv) {
    return Args{cli::parse_argv(argc, argv)};
  }

  std::uint64_t u64(const char* key, std::uint64_t dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : parse_u64(key, it->second);
  }
  std::string str(const char* key, const char* dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
};

sim::ScheduleKind parse_sched(const std::string& s) {
  for (auto k : sim::all_schedule_kinds())
    if (s == sim::schedule_kind_name(k)) return k;
  std::fprintf(stderr, "unknown schedule '%s'; see `apexcli sched`\n",
               s.c_str());
  std::exit(2);
}

int cmd_agree(const Args& a) {
  agreement::TestbedConfig cfg;
  cfg.n = a.u64("n", 64);
  cfg.beta = a.u64("beta", 8);
  cfg.seed = a.u64("seed", 1);
  cfg.schedule = parse_sched(a.str("sched", "uniform"));
  agreement::AgreementTestbed tb(cfg, agreement::uniform_task(1 << 20),
                                 agreement::uniform_support(1 << 20));
  const std::uint64_t budget =
      static_cast<std::uint64_t>(500.0 * n_logn_loglogn(cfg.n)) + 1'000'000;
  const auto res = tb.run_until_agreement(budget);
  const auto st = tb.checker().check(1);
  std::printf("agreement: n=%zu sched=%s seed=%llu\n", cfg.n,
              sim::schedule_kind_name(cfg.schedule),
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  work          %llu (%.2f x n lg n lglg n)\n",
              static_cast<unsigned long long>(res.work),
              static_cast<double>(res.work) / n_logn_loglogn(cfg.n));
  std::printf("  accessibility %s\n  uniqueness    %s\n  correctness   %s\n",
              st.accessibility ? "yes" : "NO", st.uniqueness ? "yes" : "NO",
              st.correctness ? "yes" : "NO");
  if (cfg.n <= 16)
    std::printf("\nbin heatmap (phase 1):\n%s",
                trace::bin_heatmap(tb.bins(), 1).c_str());
  return res.satisfied && st.all() ? 0 : 1;
}

/// Human-readable description of the n values a workload accepts, assembled
/// from its registry constraints (min_n / pow2 / even) plus the canonical
/// scale instances, so a rejected --n tells the user the whole valid range.
std::string workload_n_range(const pram::WorkloadSpec& spec) {
  std::string s = "n >= " + std::to_string(spec.min_n);
  if (spec.pow2_n) s += ", power of two";
  if (spec.even_n) s += ", even";
  if (!spec.scale_ns.empty()) {
    s += "; registered scale instances:";
    for (const std::size_t sn : spec.scale_ns)
      s += ' ' + std::to_string(sn);
  }
  return s;
}

/// The engine flags both `exec` paths accept.  Host: P = the program's
/// processors on --threads OS threads; partition placement needs the
/// per-processor weights only registry graph workloads report (`spec` is
/// null for a .pram source).  Usage errors exit 2.
host::HostExecConfig host_config(const Args& a, const pram::WorkloadSpec* spec,
                                 std::size_t n) {
  host::HostExecConfig cfg;
  cfg.seed = a.u64("seed", 1);
  cfg.os_threads = a.u64("threads", cfg.os_threads);
  cfg.clock_alpha = static_cast<double>(
      a.u64("alpha", static_cast<std::uint64_t>(cfg.clock_alpha)));
  cfg.timeout_seconds = 300.0;
  cfg.generations = a.u64("generations", cfg.generations);
  if (!host::parse_interleave(a.str("interleave", "rr"), cfg.interleave)) {
    std::fprintf(stderr, "unknown --interleave (rr|partition)\n");
    std::exit(2);
  }
  if (cfg.interleave == host::Interleave::kPartition) {
    if (spec == nullptr || spec->proc_weights == nullptr) {
      std::fprintf(stderr,
                   "--interleave=partition needs per-processor weights, "
                   "which only the registry graph workloads report; use "
                   "rr\n");
      std::exit(2);
    }
    cfg.proc_weights = spec->proc_weights(n);
  }
  return cfg;
}

/// Both substrates split a run's work into clock maintenance, Compute
/// tasks and Copy tasks (a simulator run also charges each processor one
/// halting step, outside the three).
void print_work_split(std::uint64_t clock, std::uint64_t compute,
                      std::uint64_t copy) {
  std::printf("  work split: clock=%llu compute=%llu copy=%llu\n",
              static_cast<unsigned long long>(clock),
              static_cast<unsigned long long>(compute),
              static_cast<unsigned long long>(copy));
}

/// Runs `p` on the engine --engine selects and prints the run.  Returns the
/// final memory of a completed run that can be trusted — host: audit-clean
/// after host::run_until_clean; simulator: consistent with some synchronous
/// execution — or nullopt once the reason there is none is printed.
std::optional<std::vector<pram::Word>> run_engine(
    const Args& a, const pram::Program& p, const pram::WorkloadSpec* spec,
    std::size_t n) {
  const std::string engine = a.str("engine", "batched");
  if (engine == "host") {
    const host::HostExecConfig cfg = host_config(a, spec, n);
    std::printf("  T=%zu interleave=%s alpha=%g\n",
                host::resolve_os_threads(cfg.os_threads, p.nthreads()),
                host::interleave_name(cfg.interleave), cfg.clock_alpha);
    host::HostRun run;
    try {
      run = host::run_until_clean(p, cfg);
    } catch (const std::invalid_argument& e) {
      // A configuration the executor rejects (--generations=1, --alpha=0,
      // a layout past 32-bit plans) is a usage error, not a crash.
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
    const host::HostExecResult& res = run.result;
    std::printf("  completed=%s work=%llu stamp_misses=%llu attempts=%d "
                "lost_commits=%zu repaired_commits=%zu wall=%.3fs\n",
                res.completed ? "yes" : "NO",
                static_cast<unsigned long long>(res.total_work),
                static_cast<unsigned long long>(res.stamp_misses),
                run.attempts, run.lost_commits, run.repaired_commits,
                res.wall_seconds);
    print_work_split(res.clock_work, res.compute_work, res.copy_work);
    if (!res.completed) {
      std::printf("  aborted: %s\n",
                  res.error.empty() ? "timeout" : res.error.c_str());
      return std::nullopt;
    }
    if (res.lost_commits != 0) {
      std::printf("  unrepairable preemption damage on every attempt\n");
      return std::nullopt;
    }
    return res.memory;
  }
  exec::ExecConfig cfg;
  cfg.seed = a.u64("seed", 1);
  cfg.schedule = parse_sched(a.str("sched", "uniform"));
  cfg.engine = engine == "single_step" ? sim::GrantEngine::kSingleStep
                                       : sim::GrantEngine::kBatched;
  const exec::Scheme scheme = a.str("scheme", "nondet") == std::string("det")
                                  ? exec::Scheme::kDeterministic
                                  : exec::Scheme::kNondeterministic;
  std::printf("  scheme=%s sched=%s\n", exec::scheme_name(scheme),
              sim::schedule_kind_name(cfg.schedule));
  const auto chk = exec::run_checked(p, scheme, cfg);
  std::printf("  completed=%s work=%llu incomplete_tasks=%llu "
              "stamp_misses=%llu\n",
              chk.result.completed ? "yes" : "NO",
              static_cast<unsigned long long>(chk.result.total_work),
              static_cast<unsigned long long>(chk.result.incomplete_tasks),
              static_cast<unsigned long long>(chk.result.stamp_misses));
  print_work_split(chk.result.clock_work, chk.result.compute_work,
                   chk.result.copy_work);
  if (!chk.result.completed) {
    std::printf("  did not complete within budget\n");
    return std::nullopt;
  }
  if (!chk.consistency_error.empty()) {
    std::printf("  INCONSISTENT: %s\n", chk.consistency_error.c_str());
    return std::nullopt;
  }
  std::printf("  consistency: ok\n");
  return chk.result.memory;
}

/// `apexcli exec FILE.pram`: compile a kernel-language source through the
/// front-end and run it on the chosen engine (run_engine).  A deterministic
/// program is additionally diffed bit-for-bit against the reference
/// interpreter's replay from zero memory, so `exec` on a .pram file is a
/// full differential run, not just "it didn't crash".
int run_pram_file(const Args& a, const std::string& path) {
  lang::SourceFile src;
  const lang::CompileResult comp = lang::compile_file(path, src);
  if (!comp.ok()) {
    std::fputs(lang::render_diagnostics(src, comp.diagnostics).c_str(),
               stderr);
    return 1;
  }
  const pram::Program& p = *comp.program;
  std::printf("exec: file=%s (%s) procs=%zu vars=%zu steps=%zu engine=%s\n",
              path.c_str(), p.is_nondeterministic() ? "nondet" : "det",
              p.nthreads(), p.nvars(), p.nsteps(),
              a.str("engine", "batched").c_str());
  const auto mem = run_engine(a, p, nullptr, 0);
  if (!mem) return 1;
  if (p.is_nondeterministic()) return 0;
  const auto ref = pram::Interpreter(p).run_deterministic(
      std::vector<pram::Word>(p.nvars(), 0));
  if (*mem != ref.memory) {
    std::printf("  DIVERGED from reference interpreter replay\n");
    return 1;
  }
  std::printf("  interpreter replay: match\n");
  return 0;
}

/// A registry workload built at --n (default 8), for `exec` and `emit`.
struct LoadedWorkload {
  const pram::WorkloadSpec* spec;
  std::size_t n;
  pram::Program program;
};

/// Looks `name` up in the registry and builds it at --n.  An unknown name,
/// an unsupported n, or a factory rejection is a usage error: exit 2 with
/// the valid range.
LoadedWorkload load_workload(const Args& a, const std::string& name) {
  const pram::WorkloadSpec* spec = pram::find_workload(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; have: %s\n", name.c_str(),
                 pram::workload_names().c_str());
    std::exit(2);
  }
  const std::size_t n = a.u64("n", 8);
  if (!pram::workload_supports_n(*spec, n)) {
    std::fprintf(stderr, "workload '%s' does not support n=%zu (valid: %s)\n",
                 name.c_str(), n, workload_n_range(*spec).c_str());
    std::exit(2);
  }
  // Registry-legal n can still be rejected by the factory (e.g. a variable
  // layout whose ids overflow uint32 at extreme n); surface that as a clean
  // diagnostic instead of an uncaught-exception backtrace.
  try {
    return {spec, n, spec->make(n)};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload '%s' rejected n=%zu: %s (valid: %s)\n",
                 name.c_str(), n, e.what(), workload_n_range(*spec).c_str());
    std::exit(2);
  }
}

int cmd_exec(const Args& a) {
  if (!a.positional.empty()) {
    if (a.kv.count("workload") || a.kv.count("n")) {
      std::fprintf(stderr, "exec takes either a .pram file or a registry "
                           "--workload/--n, not both\n");
      return 2;
    }
    return run_pram_file(a, a.positional[0]);
  }
  const LoadedWorkload w = load_workload(a, a.str("workload", "luby"));
  std::printf("exec: workload=%s (%s%s) n=%zu steps=%zu engine=%s\n",
              w.spec->name, w.spec->deterministic ? "det" : "nondet",
              w.spec->irregular ? ", irregular" : "", w.n, w.program.nsteps(),
              a.str("engine", "batched").c_str());
  const auto mem = run_engine(a, w.program, w.spec, w.n);
  if (!mem) return 1;
  const std::string verdict = w.spec->check(w.n, *mem);
  if (!verdict.empty()) {
    std::printf("  INVARIANT VIOLATION: %s\n", verdict.c_str());
    return 1;
  }
  std::printf("  invariants: ok\n");
  return 0;
}

/// `apexcli compile FILE.pram`: run the front-end only.  On success the
/// validated program's IR dump (pram::Program::to_string) goes to stdout —
/// CI diffs this against committed goldens for every in-tree kernel.  On
/// failure the file:line:col caret diagnostics go to stderr and the exit
/// code is 1; usage errors (no file) exit 2.
int cmd_compile(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "compile: expected a .pram source file\n"
                         "run 'apexcli' with no arguments for usage\n");
    return 2;
  }
  lang::SourceFile src;
  const lang::CompileResult comp = lang::compile_file(a.positional[0], src);
  if (!comp.ok()) {
    std::fputs(lang::render_diagnostics(src, comp.diagnostics).c_str(),
               stderr);
    return 1;
  }
  std::fputs(comp.program->to_string().c_str(), stdout);
  return 0;
}

/// `apexcli emit --workload=NAME --n=N`: render a registry kernel as
/// canonical .pram source (lang::emit_pram) on stdout; the round-trip test
/// pins compile(emit(p)) == p bit-for-bit.
int cmd_emit(const Args& a) {
  const std::string wl = a.str("workload", "");
  if (wl.empty()) {
    std::fprintf(stderr, "emit: --workload=NAME is required (have: %s)\n",
                 pram::workload_names().c_str());
    return 2;
  }
  const LoadedWorkload w = load_workload(a, wl);
  const std::string n = std::to_string(w.n);
  const std::string comment =
      "registry kernel '" + wl + "' at n=" + n +
      ", rendered by the canonical emitter.\nRegenerate with: apexcli emit "
      "--workload=" + wl + " --n=" + n;
  std::fputs(lang::emit_pram(w.program, wl + "_n" + n, comment).c_str(),
             stdout);
  return 0;
}

/// `apexcli host`: standalone bin-array agreement on real threads, as a
/// one-step program on the host executor — P = T = --threads processors,
/// each drawing one rand_below(1000) value.  Exit 0 only if the run
/// completed, is audit-clean, and every bin agreed on its committed value
/// (HostExecutor::agreed_values, the Theorem 1 check at quiescence).
int cmd_host(const Args& a) {
  const std::size_t procs = a.u64("threads", 4);
  if (procs == 0) {
    std::fprintf(stderr, "host: --threads must be >= 1\n");
    return 2;
  }
  pram::ProgramBuilder b(procs, procs);
  b.step().all([](std::size_t i) {
    return pram::Instr::rand_below(static_cast<std::uint32_t>(i), 1000);
  });
  const pram::Program p = b.build();
  host::HostExecConfig cfg;
  cfg.os_threads = procs;
  cfg.seed = a.u64("seed", 1);
  host::HostExecutor ex(p, cfg);
  const host::HostExecResult res = ex.run();
  const auto agreed = ex.agreed_values(0);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < procs; ++i)
    ok += res.completed && agreed[i] == res.memory[i];
  std::printf("host agreement: procs=%zu threads=%zu completed=%s "
              "lost_commits=%zu agreed=%zu/%zu work=%llu wall=%.3fs\n",
              procs, ex.os_threads(), res.completed ? "yes" : "NO",
              res.lost_commits, ok, procs,
              static_cast<unsigned long long>(res.total_work),
              res.wall_seconds);
  if (!res.completed)
    std::printf("  aborted: %s\n",
                res.error.empty() ? "timeout" : res.error.c_str());
  return res.completed && res.lost_commits == 0 && ok == procs ? 0 : 1;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    const auto end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int cmd_sweep(const Args& a) {
  struct Point {
    sim::ScheduleKind kind;
    std::size_t n;
  };
  std::vector<Point> grid;
  for (const auto& sched : split_csv(a.str("sched", "uniform")))
    for (const auto& n : split_csv(a.str("n", "16,32,64"))) {
      const auto nv = static_cast<std::size_t>(parse_u64("n", n));
      if (nv == 0) {
        std::fprintf(stderr, "sweep: --n values must be >= 1\n");
        return 2;
      }
      grid.push_back({parse_sched(sched), nv});
    }
  if (grid.empty()) {
    std::fprintf(stderr, "sweep: empty grid (check --n and --sched)\n");
    return 2;
  }
  const int seeds = std::max<int>(1, static_cast<int>(a.u64("seeds", 3)));
  const std::size_t beta = a.u64("beta", 8);
  const std::size_t jobs = a.u64("jobs", 1);

  batch::SweepSpec spec;
  spec.trials = grid.size() * static_cast<std::size_t>(seeds);
  spec.jobs = jobs;
  std::vector<batch::GroupStats> groups;
  try {
    groups = batch::SweepEngine().run_grouped(
      spec,
      [&](std::size_t i) {
        batch::TrialResult r;
        const Point& pt = grid[i / static_cast<std::size_t>(seeds)];
        agreement::TestbedConfig cfg;
        cfg.n = pt.n;
        cfg.beta = beta;
        cfg.seed = 1 + i % static_cast<std::size_t>(seeds);
        cfg.schedule = pt.kind;
        agreement::AgreementTestbed tb(cfg, agreement::uniform_task(1 << 20),
                                       agreement::uniform_support(1 << 20));
        const std::uint64_t budget =
            static_cast<std::uint64_t>(500.0 * n_logn_loglogn(pt.n)) +
            1'000'000;
        const auto res = tb.run_until_agreement(budget);
        if (!res.satisfied) {
          r.ok = false;
          return r;
        }
        r.sample("work", static_cast<double>(res.work));
        return r;
      },
      static_cast<std::size_t>(seeds));
  } catch (const batch::SweepError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  Table t({"sched", "n", "runs", "satisfied", "work_mean", "work_ci95",
           "work_min", "work_max", "work/nlglglg"});
  bool all_ok = true;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto& group = groups[g];
    const auto& work = group.sample("work");
    if (!group.all_ok()) all_ok = false;
    t.row()
        .cell(sim::schedule_kind_name(grid[g].kind))
        .cell(static_cast<std::uint64_t>(grid[g].n))
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(static_cast<std::uint64_t>(group.trials() - group.failed()))
        .cell(work.mean(), 0)
        .cell(work.ci95(), 0)
        .cell(work.min(), 0)
        .cell(work.max(), 0)
        .cell(work.count() ? work.mean() / n_logn_loglogn(grid[g].n) : 0.0, 2);
  }
  if (a.kv.count("csv")) t.print_csv(std::cout);
  else t.print(std::cout);
  return all_ok ? 0 : 1;
}

int cmd_sched() {
  std::printf("adversary schedules:\n");
  for (auto k : sim::all_schedule_kinds())
    std::printf("  %s\n", sim::schedule_kind_name(k));
  return 0;
}

// ---- perfbench -------------------------------------------------------------

/// The measured workload: a nonterminating three-step cycle (write, read,
/// local) on the processor's own cell.  Minimal protocol-side cost, so the
/// measurement isolates the simulator's per-grant overhead.
sim::ProcTask perf_proc(sim::Ctx& ctx, std::size_t slot) {
  for (sim::Word i = 0;; ++i) {
    co_await ctx.write(slot, i, i);
    co_await ctx.read(slot);
    co_await ctx.local();
  }
}

/// Cheap chained observer for the observer=on rows: forces the instrumented
/// grant path and consumes each event.  Span-native, so the batched engine's
/// deferred delivery is one virtual call per batch; the single_step engine
/// still lands on on_step per event.
struct PerfObserver final : sim::StepObserver {
  std::uint64_t writes = 0;
  void on_step(const sim::StepEvent& ev) override {
    writes += ev.op.kind == sim::Op::Kind::Write;
  }
  void on_steps(std::span<const sim::StepEvent> evs) override {
    std::uint64_t w = 0;
    for (const sim::StepEvent& ev : evs)
      w += ev.op.kind == sim::Op::Kind::Write;
    writes += w;
  }
};

struct PerfRow {
  const char* sched;
  std::size_t n;
  bool observer;
  const char* engine;
  std::uint64_t steps;
  double seconds;
  double steps_per_sec;
};

PerfRow run_perf_config(sim::ScheduleKind kind, std::size_t n, bool observer,
                        sim::GrantEngine engine, std::uint64_t steps,
                        int reps) {
  sim::SimConfig sc;
  sc.nprocs = n;
  sc.memory_words = n;
  sc.seed = 1;
  sc.engine = engine;
  apex::SeedTree seeds{sc.seed};
  sim::Simulator s(sc, sim::make_schedule(kind, n, seeds.schedule()));
  for (std::size_t p = 0; p < n; ++p)
    s.spawn([p](sim::Ctx& ctx) { return perf_proc(ctx, p); });
  PerfObserver obs;
  if (observer) s.add_observer(&obs);

  // Best-of-reps: the fastest repetition is the least noise-contaminated
  // estimate of the engine's cost on a shared machine.
  s.run(std::min<std::uint64_t>(steps / 4, 100'000));  // warmup
  double secs = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    s.run(steps);
    const auto t1 = std::chrono::steady_clock::now();
    const double d = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || d < secs) secs = d;
  }

  PerfRow r;
  r.sched = sim::schedule_kind_name(kind);
  r.n = n;
  r.observer = observer;
  r.engine = engine == sim::GrantEngine::kBatched ? "batched" : "single_step";
  r.steps = steps;
  r.seconds = secs;
  r.steps_per_sec = secs > 0 ? static_cast<double>(steps) / secs : 0.0;
  return r;
}

/// End-to-end workload throughput: run a registered PRAM workload through
/// the full execution scheme (nondeterministic, batched engine) and report
/// simulator work units per second.  The regular rows (prefix) anchor the
/// comparison; the irregular rows (bfs/merge/spmv/dag) put data-dependent
/// control flow and computed-index gathers on the measured trajectory.
struct WorkloadPerfRow {
  const char* workload;
  std::size_t n;
  bool completed;
  bool ok;             ///< Invariants held on the final memory.
  std::uint64_t work;
  double seconds;
  double work_per_sec;
};

WorkloadPerfRow run_workload_perf(const char* name, std::size_t n, int reps) {
  const pram::WorkloadSpec* spec = pram::find_workload(name);
  const pram::Program p = spec->make(n);
  WorkloadPerfRow r{name, n, true, true, 0, 0.0, 0.0};
  for (int rep = 0; rep < reps; ++rep) {
    exec::ExecConfig cfg;
    cfg.seed = 1 + static_cast<std::uint64_t>(rep);
    exec::Executor ex(p, exec::Scheme::kNondeterministic, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = ex.run(exec::Executor::default_budget(p));
    const auto t1 = std::chrono::steady_clock::now();
    const double d = std::chrono::duration<double>(t1 - t0).count();
    r.completed &= res.completed;
    r.ok &= res.completed && spec->check(n, res.memory).empty();
    if (rep == 0 || d < r.seconds) {
      r.seconds = d;
      r.work = res.total_work;
    }
  }
  r.work_per_sec =
      r.seconds > 0 ? static_cast<double>(r.work) / r.seconds : 0.0;
  return r;
}

/// Host-substrate throughput: a registered workload through the virtualized
/// HostExecutor (P = n logical processors on T OS threads; the graph kernels
/// put n vertices on P = min(n, 4096)), run through host::run_until_clean
/// and the workload's check, best-of-reps wall clock on seeds seed, seed+1,
/// ...  Two grids land in BENCH_core.json: `host_rows`, the registry
/// instances up to the P = 64/128 scale ones, and `graph_rows`, each CSR
/// kernel at n = 1e4 under partition AND rr placement in the same
/// invocation, so the rows carry a machine-relative within-run ratio
/// (partition / rr work-per-sec) that CI hard-gates alongside the engine
/// ratios.
struct HostPerfPoint {
  const char* workload;
  std::size_t n;
  std::size_t threads;  ///< T.
  host::Interleave il;
  double alpha;
  std::size_t generations;
};

struct HostPerfRow {
  HostPerfPoint pt;
  bool completed;
  bool ok;
  std::uint64_t work;
  std::size_t lost;
  std::size_t repaired;
  double seconds;
  double work_per_sec;
};

HostPerfRow run_host_perf(const HostPerfPoint& pt, std::uint64_t seed,
                          int reps) {
  const pram::WorkloadSpec* spec = pram::find_workload(pt.workload);
  const pram::Program p = spec->make(pt.n);
  HostPerfRow r{pt, true, true, 0, 0, 0, 0.0, 0.0};
  host::HostExecConfig cfg;
  cfg.os_threads = pt.threads;
  cfg.interleave = pt.il;
  cfg.clock_alpha = pt.alpha;
  cfg.generations = pt.generations;
  cfg.timeout_seconds = 600.0;
  if (pt.il == host::Interleave::kPartition && spec->proc_weights != nullptr)
    cfg.proc_weights = spec->proc_weights(pt.n);
  bool timed = false;
  for (int rep = 0; rep < reps; ++rep) {
    cfg.seed = seed + static_cast<std::uint64_t>(rep);
    // Detected preemption damage is counted on the row, but an untrusted
    // attempt may neither win the best-of-reps slot nor latch the row
    // not-ok: run_until_clean retries it.
    const host::HostRun run = host::run_until_clean(p, cfg);
    const host::HostExecResult& res = run.result;
    r.completed &= res.completed;
    r.lost += run.lost_commits;
    r.repaired += run.repaired_commits;
    if (!res.completed || res.lost_commits != 0) {
      r.ok = false;
      continue;
    }
    r.ok &= spec->check(pt.n, res.memory).empty();
    if (!timed || res.wall_seconds < r.seconds) {
      r.seconds = res.wall_seconds;
      r.work = res.total_work;
      timed = true;
    }
  }
  r.work_per_sec =
      r.seconds > 0 ? static_cast<double>(r.work) / r.seconds : 0.0;
  return r;
}

int cmd_perfbench(const Args& a) {
  const bool quick = a.kv.count("quick") != 0;
  const std::uint64_t steps =
      a.u64("steps", quick ? 1'000'000 : 4'000'000);
  const std::uint64_t reps_arg = a.u64("reps", 3);
  const std::string out_path = a.str("out", "BENCH_core.json");
  // Zero steps or reps would measure nothing and still write rows that
  // read as passed runs.
  if (steps == 0 || reps_arg == 0 || reps_arg > INT_MAX) {
    std::fprintf(stderr, "apexcli perfbench: --steps and --reps must be "
                         "positive (--reps at most %d)\n", INT_MAX);
    return 2;
  }
  const int reps = static_cast<int>(reps_arg);

  std::vector<sim::ScheduleKind> kinds = {sim::ScheduleKind::kRoundRobin,
                                          sim::ScheduleKind::kUniformRandom};
  std::vector<std::size_t> ns = {4, 64};
  if (!quick) {
    kinds.push_back(sim::ScheduleKind::kBurst);
    kinds.push_back(sim::ScheduleKind::kPowerLaw);
    ns = {4, 16, 64, 256};
  }

  std::vector<PerfRow> rows;
  for (auto kind : kinds)
    for (auto n : ns)
      for (bool observer : {false, true})
        for (auto engine :
             {sim::GrantEngine::kBatched, sim::GrantEngine::kSingleStep})
          rows.push_back(
              run_perf_config(kind, n, observer, engine, steps, reps));

  // Workload rows: full-scheme throughput, regular vs irregular kernels.
  // Quick mode keeps one regular anchor plus one irregular (gather-heavy)
  // config so the CI perf smoke tracks data-dependent throughput too.  Both
  // grids end with dag n=64, the instance wallbench's sim_dag_n64 runs.
  std::vector<std::pair<const char*, std::size_t>> wl_grid = {
      {"prefix", 8}, {"spmv", 8}, {"dag", 64}};
  if (!quick)
    wl_grid = {{"prefix", 8},  {"prefix", 16}, {"bfs", 8},  {"bfs", 16},
               {"merge", 8},   {"merge", 16},  {"spmv", 8}, {"spmv", 16},
               {"dag", 8},     {"dag", 16},    {"dag", 64}};
  std::vector<WorkloadPerfRow> wl_rows;
  for (const auto& [name, n] : wl_grid)
    wl_rows.push_back(run_workload_perf(name, n, reps));

  // Host rows: the virtualized executor's T x P grid.  The committed
  // host_pre_virtualization block keeps the one-thread-per-processor
  // shape's numbers; the P = 64 rows are the scaling configurations that
  // shape never ran.
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const auto kRR = host::Interleave::kRoundRobin;
  std::vector<HostPerfPoint> host_grid = {
      {"prefix", 8, std::min<std::size_t>(hw, 8), kRR, 4096.0, 4},
      {"spmv", 64, 2, kRR, 48.0, 4},
  };
  if (!quick) {
    host_grid.push_back({"bfs", 64, 2, kRR, 48.0, 4});
    host_grid.push_back({"dag", 64, 2, kRR, 48.0, 4});
    host_grid.push_back({"spmv", 128, 4, kRR, 48.0, 4});
    host_grid.push_back({"bfs", 128, 4, kRR, 48.0, 4});
  }
  std::vector<HostPerfRow> host_rows;
  for (const auto& pt : host_grid)
    host_rows.push_back(run_host_perf(pt, 1, reps));

  // Graph-scale rows: each CSR kernel at n = 1e4 under partition-aware
  // placement vs round-robin (the within-run ratio CI hard-gates), one run
  // each at the virtualized graph operating point (alpha = 32, G = 6).
  std::vector<HostPerfRow> graph_rows;
  for (const char* gname : {"bfs", "spmv"})
    for (auto il : {host::Interleave::kPartition, kRR})
      graph_rows.push_back(
          run_host_perf({gname, 10'000, 2, il, 32.0, 6}, 41, 1));

  Table t({"sched", "n", "observer", "engine", "steps", "sec", "steps/sec"});
  for (const auto& r : rows)
    t.row()
        .cell(r.sched)
        .cell(static_cast<std::uint64_t>(r.n))
        .cell(r.observer ? "on" : "off")
        .cell(r.engine)
        .cell(r.steps)
        .cell(r.seconds, 3)
        .cell(r.steps_per_sec, 0);
  Table wt({"workload", "n", "completed", "invariants", "work", "sec",
            "work/sec"});
  for (const auto& r : wl_rows)
    wt.row()
        .cell(r.workload)
        .cell(static_cast<std::uint64_t>(r.n))
        .cell(r.completed ? "yes" : "NO")
        .cell(r.ok ? "ok" : "VIOLATED")
        .cell(r.work)
        .cell(r.seconds, 3)
        .cell(r.work_per_sec, 0);
  const auto host_table = [](const std::vector<HostPerfRow>& hrows) {
    Table t({"workload", "n", "T", "policy", "alpha", "completed",
             "invariants", "lost", "repaired", "work", "sec", "work/sec"});
    for (const auto& r : hrows)
      t.row()
          .cell(r.pt.workload)
          .cell(static_cast<std::uint64_t>(r.pt.n))
          .cell(static_cast<std::uint64_t>(r.pt.threads))
          .cell(host::interleave_name(r.pt.il))
          .cell(r.pt.alpha, 0)
          .cell(r.completed ? "yes" : "NO")
          .cell(r.ok ? "ok" : "VIOLATED")
          .cell(static_cast<std::uint64_t>(r.lost))
          .cell(static_cast<std::uint64_t>(r.repaired))
          .cell(r.work)
          .cell(r.seconds, 3)
          .cell(r.work_per_sec, 0);
    return t;
  };
  const Table ht = host_table(host_rows);
  const Table gt = host_table(graph_rows);
  if (a.kv.count("csv")) {
    t.print_csv(std::cout);
    wt.print_csv(std::cout);
    ht.print_csv(std::cout);
    gt.print_csv(std::cout);
  } else {
    t.print(std::cout);
    std::printf("\nworkload throughput (full scheme, nondet, batched):\n");
    wt.print(std::cout);
    std::printf("\nhost throughput (virtualized executor, P procs on T "
                "threads):\n");
    ht.print(std::cout);
    std::printf("\ngraph-scale throughput (CSR kernels, P=min(n,4096) on "
                "T=2 threads, alpha=32):\n");
    gt.print(std::cout);
  }
  for (const auto& b : graph_rows) {
    if (b.pt.il != host::Interleave::kPartition) continue;
    for (const auto& s : graph_rows)
      if (std::string(s.pt.workload) == b.pt.workload && s.pt.n == b.pt.n &&
          s.pt.il == kRR && s.work_per_sec > 0)
        std::printf("graph %s n=%zu: partition/rr placement ratio %.2fx\n",
                    b.pt.workload, b.pt.n, b.work_per_sec / s.work_per_sec);
  }

  // Engine speedup on the headline configuration (round_robin, observer
  // off): min over n, so the claim holds at every measured size.  NOTE:
  // the in-tree single_step reference shares the reworked awaiter/Ctx
  // architecture and is itself substantially faster than the genuine
  // pre-refactor engine — the committed BENCH_core.json carries the
  // pre-refactor numbers (measured against the parent commit) alongside.
  double speedup_min = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& b = rows[i];
    if (std::string(b.sched) != "round_robin" || b.observer ||
        std::string(b.engine) != "batched")
      continue;
    for (const auto& s : rows) {
      if (std::string(s.sched) == "round_robin" && !s.observer && s.n == b.n &&
          std::string(s.engine) == "single_step" && s.steps_per_sec > 0) {
        const double sp = b.steps_per_sec / s.steps_per_sec;
        speedup_min = speedup_min == 0.0 ? sp : std::min(speedup_min, sp);
      }
    }
  }
  std::printf("\nbatched vs single_step reference (round_robin, no observer, "
              "min over n): %.2fx\n", speedup_min);

  // Instrumented-path ratios (round_robin, min over n).  The first is the
  // observer-batching headline: batched deferred span delivery vs the
  // single_step engine's per-step instrumented delivery (the genuine
  // pre-batching observation path).  The second bounds what instrumentation
  // costs relative to the uninstrumented fast path on the same engine.
  double instr_speedup_min = 0.0;
  double instr_overhead_min = 0.0;
  for (const auto& b : rows) {
    if (std::string(b.sched) != "round_robin" || !b.observer ||
        std::string(b.engine) != "batched")
      continue;
    for (const auto& s : rows) {
      if (std::string(s.sched) != "round_robin" || s.n != b.n) continue;
      if (s.observer && std::string(s.engine) == "single_step" &&
          s.steps_per_sec > 0) {
        const double sp = b.steps_per_sec / s.steps_per_sec;
        instr_speedup_min =
            instr_speedup_min == 0.0 ? sp : std::min(instr_speedup_min, sp);
      }
      if (!s.observer && std::string(s.engine) == "batched" &&
          s.steps_per_sec > 0) {
        const double ov = b.steps_per_sec / s.steps_per_sec;
        instr_overhead_min =
            instr_overhead_min == 0.0 ? ov : std::min(instr_overhead_min, ov);
      }
    }
  }
  std::printf("instrumented batched vs single_step per-step delivery "
              "(round_robin, observer on, min over n): %.2fx\n",
              instr_speedup_min);
  std::printf("instrumented vs no-observer on the batched engine "
              "(round_robin, min over n): %.2fx\n", instr_overhead_min);

  // Fuzz throughput: a pinned corpus slice through the full trial stack
  // (testbed construction, oracles on the instrumented path, verdicts).
  // Single job so the number tracks per-core trial cost, not parallelism.
  const std::size_t fuzz_trials = quick ? 10 : 40;
  double fuzz_secs = 0.0;
  std::size_t fuzz_failures = 0;
  {
    check::FuzzConfig fc;
    fc.trials = fuzz_trials;
    fc.seed = 1;
    fc.jobs = 1;
    fc.shrink = false;
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = check::run_fuzz(fc);
    const auto t1 = std::chrono::steady_clock::now();
    fuzz_secs = std::chrono::duration<double>(t1 - t0).count();
    fuzz_failures = rep.failures.size();
  }
  const double fuzz_tps =
      fuzz_secs > 0 ? static_cast<double>(fuzz_trials) / fuzz_secs : 0.0;
  std::printf("fuzz throughput: %zu trials in %.2fs = %.2f trials/sec "
              "(%zu failures)\n",
              fuzz_trials, fuzz_secs, fuzz_tps, fuzz_failures);

  // The committed BENCH_core.json carries hand-added provenance blocks
  // ("pre_refactor": the genuine pre-batching engine measured from the
  // parent commit of PR 3; "host_pre_virtualization": the one-thread-per-
  // processor host executor measured from the parent commit of the
  // virtualization PR; "pre_observer_batching": the per-step observer
  // delivery path measured from the parent commit of the observer-batching
  // PR; "host_pre_fast_exits": the graph rows of the host executor before
  // its full-bin and committed-slot exits; "pre_flat_exec": the workload
  // rows of the exec driver that awaited its sub-procedures as nested
  // SubTasks).  Rewriting the file must not destroy them: lift each block
  // out of any existing file and splice it back into the fresh output.
  std::vector<std::string> kept_blocks;
  {
    std::ifstream prev(out_path);
    if (prev) {
      std::string text((std::istreambuf_iterator<char>(prev)),
                       std::istreambuf_iterator<char>());
      for (const char* keyname :
           {"pre_refactor", "host_pre_virtualization", "pre_observer_batching",
            "host_pre_fast_exits", "pre_flat_exec"}) {
        const auto key = text.find('"' + std::string(keyname) + '"');
        const auto open = text.find('{', key);
        if (key == std::string::npos || open == std::string::npos) continue;
        // Balanced-brace scan that skips JSON string literals, so braces
        // inside the block's "note" text cannot truncate the extraction.
        int depth = 0;
        bool in_string = false;
        for (std::size_t i = open; i < text.size(); ++i) {
          const char c = text[i];
          if (in_string) {
            if (c == '\\') ++i;
            else if (c == '"') in_string = false;
            continue;
          }
          if (c == '"') in_string = true;
          else if (c == '{') ++depth;
          else if (c == '}' && --depth == 0) {
            kept_blocks.push_back(text.substr(key, i + 1 - key));
            break;
          }
        }
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n  \"bench\": \"apex_core_steps_per_sec\",\n  \"version\": 1,\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"steps_per_run\": " << steps << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", speedup_min);
  out << "  \"speedup_round_robin_no_observer_vs_single_step\": " << buf
      << ",\n";
  std::snprintf(buf, sizeof buf, "%.3f", instr_speedup_min);
  out << "  \"speedup_round_robin_observer_vs_single_step\": " << buf
      << ",\n";
  std::snprintf(buf, sizeof buf, "%.3f", instr_overhead_min);
  out << "  \"instrumented_over_no_observer_batched\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.3f", fuzz_tps);
  out << "  \"fuzz\": {\"trials\": " << fuzz_trials << ", \"seed\": 1, "
      << "\"jobs\": 1, \"failures\": " << fuzz_failures
      << ", \"trials_per_sec\": " << buf << "},\n";
  for (const auto& block : kept_blocks) out << "  " << block << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::snprintf(buf, sizeof buf, "%.1f", r.steps_per_sec);
    out << "    {\"sched\": \"" << r.sched << "\", \"n\": " << r.n
        << ", \"observer\": " << (r.observer ? "true" : "false")
        << ", \"engine\": \"" << r.engine << "\", \"steps\": " << r.steps
        << ", \"steps_per_sec\": " << buf << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"workload_rows\": [\n";
  for (std::size_t i = 0; i < wl_rows.size(); ++i) {
    const auto& r = wl_rows[i];
    std::snprintf(buf, sizeof buf, "%.1f", r.work_per_sec);
    out << "    {\"workload\": \"" << r.workload << "\", \"n\": " << r.n
        << ", \"completed\": " << (r.completed ? "true" : "false")
        << ", \"invariants_ok\": " << (r.ok ? "true" : "false")
        << ", \"work\": " << r.work << ", \"work_per_sec\": " << buf << "}"
        << (i + 1 < wl_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  const auto write_host_rows = [&](const char* key,
                                  const std::vector<HostPerfRow>& hrows) {
    out << "  \"" << key << "\": [\n";
    for (std::size_t i = 0; i < hrows.size(); ++i) {
      const auto& r = hrows[i];
      std::snprintf(buf, sizeof buf, "%.1f", r.work_per_sec);
      out << "    {\"workload\": \"" << r.pt.workload << "\", \"n\": "
          << r.pt.n << ", \"threads\": " << r.pt.threads
          << ", \"policy\": \"" << host::interleave_name(r.pt.il)
          << "\", \"alpha\": " << r.pt.alpha
          << ", \"completed\": " << (r.completed ? "true" : "false")
          << ", \"invariants_ok\": " << (r.ok ? "true" : "false")
          << ", \"lost_commits\": " << r.lost
          << ", \"repaired_commits\": " << r.repaired
          << ", \"work\": " << r.work << ", \"work_per_sec\": " << buf
          << "}" << (i + 1 < hrows.size() ? "," : "") << "\n";
    }
    out << "  ]";
  };
  write_host_rows("host_rows", host_rows);
  out << ",\n";
  write_host_rows("graph_rows", graph_rows);
  out << "\n}\n";
  std::printf("wrote %s (%zu core + %zu workload + %zu host + %zu graph "
              "configs)\n",
              out_path.c_str(), rows.size(), wl_rows.size(),
              host_rows.size(), graph_rows.size());
  return 0;
}

int cmd_fuzz(const Args& a) {
  if (a.kv.count("selftest")) {
    const auto cases = check::run_selftest();
    Table t({"mutation", "oracle", "caught", "baseline_clean"});
    for (const auto& c : cases)
      t.row()
          .cell(check::mutation_name(c.mutation))
          .cell(c.expected_oracle)
          .cell(c.caught ? "yes" : "NO")
          .cell(c.clean_baseline ? "yes" : "NO");
    t.print(std::cout);
    for (const auto& c : cases)
      if (!c.caught || !c.clean_baseline)
        std::printf("FAIL %s: %s\n", check::mutation_name(c.mutation),
                    c.detail.c_str());
    const bool ok = check::selftest_ok(cases);
    std::printf("oracle self-test: %s (%zu mutations)\n",
                ok ? "all mutations caught" : "NOT all mutations caught",
                cases.size());
    return ok ? 0 : 1;
  }

  check::FuzzConfig cfg;
  cfg.skew_ticks = a.u64("skew", 2);
  cfg.clobber_bound = static_cast<std::uint32_t>(a.u64("clobber-bound", 0));

  if (a.kv.count("replay")) {
    check::Repro repro;
    try {
      repro = check::load_repro(a.str("replay", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    const auto out = check::replay_repro(repro, cfg);
    std::printf("replay: protocol=%s n=%zu seed=%llu budget=%llu "
                "script=%zu grants\n",
                check::fuzz_protocol_name(repro.protocol), repro.n,
                static_cast<unsigned long long>(repro.seed),
                static_cast<unsigned long long>(repro.budget),
                repro.script.size());
    if (out.failed)
      std::printf("  outcome: FAILED %s: %s\n", out.oracle.c_str(),
                  out.message.c_str());
    else
      std::printf("  outcome: clean (no oracle fired)\n");
    const bool reproduced = out.failed && out.oracle == repro.oracle;
    std::printf("  expected oracle '%s' %s\n", repro.oracle.c_str(),
                reproduced ? "reproduced" : "did NOT reproduce");
    return reproduced ? 0 : 1;
  }

  cfg.trials = a.u64("trials", 500);
  cfg.jobs = a.u64("jobs", 1);
  cfg.seed = a.u64("seed", 1);
  cfg.shrink = !a.kv.count("no-shrink");
  cfg.repro_dir = a.str("repro-dir", "");
  cfg.grammar_only = a.kv.count("grammar") != 0;

  const auto rep = check::run_fuzz(cfg);
  if (cfg.grammar_only)
    std::printf("fuzz: %zu trials (grammar-generated programs x fuzzed "
                "oblivious schedules), seed=%llu\n",
                rep.trials, static_cast<unsigned long long>(cfg.seed));
  else
    std::printf("fuzz: %zu trials (agreement+consensus+workload+grammar x "
                "fuzzed oblivious schedules), seed=%llu\n",
                rep.trials, static_cast<unsigned long long>(cfg.seed));
  for (const auto& f : rep.failures) {
    std::printf("FAILURE trial=%zu protocol=%s%s%s n=%zu seed=%llu oracle=%s\n",
                f.trial, check::fuzz_protocol_name(f.protocol),
                f.workload.empty() ? "" : " workload=",
                f.workload.c_str(), f.n,
                static_cast<unsigned long long>(f.seed), f.oracle.c_str());
    std::printf("  %s\n", f.message.c_str());
    if (!f.schedule.empty())
      std::printf("  schedule: %.200s\n", f.schedule.c_str());
    if (!f.repro_script.empty())
      std::printf("  shrunk to %zu-grant scripted prefix\n",
                  f.repro_script.size());
    if (!f.repro_path.empty())
      std::printf("  repro: %s\n", f.repro_path.c_str());
  }
  std::printf("fuzz verdict: %s (%zu failures)\n",
              rep.ok() ? "PASS — all invariants held" : "FAIL",
              rep.failures.size());
  return rep.ok() ? 0 : 1;
}

/// Per-subcommand contract: the exact flag set it accepts plus how many
/// positional arguments it takes.  main() rejects anything outside the
/// contract with exit 2 before dispatch — the strict-argument guarantee
/// the regression tests pin.
struct CmdContract {
  const char* name;
  std::vector<std::string> flags;
  std::size_t max_positional;
};

const std::vector<CmdContract>& command_contracts() {
  static const std::vector<CmdContract> kContracts = {
      {"agree", {"n", "sched", "seed", "beta"}, 0},
      {"exec",
       {"workload", "n", "scheme", "sched", "seed", "engine", "threads",
        "interleave", "alpha", "generations"},
       1},  // the optional positional is a .pram source file
      {"compile", {}, 1},
      {"emit", {"workload", "n"}, 0},
      {"host", {"threads", "seed"}, 0},
      {"sweep", {"n", "sched", "seeds", "jobs", "beta", "csv"}, 0},
      {"fuzz",
       {"trials", "jobs", "seed", "no-shrink", "repro-dir", "replay",
        "selftest", "skew", "clobber-bound", "grammar"},
       0},
      {"perfbench", {"quick", "steps", "reps", "out", "csv"}, 0},
      {"sched", {}, 0},
  };
  return kContracts;
}

int usage(const std::string& cmd) {
  std::printf(
      "usage: apexcli "
      "<agree|exec|compile|emit|host|sweep|fuzz|perfbench|sched> "
      "[--key=value ...]\n"
      "  agree --n=64 --sched=uniform --seed=1 --beta=8\n"
      "  exec  --workload=NAME --n=8 --scheme=nondet|det --sched=uniform\n"
      "        --seed=1 --engine=batched|single_step|host\n"
      "        (host engine: --threads=T --interleave=rr|partition\n"
      "         --alpha=N --generations=G; T=0 = hardware threads, at\n"
      "         most P; partition uses the workload's reported\n"
      "         per-processor weights)\n"
      "        (workloads: %s)\n"
      "  exec  FILE.pram [--engine=...] [--sched=...] [--seed=1]\n"
      "        compile a kernel-language source and run it (deterministic\n"
      "        programs are diffed against the reference interpreter)\n"
      "  compile FILE.pram     front-end only: IR dump to stdout, or\n"
      "        file:line:col diagnostics to stderr (exit 1)\n"
      "  emit  --workload=NAME --n=8   render a registry kernel as .pram\n"
      "  host  --threads=4 --seed=1\n"
      "  sweep --n=16,32,64 --sched=uniform,burst --seeds=3 --jobs=1 --beta=8\n"
      "        [--csv]\n"
      "  fuzz  --trials=500 --jobs=1 --seed=1 [--no-shrink] [--grammar]\n"
      "        [--repro-dir=DIR] [--replay=FILE] [--selftest]\n"
      "  perfbench [--quick] [--steps=N] [--out=BENCH_core.json] [--csv]\n"
      "  sched\n",
      pram::workload_names().c_str());
  return cmd.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Args::parse(argc, argv);
  const CmdContract* contract = nullptr;
  for (const auto& c : command_contracts())
    if (a.cmd == c.name) contract = &c;
  if (contract == nullptr) {
    if (!a.cmd.empty())
      std::fprintf(stderr, "apexcli: unknown subcommand '%s'\n",
                   a.cmd.c_str());
    return usage(a.cmd);
  }
  const std::string err =
      cli::validate_args(a, contract->flags, contract->max_positional);
  if (!err.empty()) {
    std::fprintf(stderr, "apexcli: %s\n", err.c_str());
    std::fprintf(stderr, "run 'apexcli' with no arguments for usage\n");
    return 2;
  }
  if (a.cmd == "agree") return cmd_agree(a);
  if (a.cmd == "exec") return cmd_exec(a);
  if (a.cmd == "compile") return cmd_compile(a);
  if (a.cmd == "emit") return cmd_emit(a);
  if (a.cmd == "host") return cmd_host(a);
  if (a.cmd == "sweep") return cmd_sweep(a);
  if (a.cmd == "fuzz") return cmd_fuzz(a);
  if (a.cmd == "perfbench") return cmd_perfbench(a);
  return cmd_sched();
}
