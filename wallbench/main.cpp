// wallbench: wall time from a workload's input to a VERIFIED result.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//   wallbench --selfcheck [--seed <n>]
//
// An attempt takes a workload from its input (a registry name and n, or
// .pram source text) through build or compile with validation, executor
// construction, the run (host audit and repair included) and the verdict.
// An attempt that does not verify (incomplete, inconsistent, invariant
// violated, timed out, unrepairable lost commits) is counted as failed and
// retried on a fresh seed; the verified result's time includes every attempt
// it took.  Each layer is timed from outside, around calls into its public
// API (spans.h).  --trace 0 reports the end-to-end metrics with tracing off;
// --trace 1 alternates untraced and traced attempts and reports the
// per-layer metrics, including the exec work split (work_split.h), and
// writes the spans as Chrome trace-event JSON.
//
// Before measuring, every run self-checks its workload on a small instance:
// one flipped word of a verified final memory must be rejected, and (host)
// an attempt with lost commits must be counted as failed and retried.
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics.  Exit status: 0 correct, 1 not correct, 2 bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "host/host_executor.h"
#include "lang/compile.h"
#include "lang/emit.h"
#include "pram/interp.h"
#include "pram/workloads.h"
#include "util/math.h"
#include "util/rng.h"

#include "spans.h"
#include "work_split.h"

namespace wallbench {
namespace {

namespace exec = apex::exec;
namespace host = apex::host;
namespace lang = apex::lang;
namespace pram = apex::pram;

constexpr const char* kSimDag = "sim_dag_n64";
constexpr const char* kHostSpmv = "host_spmv_n1e4";
constexpr const char* kLangGraph = "lang_graph_n1e4";

/// The committed BENCH_core.json graph_rows work of spmv n=1e4 under
/// partition placement (T=2, alpha=32, G=6): the provenance anchor for
/// host_spmv_n1e4, which runs the same operating point.
constexpr double kBenchCoreSpmvWork = 2959321806.0;

/// Attempts one verified result may take before the run is declared broken.
constexpr int kMaxAttemptsPerResult = 4;
/// Set-up samples: every attempt's, topped up with set-up-only repetitions
/// at the end of the run to at least kSetupSamples.
constexpr std::size_t kSetupSamples = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"verified_s", "s"},
    {"setup_s", "s"},
    {"work", "steps"},
    {"verified_share", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"lang.compile_s", "s"},
    {"lang.source_mb_per_s", "MB/s"},
    {"pram.build_s", "s"},
    {"graph.weights_s", "s"},
    {"pram.interp_s", "s"},
    {"pram.consistency_s", "s"},
    {"pram.verdict_s", "s"},
    {"exec.ctor_s", "s"},
    {"exec.run_s", "s"},
    {"exec.work_per_s", "steps/s"},
    {"exec.stamp_misses", "count"},
    {"exec.incomplete_tasks", "count"},
    {"exec.work_over_bound", "ratio"},
    {"host.ctor_s", "s"},
    {"host.threads_s", "s"},
    {"host.audit_s", "s"},
    {"host.work_per_s", "steps/s"},
    {"host.work_over_bound", "ratio"},
    {"host.stamp_misses", "count"},
    {"host.lost_commits", "count"},
    {"host.repaired_commits", "count"},
    {"host.attempts", "count"},
    {"clock.read_steps", "steps"},
    {"clock.update_steps", "steps"},
    {"agreement.bin_steps", "steps"},
    {"agreement.cycles", "count"},
    {"agreement.eval_cycles", "count"},
    {"agreement.write_cycles", "count"},
    {"exec.operand_reads", "steps"},
    {"exec.copy_commits", "steps"},
    {"exec.redundant_commits", "steps"},
    {"exec.commit_useful_ratio", "ratio"},
    {"sim.local_steps", "steps"},
    {"trace.overhead_s", "s"},
};

struct Attempt {
  bool verified = false;
  bool traced = false;
  std::string failure;  ///< Why the attempt did not verify (it is retried).
  std::string error;    ///< A benchmark fault: the run is not correct.
  double seconds = 0.0; ///< Input -> verdict.
  double setup_s = 0.0; ///< Input -> executor (or interpreter) ready.
  std::uint64_t work = 0;
  std::map<std::string, double> layer;  ///< Per-layer values.
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The paper's work bound T·P·lg P·lglg P, with the repo's lg/lglg.
double work_bound(const pram::Program& p) {
  return static_cast<double>(p.nsteps()) * apex::n_logn_loglogn(p.nthreads());
}

const pram::WorkloadSpec& registry(const char* name) {
  const pram::WorkloadSpec* spec = pram::find_workload(name);
  if (spec == nullptr)
    throw std::runtime_error(std::string("registry has no workload ") + name);
  return *spec;
}

/// The output variable a verifier checks, for flipping: spmv's y[i] or
/// bfs's dist[i].
std::uint32_t output_var(const pram::WorkloadSpec& spec, std::size_t n,
                         std::size_t i) {
  return std::string(spec.name) == "bfs" ? pram::bfs_dist_var(n, i)
                                         : pram::spmv_y_var(n, i);
}

/// One workload: set-up (input -> ready to run) and finish (run -> verdict)
/// make an attempt.  State lives in members between the two calls and is
/// dropped by release(), outside the timed attempt.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed input generation shared by every attempt.
  virtual void prepare() {}
  virtual void setup(std::uint64_t seed, Spans& spans, Attempt& a) = 0;
  /// `traced` attaches the layer's observers (exec work split).
  virtual void finish(Spans& spans, bool traced, Attempt& a) = 0;
  virtual void release() = 0;
  /// Flips one word of the last verified attempt's final memory; returns an
  /// empty string iff the workload's verifier rejects every flipped result.
  virtual std::string flipped_word_rejected(apex::Rng& rng) = 0;
};

// ---- sim_dag_n64 -------------------------------------------------------------

class SimDag final : public Workload {
 public:
  explicit SimDag(std::size_t n) : n_(n) {}

  void setup(std::uint64_t seed, Spans& sp, Attempt& a) override {
    a.layer["pram.build_s"] = sp.child("pram.build", [&] {
      spec_ = &registry("dag");
      prog_.emplace(spec_->make(n_));
    });
    exec::ExecConfig cfg;
    cfg.seed = seed;
    a.layer["exec.ctor_s"] = sp.child("exec.ctor", [&] {
      ex_ = std::make_unique<exec::Executor>(
          *prog_, exec::Scheme::kNondeterministic, cfg);
    });
    a.layer["graph.weights_s"] = 0.0;  // dag has no per-processor weights.
    a.setup_s = a.layer["pram.build_s"] + a.layer["exec.ctor_s"];
  }

  void finish(Spans& sp, bool traced, Attempt& a) override {
    std::optional<WorkSplit> split;
    if (traced) {
      split.emplace(ex_->clock(), *ex_->bins());
      ex_->simulator().add_observer(&*split);
      ex_->set_agreement_observer(&*split);
    }
    exec::ExecResult res;
    const double run_s = sp.child("exec.run", [&] {
      res = ex_->run(exec::Executor::default_budget(*prog_));
    });
    if (split) {
      ex_->simulator().remove_observer(&*split);
      ex_->set_agreement_observer(nullptr);
    }
    a.work = res.total_work;
    a.layer["exec.run_s"] = run_s;
    a.layer["exec.work_per_s"] = static_cast<double>(res.total_work) / run_s;
    a.layer["exec.stamp_misses"] = static_cast<double>(res.stamp_misses);
    a.layer["exec.incomplete_tasks"] =
        static_cast<double>(res.incomplete_tasks);
    a.layer["exec.work_over_bound"] =
        static_cast<double>(res.total_work) / work_bound(*prog_);
    if (split) record_split(*split, res.total_work, a);
    if (!res.completed) {
      a.failure = "did not complete within the work budget";
      return;
    }
    if (res.incomplete_tasks != 0) {
      a.failure = std::to_string(res.incomplete_tasks) + " incomplete tasks";
      return;
    }
    produced_ = std::move(res.produced);
    memory_ = std::move(res.memory);
    std::string why;
    a.layer["pram.consistency_s"] = sp.child("pram.consistency", [&] {
      why = consistency(memory_);
    });
    a.layer["pram.verdict_s"] = sp.child("pram.verdict", [&] {
      if (why.empty()) why = spec_->check(n_, memory_);
    });
    a.failure = why;
    a.verified = why.empty();
  }

  void release() override {
    ex_.reset();
    prog_.reset();
  }

  std::string flipped_word_rejected(apex::Rng& rng) override {
    std::vector<pram::Word> mem = memory_;
    prog_.emplace(spec_->make(n_));
    const std::size_t i = rng.below(mem.size());
    mem[i] ^= 1;
    const bool rejected =
        !consistency(mem).empty() || !spec_->check(n_, mem).empty();
    prog_.reset();
    return rejected ? "" : "dag: flipped word " + std::to_string(i) +
                               " passed the consistency oracle and check";
  }

 private:
  std::string consistency(const std::vector<pram::Word>& mem) const {
    return pram::check_execution_consistency(
        *prog_, std::vector<pram::Word>(prog_->nvars(), 0), produced_, mem);
  }

  static void record_split(const WorkSplit& s, std::uint64_t total_work,
                           Attempt& a) {
    if (s.total() != total_work) {
      a.error = "work split sums to " + std::to_string(s.total()) +
                ", total_work is " + std::to_string(total_work);
      return;
    }
    auto& l = a.layer;
    l["clock.read_steps"] = static_cast<double>(s.clock_reads);
    l["clock.update_steps"] = static_cast<double>(s.clock_writes);
    l["agreement.bin_steps"] = static_cast<double>(s.bin_steps);
    l["agreement.cycles"] = static_cast<double>(s.cycles);
    l["agreement.eval_cycles"] = static_cast<double>(s.eval_cycles);
    l["agreement.write_cycles"] = static_cast<double>(s.write_cycles);
    l["exec.operand_reads"] = static_cast<double>(s.slot_reads);
    l["exec.copy_commits"] = static_cast<double>(s.slot_writes);
    l["exec.redundant_commits"] = static_cast<double>(s.redundant_writes);
    l["exec.commit_useful_ratio"] =
        s.slot_writes == 0
            ? 0.0
            : static_cast<double>(s.slot_writes - s.redundant_writes) /
                  static_cast<double>(s.slot_writes);
    l["sim.local_steps"] = static_cast<double>(s.local_steps);
  }

  std::size_t n_;
  const pram::WorkloadSpec* spec_ = nullptr;
  std::optional<pram::Program> prog_;
  std::unique_ptr<exec::Executor> ex_;
  std::vector<std::vector<pram::Word>> produced_;
  std::vector<pram::Word> memory_;
};

// ---- host_spmv_n1e4 ----------------------------------------------------------

class HostSpmv final : public Workload {
 public:
  explicit HostSpmv(std::size_t n) : n_(n) {}

  /// Damages one committed slot of the NEXT attempt, with repair off, so it
  /// ends with lost_commits > 0 (the self-check's retry probe).
  void inject_lost_commit() { inject_ = true; }

  void setup(std::uint64_t seed, Spans& sp, Attempt& a) override {
    a.layer["pram.build_s"] = sp.child("pram.build", [&] {
      spec_ = &registry("spmv");
      prog_.emplace(spec_->make(n_));
    });
    host::HostExecConfig cfg;
    a.layer["graph.weights_s"] = sp.child("graph.weights", [&] {
      cfg.proc_weights = spec_->proc_weights(n_);
    });
    cfg.seed = seed;
    cfg.os_threads = 2;
    cfg.interleave = host::Interleave::kPartition;
    cfg.clock_alpha = 32.0;
    cfg.generations = 6;
    cfg.timeout_seconds = 60.0;
    if (inject_) {
      inject_ = false;
      cfg.repair = false;
      const std::uint32_t var = pram::spmv_y_var(n_, 0);
      const std::uint32_t want = static_cast<std::uint32_t>(pram::stamp_of_writer(
          prog_->last_writer_before(prog_->nsteps(), var)));
      cfg.preaudit_fault = [this, var, want](host::HostMemory& mem) {
        mem.write(ex_->var_slot_addr(var, want), 424242, 0);
      };
    }
    a.layer["host.ctor_s"] = sp.child("host.ctor", [&] {
      ex_ = std::make_unique<host::HostExecutor>(*prog_, cfg);
    });
    a.setup_s = a.layer["pram.build_s"] + a.layer["graph.weights_s"] +
                a.layer["host.ctor_s"];
  }

  void finish(Spans& sp, bool, Attempt& a) override {
    host::HostExecResult res;
    const double run_s = sp.child("host.run", [&] { res = ex_->run(); });
    sp.derived("host.threads", 0.0, res.wall_seconds);
    sp.derived("host.audit", res.wall_seconds, run_s - res.wall_seconds);
    a.work = res.total_work;
    auto& l = a.layer;
    l["host.threads_s"] = res.wall_seconds;
    l["host.audit_s"] = run_s - res.wall_seconds;
    l["host.work_per_s"] =
        static_cast<double>(res.total_work) / res.wall_seconds;
    l["host.work_over_bound"] =
        static_cast<double>(res.total_work) / work_bound(*prog_);
    l["host.stamp_misses"] = static_cast<double>(res.stamp_misses);
    l["host.lost_commits"] = static_cast<double>(res.lost_commits);
    l["host.repaired_commits"] = static_cast<double>(res.repaired_commits);
    if (!res.completed) {
      a.failure = res.error.empty() ? "timed out" : res.error;
      return;
    }
    if (res.lost_commits != 0) {
      a.failure = std::to_string(res.lost_commits) + " lost commits";
      return;
    }
    memory_ = std::move(res.memory);
    std::string why;
    l["pram.verdict_s"] =
        sp.child("pram.verdict", [&] { why = spec_->check(n_, memory_); });
    a.failure = why;
    a.verified = why.empty();
  }

  void release() override {
    ex_.reset();
    prog_.reset();
  }

  std::string flipped_word_rejected(apex::Rng& rng) override {
    std::vector<pram::Word> mem = memory_;
    mem[output_var(*spec_, n_, rng.below(n_))] ^= 1;
    return spec_->check(n_, mem).empty() ? "host: flipped y word accepted"
                                         : "";
  }

 private:
  std::size_t n_;
  bool inject_ = false;
  const pram::WorkloadSpec* spec_ = nullptr;
  std::optional<pram::Program> prog_;
  std::unique_ptr<host::HostExecutor> ex_;
  std::vector<pram::Word> memory_;
};

// ---- lang_graph_n1e4 ---------------------------------------------------------

class LangGraph final : public Workload {
 public:
  explicit LangGraph(std::size_t n) : n_(n) {}

  /// Emits the .pram sources (untimed: the workload's input is source text).
  void prepare() override {
    for (const char* name : {"bfs", "spmv"}) {
      Unit u;
      u.spec = &registry(name);
      u.src.name = std::string(name) + ".pram";
      u.src.text = lang::emit_pram(u.spec->make(n_), name);
      units_.push_back(std::move(u));
    }
  }

  void setup(std::uint64_t seed, Spans& sp, Attempt& a) override {
    seed_ = seed;
    double compile_s = 0.0;
    double bytes = 0.0;
    for (Unit& u : units_) {
      lang::CompileResult r;
      compile_s += sp.child("lang.compile", [&] {
        r = lang::compile_source(u.src);
      });
      if (!r.ok()) {
        a.error = "emitted " + u.src.name + " does not compile: " +
                  lang::render_diagnostics(u.src, r.diagnostics);
        return;
      }
      u.prog.emplace(std::move(*r.program));
      bytes += static_cast<double>(u.src.text.size());
    }
    a.layer["lang.compile_s"] = compile_s;
    a.layer["lang.source_mb_per_s"] = bytes / 1e6 / compile_s;
    a.setup_s = compile_s;
  }

  void finish(Spans& sp, bool, Attempt& a) override {
    double interp_s = 0.0;
    double verdict_s = 0.0;
    std::string why;
    for (Unit& u : units_) {
      pram::InterpResult r;
      interp_s += sp.child("pram.interp", [&] {
        r = pram::Interpreter(*u.prog).run(
            std::vector<pram::Word>(u.prog->nvars(), 0), apex::Rng(seed_));
      });
      u.memory = std::move(r.memory);
      verdict_s += sp.child("pram.verdict", [&] {
        if (why.empty()) why = u.spec->check(n_, u.memory);
      });
      a.work += sync_work(*u.prog);
    }
    a.layer["pram.interp_s"] = interp_s;
    a.layer["pram.verdict_s"] = verdict_s;
    a.failure = why;
    a.verified = why.empty();
  }

  void release() override {
    for (Unit& u : units_) u.prog.reset();
  }

  std::string flipped_word_rejected(apex::Rng& rng) override {
    for (const Unit& u : units_) {
      std::vector<pram::Word> mem = u.memory;
      mem[output_var(*u.spec, n_, rng.below(n_))] ^= 1;
      if (u.spec->check(n_, mem).empty())
        return "lang: flipped word of " + u.src.name + " accepted";
    }
    return "";
  }

 private:
  /// The synchronous PRAM work of the program the interpreter ran: one unit
  /// per non-nop instruction, the cost measure of the reference machine.
  static std::uint64_t sync_work(const pram::Program& p) {
    std::uint64_t work = 0;
    for (std::size_t s = 0; s < p.nsteps(); ++s)
      for (const pram::Instr& ins : p.step(s).instrs)
        work += ins.op != pram::OpCode::kNop;
    return work;
  }

  struct Unit {
    const pram::WorkloadSpec* spec = nullptr;
    lang::SourceFile src;
    std::optional<pram::Program> prog;
    std::vector<pram::Word> memory;
  };
  std::size_t n_;
  std::uint64_t seed_ = 0;
  std::vector<Unit> units_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool full) {
  if (name == kSimDag) return std::make_unique<SimDag>(full ? 64 : 16);
  if (name == kHostSpmv) return std::make_unique<HostSpmv>(full ? 10000 : 64);
  if (name == kLangGraph) return std::make_unique<LangGraph>(full ? 10000 : 64);
  return nullptr;
}

// ---- attempts and results ----------------------------------------------------

struct Tally {
  std::vector<Attempt> attempts;
  /// Per verified result: the seconds of every attempt it took.
  std::vector<double> result_s;
  std::vector<bool> result_traced;
  std::string error;
};

/// Runs attempts on fresh seeds until one verifies.  False when none did
/// within kMaxAttemptsPerResult, or the benchmark itself faulted.
bool obtain_result(Workload& w, std::uint64_t seed, Spans& spans, bool traced,
                   Tally& t) {
  double waited = 0.0;
  for (int k = 0; k < kMaxAttemptsPerResult; ++k) {
    const int run = static_cast<int>(t.attempts.size());
    Attempt a;
    a.traced = traced;
    spans.open_root(run, traced);
    try {
      w.setup(apex::mix64(seed, static_cast<std::uint64_t>(run)), spans, a);
      if (a.error.empty()) w.finish(spans, traced, a);
    } catch (const std::exception& e) {
      a.error = e.what();
    }
    a.seconds = spans.close_root();
    w.release();
    waited += a.seconds;
    t.attempts.push_back(std::move(a));
    const Attempt& last = t.attempts.back();
    if (!last.error.empty()) {
      t.error = last.error;
      return false;
    }
    if (last.verified) {
      t.result_s.push_back(waited);
      t.result_traced.push_back(traced);
      return true;
    }
    std::fprintf(stderr, "wallbench: attempt %d did not verify (%s); "
                         "retrying on a fresh seed\n",
                 run, last.failure.c_str());
  }
  t.error = "no verified result in " + std::to_string(kMaxAttemptsPerResult) +
            " attempts";
  return false;
}

/// Verification that can fail: on a small instance of `name`, a flipped word
/// of a verified memory must be rejected, and (host) an attempt with lost
/// commits must count as failed, be retried, and not be timed as a success.
std::string self_check(const std::string& name, std::uint64_t seed) {
  std::unique_ptr<Workload> w = make_workload(name, false);
  Spans off;
  try {
    w->prepare();
    Tally t;
    if (!obtain_result(*w, seed, off, false, t))
      return name + ": self-check attempt failed: " + t.error;
    apex::Rng rng(seed);
    if (std::string e = w->flipped_word_rejected(rng); !e.empty()) return e;
    if (name != kHostSpmv) return "";

    std::fprintf(stderr, "wallbench: self-check injects a lost commit; "
                         "one retry is expected\n");
    HostSpmv h(64);
    h.inject_lost_commit();
    Tally lost;
    if (!obtain_result(h, seed, off, false, lost))
      return "host: retry after lost commits failed: " + lost.error;
    const bool counted = lost.attempts.size() == 2 &&
                         !lost.attempts[0].verified &&
                         lost.attempts[0].layer["host.lost_commits"] > 0 &&
                         lost.attempts[1].verified;
    const bool timed_whole =
        lost.result_s.size() == 1 &&
        lost.result_s[0] ==
            lost.attempts[0].seconds + lost.attempts[1].seconds;
    if (!counted || !timed_whole)
      return "host: an attempt with lost commits was not counted as failed "
             "and retried";
  } catch (const std::exception& e) {
    return name + ": self-check threw: " + e.what();
  }
  return "";
}

// ---- output ------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfcheck = false;
  std::string trace_out;
};

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19 ||
      s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out = std::stoull(s);
  return true;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload <%s|%s|%s> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       wallbench --selfcheck [--seed <n>]\n",
               why.c_str(), kSimDag, kHostSpmv, kLangGraph);
  return 2;
}

/// Parses the command line into `o`; returns 0, or the usage exit code.
int parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      o.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string v = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, o.seed)) return usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      if (!parse_u64(v, u) || u == 0 || u > 3600)
        return usage("bad --seconds " + v);
      o.seconds = static_cast<double>(u);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return usage("bad --trace " + v);
      o.trace = v == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  return 0;
}

int run(int argc, char** argv) {
  Options o;
  if (const int rc = parse_options(argc, argv, o); rc != 0) return rc;

  if (o.selfcheck) {
    bool ok = true;
    for (const char* name : {kSimDag, kHostSpmv, kLangGraph}) {
      const std::string err = self_check(name, o.seed);
      std::printf("selfcheck %-16s %s\n", name,
                  err.empty() ? "ok" : err.c_str());
      ok &= err.empty();
    }
    return ok ? 0 : 1;
  }

  std::unique_ptr<Workload> w = make_workload(o.workload, true);
  if (w == nullptr) return usage("unknown --workload '" + o.workload + "'");

  std::string error = self_check(o.workload, apex::mix64(o.seed, 0x5E1F));
  Spans spans;
  Tally t;
  std::vector<double> setup_samples;
  if (error.empty()) {
    try {
      w->prepare();
    } catch (const std::exception& e) {
      error = std::string("prepare: ") + e.what();
    }
  }
  if (error.empty()) {
    const auto t0 = Clock::now();
    do {
      if (o.trace && !obtain_result(*w, o.seed, spans, false, t)) break;
      if (!obtain_result(*w, o.seed, spans, o.trace, t)) break;
    } while (seconds_between(t0, Clock::now()) < o.seconds);
    error = t.error;
  }
  for (const Attempt& a : t.attempts) setup_samples.push_back(a.setup_s);
  for (std::uint64_t rep = 0; error.empty() && !o.trace &&
                              setup_samples.size() < kSetupSamples;
       ++rep) {
    Attempt a;
    spans.open_root(-1, false);
    try {
      w->setup(apex::mix64(o.seed, (1ull << 20) + rep), spans, a);
    } catch (const std::exception& e) {
      a.error = e.what();
    }
    spans.close_root();
    w->release();
    error = a.error;
    setup_samples.push_back(a.setup_s);
  }

  std::size_t failed = 0;
  std::vector<double> work;
  for (const Attempt& a : t.attempts) {
    failed += !a.verified;
    if (a.verified) work.push_back(static_cast<double>(a.work));
  }

  std::map<std::string, double> metrics;
  if (!o.trace) {
    metrics["verified_s"] = median(t.result_s);
    metrics["setup_s"] = median(setup_samples);
    metrics["work"] = median(work);
    metrics["verified_share"] =
        t.attempts.empty()
            ? 0.0
            : 1.0 - static_cast<double>(failed) /
                        static_cast<double>(t.attempts.size());
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Times come from the untraced attempts, so they exclude the observers'
    // cost; counts come from the traced ones, the only ones with the split.
    // (Every time-valued name, `*_s` and `*_per_s`, ends in "_s".)
    std::map<std::string, std::vector<double>> layer;
    for (const Attempt& a : t.attempts)
      if (a.verified)
        for (const auto& [k, v] : a.layer)
          if (k.ends_with("_s") != a.traced) layer[k].push_back(v);
    for (const MetricDef& m : kPerLayer)
      metrics[m.name] = median(layer[m.name]);
    std::vector<double> traced_s, untraced_s;
    for (std::size_t i = 0; i < t.result_s.size(); ++i)
      (t.result_traced[i] ? traced_s : untraced_s).push_back(t.result_s[i]);
    metrics["trace.overhead_s"] = median(traced_s) - median(untraced_s);
    if (o.workload == kHostSpmv) {
      double lost = 0, repaired = 0;
      for (const Attempt& a : t.attempts) {
        auto get = [&](const char* k) {
          const auto it = a.layer.find(k);
          return it == a.layer.end() ? 0.0 : it->second;
        };
        lost += get("host.lost_commits");
        repaired += get("host.repaired_commits");
      }
      metrics["host.lost_commits"] = lost;
      metrics["host.repaired_commits"] = repaired;
      metrics["host.attempts"] =
          t.result_s.empty() ? 0.0
                             : static_cast<double>(t.attempts.size()) /
                                   static_cast<double>(t.result_s.size());
    }
  }

  // Provenance travels with every result, so a baseline names its machine.
  std::string prov =
      "{\"workload\": \"" + o.workload + "\", \"seed\": " +
      std::to_string(o.seed) + ", \"seconds\": " + fmt(o.seconds) +
      ", \"trace\": " + (o.trace ? "1" : "0") + ", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": \"" + json_escape(WALLBENCH_COMPILER) +
      "\", \"build_type\": \"" + json_escape(WALLBENCH_BUILD_TYPE) + "\"";
  if (o.workload == kHostSpmv && !work.empty()) {
    // Reported, not gated: a change that cuts work must not fail the run.
    const double ratio = median(work) / kBenchCoreSpmvWork;
    prov += ", \"bench_core_spmv_work\": " + fmt(kBenchCoreSpmvWork) +
            ", \"work_vs_bench_core\": " + fmt(ratio) +
            ", \"within_1pct\": " +
            (ratio > 0.99 && ratio < 1.01 ? "true" : "false");
  }
  prov += "}";

  if (o.trace) {
    for (const auto& [name, st] : spans.self_times())
      std::printf("self %-22s %.6f s mean over %d spans\n", name.c_str(),
                  st.first / st.second, st.second);
    if (!o.trace_out.empty() &&
        !spans.write_chrome_trace(o.trace_out, prov) && error.empty())
      error = "cannot write trace file " + o.trace_out;
  }

  const MetricDef* defs = o.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs = o.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < ndefs; ++i)
    std::printf("metric %-26s %.6g %s\n", defs[i].name, metrics[defs[i].name],
                defs[i].unit);
  std::printf("samples results=%zu attempts=%zu setup=%zu; result seconds:",
              t.result_s.size(), t.attempts.size(), setup_samples.size());
  for (double s : t.result_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (!error.empty()) std::fprintf(stderr, "wallbench: %s\n", error.c_str());
  std::printf("{\"provenance\": %s}\n", prov.c_str());

  const bool correct = error.empty() && !t.result_s.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempts.size()) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ndefs; ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
           fmt(metrics[defs[i].name]) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::run(argc, argv); }
