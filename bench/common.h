// Shared helpers for the experiment binaries (E1-E15).
//
// Every binary prints one or more aligned tables — the series the paper's
// theorem/lemma/figure predicts — and exits 0 when the measured shape
// matches the prediction (so `for b in build/bench/*; do $b; done` doubles
// as a reproduction check).  `--csv` switches to CSV; `--full` enlarges the
// sweeps; `--seeds=K` controls replication; `--jobs=N` runs the trial grid
// on N worker threads (0 = all hardware threads, default 1).  Any other
// token, or a number that is not plain decimal digits, is a usage error
// (exit 2).
//
// Parallelism is deterministic: each driver enumerates its full
// (config, seed) grid up-front and hands it to batch::SweepEngine, which
// runs one simulation universe per grid point and merges TrialResults back
// in trial-index order.  Because every trial seeds its own Simulator from
// its grid point alone, the aggregated tables — and therefore stdout — are
// byte-identical for every `--jobs` value; only wall-clock changes.  (The
// one exception is E12, whose trials measure real-thread wall-clock and
// throughput: those columns vary run to run by nature, at any `--jobs`.)
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "batch/sweep.h"
#include "util/cliargs.h"
#include "util/table.h"

namespace apex::bench {

struct Options {
  bool csv = false;
  bool full = false;
  int seeds = 3;
  std::size_t jobs = 1;

  static Options parse(int argc, char** argv) {
    const cli::ParsedArgs a = cli::parse_argv(argc, argv, false);
    const auto usage = [&](std::FILE* to) {
      std::fprintf(to, "usage: %s [--csv] [--full] [--seeds=K] [--jobs=N]\n",
                   argv[0]);
    };
    if (a.kv.count("help") != 0 ||
        std::count(a.positional.begin(), a.positional.end(), "-h") != 0) {
      usage(stdout);
      std::exit(0);
    }
    const auto fail = [&](const std::string& msg) {
      std::fprintf(stderr, "%s\n", msg.c_str());
      usage(stderr);
      std::exit(2);
    };
    const std::string err =
        cli::validate_args(a, {"csv", "full", "seeds", "jobs"}, 0);
    if (!err.empty()) fail(err);
    const auto num = [&](const std::string& key, std::uint64_t dflt,
                         std::uint64_t max) {
      const auto it = a.kv.find(key);
      if (it == a.kv.end()) return dflt;
      const auto v = cli::parse_u64_strict(it->second);
      if (!v || *v > max)
        fail("--" + key + " expects an integer in [0, " +
             std::to_string(max) + "], got '" + it->second + "'");
      return *v;
    };
    Options o;
    o.csv = a.kv.count("csv") != 0;
    o.full = a.kv.count("full") != 0;
    o.seeds = std::max(1, static_cast<int>(num("seeds", o.seeds, INT_MAX)));
    o.jobs = static_cast<std::size_t>(num("jobs", o.jobs, SIZE_MAX));
    return o;
  }

  void emit(const Table& t) const {
    if (csv) t.print_csv(std::cout);
    else t.print(std::cout);
  }

  std::vector<std::size_t> n_sweep(std::size_t lo, std::size_t hi_default,
                                   std::size_t hi_full) const {
    std::vector<std::size_t> ns;
    const std::size_t hi = full ? hi_full : hi_default;
    for (std::size_t n = lo; n <= hi; n *= 2) ns.push_back(n);
    return ns;
  }

  /// Run `configs.size() * reps` independent trials (config-major,
  /// replicate-minor) across the worker pool and return one GroupStats per
  /// config, in config order.  `fn(config, rep)` builds and runs one
  /// simulation universe; rep in [0, reps) replaces the old inner seed loop.
  template <typename Config, typename Fn>
  std::vector<batch::GroupStats> sweep(const std::vector<Config>& configs,
                                       int reps, Fn&& fn) const {
    batch::SweepSpec spec;
    spec.trials = configs.size() * static_cast<std::size_t>(reps);
    spec.jobs = jobs;
    const auto reps_sz = static_cast<std::size_t>(reps);
    return batch::SweepEngine().run_grouped(
        spec,
        [&](std::size_t i) {
          return fn(configs[i / reps_sz], static_cast<int>(i % reps_sz));
        },
        reps_sz);
  }
};

/// Banner naming the experiment and the paper artifact it reproduces.
inline void banner(const char* id, const char* claim) {
  std::printf("=== %s ===\n%s\n\n", id, claim);
}

/// Final verdict line; returns the process exit code.
inline int verdict(bool ok, const char* summary) {
  std::printf("\n[%s] %s\n", ok ? "PASS" : "FAIL", summary);
  return ok ? 0 : 1;
}

}  // namespace apex::bench
