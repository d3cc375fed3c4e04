// Multi-threaded sweep engine for the experiment harness.
//
// Every reproduction binary answers the same shaped question: run many
// INDEPENDENT simulation trials — one apex::sim::Simulator universe per
// (config, seed) grid point — and aggregate per-trial measurements into the
// table the paper's theorem predicts.  The seed drivers hand-rolled that as
// serial `for n / for seed` loops; this subsystem factors it out and runs
// the trials across a std::thread worker pool.
//
// Determinism contract: trials are enumerated up-front (indices 0..trials-1),
// dispatched to workers through a single atomic work index, and their
// TrialResults are MERGED IN TRIAL-INDEX ORDER on the calling thread after
// the pool drains.  Trial functions derive all randomness from their trial
// index (the drivers seed each Simulator from it), so aggregate output —
// Accumulator moments, counters, table rows — is bit-identical regardless of
// `jobs`.  Thread count changes wall-clock only, never results.
//
// Errors: a trial that throws is captured (index + message) and reported,
// never swallowed.  By default SweepEngine::run rethrows the failure set as
// a SweepError once all trials finish; SweepSpec::keep_going instead records
// the error on the trial's TrialResult for the caller to inspect.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace apex::batch {

/// Measurement bag produced by one simulation trial.
///
/// Two merge semantics, chosen per metric name:
///   - samples: observations folded into a per-group Accumulator
///     (mean/ci95/min/max/count) — e.g. total work of a run, per-stage
///     complete-cycle counts;
///   - counts: additive tallies — e.g. histogram buckets for a chi-square
///     test, "structures observed".
/// Insertion order within a trial is preserved, so a group merge visits
/// every observation in a deterministic order.
class TrialResult {
 public:
  /// Record one observation of `name` (may repeat; all are kept).
  void sample(std::string name, double value) {
    samples_.emplace_back(std::move(name), value);
  }

  /// Add `delta` to the additive counter `name`.
  void count(std::string name, double delta = 1.0) {
    counts_.emplace_back(std::move(name), delta);
  }

  /// Trial-level predicate: did the run satisfy what the experiment needs?
  /// (e.g. agreement reached within budget).  A false trial still merges its
  /// metrics; GroupStats tracks the failure tally.
  bool ok = true;

  /// Non-empty iff the trial function threw and SweepSpec::keep_going was
  /// set; holds the exception message.
  std::string error;

  const std::vector<std::pair<std::string, double>>& samples() const noexcept {
    return samples_;
  }
  const std::vector<std::pair<std::string, double>>& counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<std::pair<std::string, double>> samples_;
  std::vector<std::pair<std::string, double>> counts_;
};

/// What to run: `trials` grid points across `jobs` worker threads.
struct SweepSpec {
  std::size_t trials = 0;
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (no pool).
  /// Workers that cannot be started are done without: the ones running
  /// (or, with none, the calling thread) take their trials.
  std::size_t jobs = 1;
  /// Record trial exceptions on TrialResult::error instead of throwing a
  /// SweepError after the sweep completes.
  bool keep_going = false;
};

/// A trial that threw: its index and the exception message.
struct TrialError {
  std::size_t trial = 0;
  std::string message;
};

/// Deterministic failure report: every throwing trial, in index order.
class SweepError : public std::runtime_error {
 public:
  explicit SweepError(std::vector<TrialError> errors);
  const std::vector<TrialError>& errors() const noexcept { return errors_; }

 private:
  std::vector<TrialError> errors_;
};

/// Index-order aggregation of a contiguous block of TrialResults — the
/// per-table-row statistics every driver needs.
class GroupStats {
 public:
  /// Fold one trial in.  Callers must merge in ascending trial index for the
  /// deterministic-output guarantee to hold.
  void merge(const TrialResult& r);

  /// Accumulator over every `sample(name, ...)` observation in the group
  /// (a shared empty accumulator when the name was never recorded).
  const Accumulator& sample(const std::string& name) const;

  /// Sum of every `count(name, ...)` delta in the group (0 when absent).
  double count(const std::string& name) const;

  std::size_t trials() const noexcept { return trials_; }
  std::size_t failed() const noexcept { return failed_; }
  bool all_ok() const noexcept { return failed_ == 0; }

 private:
  std::size_t trials_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, Accumulator> samples_;
  std::map<std::string, double> counts_;
};

class SweepEngine {
 public:
  using TrialFn = std::function<TrialResult(std::size_t trial)>;

  /// Map 0 to std::thread::hardware_concurrency (at least 1).
  static std::size_t resolve_jobs(std::size_t requested);

  /// Run fn(0..spec.trials-1) across the pool; return results in trial-index
  /// order.  Throws SweepError (all failing trials, ascending index) unless
  /// spec.keep_going.
  std::vector<TrialResult> run(const SweepSpec& spec, const TrialFn& fn) const;

  /// run() + partition the results into consecutive groups of `group_size`
  /// trials, merged in index order.  This is the shape of every bench sweep:
  /// grid point i replicated `group_size` times (one seed each) makes group
  /// i.  `spec.trials` must be a multiple of `group_size`.
  std::vector<GroupStats> run_grouped(const SweepSpec& spec, const TrialFn& fn,
                                      std::size_t group_size) const;
};

}  // namespace apex::batch
