#include "batch/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace apex::batch {

namespace {

std::string format_errors(const std::vector<TrialError>& errors) {
  std::string msg = "sweep: " + std::to_string(errors.size()) +
                    " trial(s) threw:";
  for (const auto& e : errors)
    msg += "\n  trial " + std::to_string(e.trial) + ": " + e.message;
  return msg;
}

/// Run one trial, capturing any exception as (ok=false, error=what).
TrialResult guarded(const SweepEngine::TrialFn& fn, std::size_t trial) {
  try {
    return fn(trial);
  } catch (const std::exception& e) {
    TrialResult r;
    r.ok = false;
    r.error = e.what();
    return r;
  } catch (...) {
    TrialResult r;
    r.ok = false;
    r.error = "unknown exception";
    return r;
  }
}

}  // namespace

SweepError::SweepError(std::vector<TrialError> errors)
    : std::runtime_error(format_errors(errors)), errors_(std::move(errors)) {}

void GroupStats::merge(const TrialResult& r) {
  ++trials_;
  if (!r.ok) ++failed_;
  for (const auto& [name, value] : r.samples()) samples_[name].add(value);
  for (const auto& [name, delta] : r.counts()) counts_[name] += delta;
}

const Accumulator& GroupStats::sample(const std::string& name) const {
  static const Accumulator kEmpty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

double GroupStats::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::size_t SweepEngine::resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<TrialResult> SweepEngine::run(const SweepSpec& spec,
                                          const TrialFn& fn) const {
  std::vector<TrialResult> out(spec.trials);
  if (spec.trials > 0) {
    const std::size_t jobs = std::min(resolve_jobs(spec.jobs), spec.trials);
    if (jobs <= 1) {
      for (std::size_t i = 0; i < spec.trials; ++i) out[i] = guarded(fn, i);
    } else {
      // Lock-free dispatch: workers claim the next unstarted trial index and
      // write the result into its slot.  Claim order is racy; slot placement
      // (and therefore everything downstream) is not.
      std::atomic<std::size_t> next{0};
      const auto drain = [&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= spec.trials) return;
          out[i] = guarded(fn, i);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(jobs);
      try {
        for (std::size_t w = 0; w < jobs; ++w) pool.emplace_back(drain);
      } catch (const std::exception&) {
        // A worker that cannot start (thread or address-space limits) only
        // costs speed: the workers already running drain every trial, and
        // with none running the calling thread does.  Slots, not workers,
        // fix the output, so it stays byte-identical.
        if (pool.empty()) drain();
      }
      for (auto& t : pool) t.join();
    }
  }
  if (!spec.keep_going) {
    std::vector<TrialError> errors;
    for (std::size_t i = 0; i < out.size(); ++i)
      if (!out[i].error.empty()) errors.push_back({i, out[i].error});
    if (!errors.empty()) throw SweepError(std::move(errors));
  }
  return out;
}

std::vector<GroupStats> SweepEngine::run_grouped(const SweepSpec& spec,
                                                 const TrialFn& fn,
                                                 std::size_t group_size) const {
  if (group_size == 0 || spec.trials % group_size != 0)
    throw std::invalid_argument(
        "sweep: trials must be a positive multiple of group_size");
  const auto results = run(spec, fn);
  std::vector<GroupStats> groups(results.size() / group_size);
  for (std::size_t i = 0; i < results.size(); ++i)
    groups[i / group_size].merge(results[i]);
  return groups;
}

}  // namespace apex::batch
