// Adversary schedulers for the A-PRAM.
//
// The model (§1) associates with each processor a schedule function S_i
// mapping its k-th operation to an actual time; equivalently, the adversary
// produces a global interleaving: which processor performs the step at each
// global time t.  The A-PRAM convention is an OBLIVIOUS adversary: the whole
// interleaving is fixed in advance, independent of the processors' dynamic
// random choices.  We enforce that structurally: oblivious schedules depend
// only on (t, their own private RNG stream) and have no access to the
// simulator.  Adaptive schedules (for stress tests only) are a separate
// subclass that may inspect simulator state and declare themselves
// non-oblivious.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace apex::sim {

/// Round-robin bulk fill shared by RoundRobinSchedule and
/// ScriptedSchedule's post-script fallback: one division for the whole
/// batch, then increment-and-wrap (a per-grant modulo is a hardware
/// divide, ~10x the rest of the loop).
inline std::size_t fill_round_robin(std::span<std::uint32_t> grants,
                                    std::uint64_t t0, std::size_t nprocs) {
  auto p = static_cast<std::uint32_t>(t0 % nprocs);
  const auto n = static_cast<std::uint32_t>(nprocs);
  for (auto& g : grants) {
    g = p;
    if (++p == n) p = 0;
  }
  return grants.size();
}

class Schedule {
 public:
  explicit Schedule(std::size_t nprocs) : nprocs_(nprocs) {
    if (nprocs == 0) throw std::invalid_argument("Schedule: nprocs == 0");
    if (nprocs > std::numeric_limits<std::uint32_t>::max())
      throw std::invalid_argument("Schedule: nprocs exceeds uint32 grants");
  }
  virtual ~Schedule() = default;

  /// Processor granted the atomic step at global time t.
  /// Called with strictly increasing t by the simulator.
  virtual std::size_t next(std::uint64_t t) = 0;

  /// Bulk grant API (the batched engine's hot path): fill `grants` with the
  /// processors granted the steps at times t0, t0+1, ..., and return how
  /// many were produced, in [1, grants.size()] (grants.empty() returns 0).
  ///
  /// Contract (see docs/ARCHITECTURE.md): the concatenation of fill()
  /// results must equal the sequence next(t0), next(t0+1), ... — same
  /// grants, same private-RNG consumption order — and a call may return
  /// short (e.g. at a segment or script boundary).  An error must surface
  /// exactly at the grant that would have thrown under next(): either throw
  /// with zero grants produced, or return the partial batch and throw on
  /// the following call (the default implementation does the latter via a
  /// stashed exception).
  ///
  /// The default loops next(); subclasses override purely for speed.
  virtual std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0);

  virtual bool is_oblivious() const noexcept { return true; }

  /// May the simulator draw grants ahead of executing them?  True requires
  /// that the grant at time t is fully determined by (t, the schedule's
  /// private state at the time of the draw) — i.e. nothing external mutates
  /// the schedule between grants.  Defaults to is_oblivious(): adaptive
  /// schedules inspect live simulator state and must be asked one grant at
  /// a time.  Override to false for schedules that are oblivious in the
  /// model sense but externally steered between run() calls (e.g. a bench
  /// harness flipping a designated processor).
  virtual bool is_prefetchable() const noexcept { return is_oblivious(); }

  std::size_t nprocs() const noexcept { return nprocs_; }

 protected:
  std::size_t nprocs_;

 private:
  /// Exception raised by next() mid-way through a default fill(): the grants
  /// drawn before it are returned first, and it is rethrown on the next call.
  std::exception_ptr deferred_;
};

/// Fully synchronous round-robin: proc t mod n.  The "friendliest" schedule;
/// useful as a baseline and in deterministic unit tests.
class RoundRobinSchedule final : public Schedule {
 public:
  using Schedule::Schedule;
  std::size_t next(std::uint64_t t) override {
    return static_cast<std::size_t>(t % nprocs_);
  }
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override {
    return fill_round_robin(grants, t0, nprocs_);
  }
};

/// Uniformly random processor each step (classic A-PRAM random schedule).
class UniformRandomSchedule final : public Schedule {
 public:
  UniformRandomSchedule(std::size_t nprocs, apex::Rng rng)
      : Schedule(nprocs), rng_(rng) {}
  std::size_t next(std::uint64_t) override {
    return static_cast<std::size_t>(rng_.below(nprocs_));
  }
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t) override {
    for (auto& g : grants) g = static_cast<std::uint32_t>(rng_.below(nprocs_));
    return grants.size();
  }

 private:
  apex::Rng rng_;
};

/// Heterogeneous speeds: processor i is granted steps proportionally to a
/// fixed rate r_i.  Models the paper's motivating scenario of a multitasking
/// system where a loaded processor gets far less CPU than a light one.
class RateSchedule final : public Schedule {
 public:
  RateSchedule(std::vector<double> rates, apex::Rng rng);

  /// Convenience: power-law rates r_i = 1 / (i+1)^alpha.
  static std::unique_ptr<RateSchedule> power_law(std::size_t nprocs,
                                                 double alpha, apex::Rng rng);

  std::size_t next(std::uint64_t) override;
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override;

 private:
  std::vector<double> cumulative_;
  apex::Rng rng_;
};

/// Sleeper adversary: a designated subset of processors is granted steps
/// only during periodic bursts; between bursts they are "asleep".  When a
/// sleeper wakes it still holds its stale view of the phase, so its first
/// writes land with old timestamps — the clobbers of Lemma 1.
class SleeperSchedule final : public Schedule {
 public:
  /// `sleepers`: ids of sleeping processors.  They are awake during
  /// [k*period, k*period + burst) for every k >= 1, asleep otherwise.
  /// Awake processors are chosen uniformly from the eligible set.
  SleeperSchedule(std::size_t nprocs, std::vector<std::size_t> sleepers,
                  std::uint64_t period, std::uint64_t burst, apex::Rng rng);

  std::size_t next(std::uint64_t t) override;
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override;

 private:
  std::vector<bool> is_sleeper_;
  std::vector<std::size_t> non_sleepers_;
  std::vector<std::size_t> sleepers_;
  std::uint64_t period_;
  std::uint64_t burst_;
  apex::Rng rng_;
};

/// Crash adversary: processor i executes no steps at or after crash_time[i]
/// (S_i(k) = infinity thereafter).  At least one processor must survive.
class CrashSchedule final : public Schedule {
 public:
  CrashSchedule(std::size_t nprocs, std::vector<std::uint64_t> crash_times,
                apex::Rng rng);

  std::size_t next(std::uint64_t t) override;
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override;

 private:
  std::vector<std::uint64_t> crash_times_;
  apex::Rng rng_;
};

/// What a ScriptedSchedule does once its script runs out.
enum class ScriptExhaust {
  kRoundRobin,  ///< Continue with round-robin (t mod n) — replayable prefixes.
  kThrow,       ///< Throw std::out_of_range — scripts meant to cover the run.
};

/// Fixed script of grants (for unit tests, the Fig. 3 reproduction, and
/// fuzzer repro files).  The exhaustion policy is explicit: the historical
/// behavior (silent round-robin fallback) is kRoundRobin and remains the
/// default because shrunk fuzz repros are prefixes that rely on it; tests
/// that must not outlive their script use kThrow.
class ScriptedSchedule final : public Schedule {
 public:
  ScriptedSchedule(std::size_t nprocs, std::vector<std::size_t> script,
                   ScriptExhaust exhaust = ScriptExhaust::kRoundRobin)
      : Schedule(nprocs), script_(std::move(script)), exhaust_(exhaust) {
    for (auto p : script_)
      if (p >= nprocs)
        throw std::invalid_argument("ScriptedSchedule: proc out of range");
  }

  std::size_t next(std::uint64_t t) override {
    if (pos_ < script_.size()) return script_[pos_++];
    if (exhaust_ == ScriptExhaust::kThrow)
      throw std::out_of_range("ScriptedSchedule: script exhausted at t=" +
                              std::to_string(t));
    return static_cast<std::size_t>(t % nprocs_);
  }

  /// Returns short at the script boundary, so a kThrow script only throws
  /// when a grant BEYOND the script is actually demanded — exactly when
  /// next() would have.
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override {
    if (grants.empty()) return 0;
    if (pos_ < script_.size()) {
      const std::size_t n = std::min(grants.size(), script_.size() - pos_);
      for (std::size_t i = 0; i < n; ++i)
        grants[i] = static_cast<std::uint32_t>(script_[pos_ + i]);
      pos_ += n;
      return n;
    }
    if (exhaust_ == ScriptExhaust::kThrow)
      throw std::out_of_range("ScriptedSchedule: script exhausted at t=" +
                              std::to_string(t0));
    return fill_round_robin(grants, t0, nprocs_);
  }

  ScriptExhaust exhaust_policy() const noexcept { return exhaust_; }

 private:
  std::vector<std::size_t> script_;
  ScriptExhaust exhaust_;
  std::size_t pos_ = 0;
};

/// Bursty/jittery schedule: picks a processor and grants it a geometric
/// burst of steps before re-drawing.  Models context switches: long runs of
/// one processor while others stall.
class BurstSchedule final : public Schedule {
 public:
  BurstSchedule(std::size_t nprocs, double continue_prob, apex::Rng rng)
      : Schedule(nprocs), continue_prob_(continue_prob), rng_(rng) {
    if (continue_prob < 0.0 || continue_prob >= 1.0)
      throw std::invalid_argument("BurstSchedule: continue_prob in [0,1)");
    current_ = static_cast<std::size_t>(rng_.below(nprocs_));
  }

  std::size_t next(std::uint64_t) override {
    if (!rng_.coin(continue_prob_))
      current_ = static_cast<std::size_t>(rng_.below(nprocs_));
    return current_;
  }

  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t) override {
    for (auto& g : grants) {
      if (!rng_.coin(continue_prob_))
        current_ = static_cast<std::size_t>(rng_.below(nprocs_));
      g = static_cast<std::uint32_t>(current_);
    }
    return grants.size();
  }

 private:
  double continue_prob_;
  apex::Rng rng_;
  std::size_t current_;
};

/// Fully general schedule driven by a user callback.  Declared
/// NON-oblivious: the callback may capture simulator or protocol state and
/// base grants on it, which is exactly the adaptive-adversary power the
/// A-PRAM model excludes.  Used by stress tests and by the E14 ablation
/// (showing Claim 8 FAILS without the obliviousness assumption).
class CallbackSchedule final : public Schedule {
 public:
  using Fn = std::function<std::size_t(std::uint64_t t)>;
  CallbackSchedule(std::size_t nprocs, Fn fn)
      : Schedule(nprocs), fn_(std::move(fn)) {
    if (!fn_) throw std::invalid_argument("CallbackSchedule: empty callback");
  }

  std::size_t next(std::uint64_t t) override {
    const std::size_t p = fn_(t);
    if (p >= nprocs_)
      throw std::out_of_range("CallbackSchedule: callback chose bad proc");
    return p;
  }

  bool is_oblivious() const noexcept override { return false; }

 private:
  Fn fn_;
};

/// Named factory used by tests/benches to sweep the whole adversary family.
enum class ScheduleKind {
  kRoundRobin,
  kUniformRandom,
  kPowerLaw,
  kSleeper,
  kBurst,
  kCrash,
  kRate,
};

const char* schedule_kind_name(ScheduleKind k) noexcept;

/// Build a schedule of the given kind with canonical parameters
/// (power-law alpha=1.2; sleepers = n/8 procs, period 64n, burst 4n;
/// burst continue prob 0.95; crash = first half of the procs die at
/// staggered times 32n(i+1); rate = linear ramp r_i = i+1).
std::unique_ptr<Schedule> make_schedule(ScheduleKind kind, std::size_t nprocs,
                                        apex::Rng rng);

/// All kinds, for sweeps.
std::vector<ScheduleKind> all_schedule_kinds();

}  // namespace apex::sim
