#include "check/fuzz_schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace apex::check {

namespace {

constexpr std::size_t kMaxLoggedSegments = 64;

/// Segment lengths are drawn log-uniformly from [kMinSegment, kMaxSegment].
constexpr std::uint64_t kMinSegment = 16;
constexpr std::uint64_t kMaxSegment = 4096;

std::string fmt(const char* f, double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, x);
  return buf;
}

}  // namespace

FuzzedSchedule::FuzzedSchedule(std::size_t nprocs, std::uint64_t seed)
    : Schedule(nprocs), rng_(apex::mix64(seed, 0xF022)) {}

void FuzzedSchedule::new_segment() {
  const std::size_t n = nprocs_;
  // Log-uniform segment length: short splices and long sieges both common.
  const double lo = std::log(static_cast<double>(kMinSegment));
  const double hi = std::log(static_cast<double>(kMaxSegment));
  remaining_ = static_cast<std::uint64_t>(
      std::exp(lo + (hi - lo) * rng_.uniform()));
  remaining_ = std::max<std::uint64_t>(1, remaining_);

  // Each segment's adversary draws from its own child stream so the
  // composition stream stays aligned across replays regardless of how many
  // coins the segment itself consumes.
  apex::Rng seg_rng = rng_.child(segment_no_);
  std::string desc;

  // Kinds needing >= 2 procs are remapped to uniform noise when n == 1.
  std::uint64_t kind = rng_.below(8);
  if (n < 2 && (kind == 4 || kind == 6 || kind == 7)) kind = 1;

  switch (kind) {
    case 0:
      inner_ = std::make_unique<sim::RoundRobinSchedule>(n);
      desc = "rr";
      break;
    case 1:
      inner_ = std::make_unique<sim::UniformRandomSchedule>(n, seg_rng);
      desc = "uniform";
      break;
    case 2: {
      const double alpha = 0.5 + 2.5 * rng_.uniform();
      inner_ = sim::RateSchedule::power_law(n, alpha, seg_rng);
      desc = "power_law(a=" + fmt("%.2f", alpha) + ")";
      break;
    }
    case 3: {
      std::vector<double> rates(n);
      for (auto& r : rates) r = 0.02 + rng_.uniform();
      inner_ = std::make_unique<sim::RateSchedule>(std::move(rates), seg_rng);
      desc = "rate";
      break;
    }
    case 4: {
      // Random sleeper subset (at least one processor stays awake).
      const std::size_t nsleep =
          1 + static_cast<std::size_t>(rng_.below(n - 1));
      std::vector<std::size_t> ids(n);
      for (std::size_t i = 0; i < n; ++i) ids[i] = i;
      rng_.shuffle(ids);
      ids.resize(nsleep);
      const std::uint64_t period = 8 + rng_.below(64 * n);
      const std::uint64_t burst = 1 + rng_.below(period);
      inner_ = std::make_unique<sim::SleeperSchedule>(n, std::move(ids),
                                                      period, burst, seg_rng);
      desc = "sleeper(" + std::to_string(nsleep) + ")";
      break;
    }
    case 5: {
      const double p = 0.5 + 0.495 * rng_.uniform();
      inner_ = std::make_unique<sim::BurstSchedule>(n, p, seg_rng);
      desc = "burst(p=" + fmt("%.3f", p) + ")";
      break;
    }
    case 6: {
      // Blackout: a random subset of processors is frozen for the whole
      // segment.  Expressed as a CrashSchedule whose "crashed" processors
      // died at t = 0; when the segment ends they come back — a crash the
      // canonical family cannot undo.
      const std::size_t nawake = 1 + static_cast<std::size_t>(rng_.below(n));
      std::vector<std::size_t> ids(n);
      for (std::size_t i = 0; i < n; ++i) ids[i] = i;
      rng_.shuffle(ids);
      std::vector<std::uint64_t> crash(n, 0);
      for (std::size_t i = 0; i < nawake; ++i) crash[ids[i]] = ~0ULL;
      inner_ = std::make_unique<sim::CrashSchedule>(n, std::move(crash),
                                                    seg_rng);
      desc = "blackout(awake=" + std::to_string(nawake) + ")";
      break;
    }
    default: {
      // Scripted splice: a short literal interleaving, often hammering a
      // narrow set of processors.
      const std::size_t len = 8 + static_cast<std::size_t>(rng_.below(57));
      const std::size_t span = 1 + static_cast<std::size_t>(rng_.below(n));
      std::vector<std::size_t> script(len);
      for (auto& p : script)
        p = static_cast<std::size_t>(seg_rng.below(span));
      inner_ = std::make_unique<sim::ScriptedSchedule>(
          n, std::move(script), sim::ScriptExhaust::kRoundRobin);
      remaining_ = len;
      desc = "splice(span=" + std::to_string(span) + ")";
      break;
    }
  }

  if (log_.size() < kMaxLoggedSegments)
    log_.push_back(desc + "x" + std::to_string(remaining_));
  ++segment_no_;
}

std::size_t FuzzedSchedule::next(std::uint64_t t) {
  if (remaining_ == 0) new_segment();
  --remaining_;
  return inner_->next(t);
}

std::size_t FuzzedSchedule::fill(std::span<std::uint32_t> grants,
                                 std::uint64_t t0) {
  if (grants.empty()) return 0;
  if (remaining_ == 0) new_segment();
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(grants.size(), remaining_));
  const std::size_t got = inner_->fill(grants.first(want), t0);
  remaining_ -= got;
  return got;
}

std::string FuzzedSchedule::describe() const {
  std::string out;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    if (i) out += " | ";
    out += log_[i];
  }
  if (segment_no_ > log_.size()) out += " | ...";
  return out;
}

}  // namespace apex::check
