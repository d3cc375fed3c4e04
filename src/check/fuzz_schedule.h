// Adversary fuzzing: random compositions of the schedule family.
//
// The paper's guarantees are quantified over EVERY oblivious adversary, but
// the canonical schedules in sim/schedule.h are a handful of points in that
// space.  FuzzedSchedule searches it: from a single uint64 seed it derives a
// lazy, unbounded sequence of SEGMENTS, each segment an instance of one of
// the existing adversaries with randomized parameters — round-robin
// lockstep, uniform noise, power-law and linear-rate skews, sleeper bursts,
// geometric bursts, crash blackouts (a random subset of processors frozen
// for the whole segment), and short scripted splices.  Concatenating nasty
// segments produces interleavings none of the canonical schedules reach
// (e.g. a lockstep prefix, then a blackout of all but one processor, then a
// power-law storm), while staying OBLIVIOUS: every grant depends only on
// (t, the schedule's private RNG stream), never on simulator state.
//
// Reproducibility: the whole infinite interleaving is a pure function of
// (nprocs, seed), so a failing fuzz trial is re-run — and shrunk — from its
// seed alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/schedule.h"
#include "util/rng.h"

namespace apex::check {

class FuzzedSchedule final : public sim::Schedule {
 public:
  FuzzedSchedule(std::size_t nprocs, std::uint64_t seed);

  std::size_t next(std::uint64_t t) override;

  /// Bulk grants, delegated to the current segment's adversary and returned
  /// short at segment boundaries.  A new segment is composed only when a
  /// grant is actually demanded of it, so segments_generated() and
  /// describe() match the single-step engine regardless of prefetch depth.
  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override;

  /// "burst(p=0.97)x812 | blackout(awake=3)x120 | ..." for the segments
  /// generated so far (capped) — goes into failure reports.
  std::string describe() const;

  std::uint64_t segments_generated() const noexcept { return segment_no_; }

 private:
  void new_segment();

  apex::Rng rng_;                          ///< Segment-composition stream.
  std::unique_ptr<sim::Schedule> inner_;   ///< Current segment's adversary.
  std::uint64_t remaining_ = 0;            ///< Grants left in the segment.
  std::uint64_t segment_no_ = 0;
  std::vector<std::string> log_;           ///< Segment descriptions (capped).
};

/// Transparent wrapper that records every grant its inner schedule makes.
/// A recorded trace replayed through a ScriptedSchedule reproduces the
/// exact interleaving — the shrinker's raw material.
class RecordingSchedule final : public sim::Schedule {
 public:
  explicit RecordingSchedule(std::unique_ptr<sim::Schedule> inner)
      : Schedule(inner->nprocs()), inner_(std::move(inner)) {}

  std::size_t next(std::uint64_t t) override {
    const std::size_t p = inner_->next(t);
    trace_.push_back(p);
    return p;
  }

  std::size_t fill(std::span<std::uint32_t> grants, std::uint64_t t0) override {
    const std::size_t n = inner_->fill(grants, t0);
    for (std::size_t i = 0; i < n; ++i) trace_.push_back(grants[i]);
    return n;
  }

  bool is_oblivious() const noexcept override {
    return inner_->is_oblivious();
  }

  bool is_prefetchable() const noexcept override {
    return inner_->is_prefetchable();
  }

  /// Every grant DRAWN from the inner schedule, in order.  Under the batched
  /// engine this may exceed the executed trace by a prefetched tail; trim to
  /// Simulator::ticks() to recover exactly what ran.
  const std::vector<std::size_t>& trace() const noexcept { return trace_; }

 private:
  std::unique_ptr<sim::Schedule> inner_;
  std::vector<std::size_t> trace_;
};

}  // namespace apex::check
