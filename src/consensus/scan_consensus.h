// Classical-style multi-value agreement baseline (paper §1, related work).
//
// The adaptive-adversary consensus protocols the paper compares against
// (Aspnes-Herlihy, Attiya-Dolev-Shavit, Bracha-Rachman, ...) share a work
// shape: a processor cannot wait on any single peer (it might be stalled
// forever), so progress is made by REPEATEDLY READING ALL n single-writer
// registers — Θ(n) per scan, Θ(n) scans system-wide, i.e. Ω(n²) total work
// PER AGREED VALUE, hence Ω(n³) for the n values a PRAM step needs.  That
// is the cost the paper's bin-array protocol removes (O(n log n log log n)
// for all n values), and experiment E10 measures the gap.
//
// This module implements that structure as an honest stand-in
// (docs/ARCHITECTURE.md, "Substitutions"): per value i,
//   1. every processor draws f_i and writes it to its own register R[i][p]
//      (single-writer: no write contention),
//   2. processors scan all n registers until every register is filled,
//   3. decision: the proposal of the lowest-numbered processor (a
//      deterministic rule on the now-stable register set, so all
//      processors decide identically).
// It is NOT a wait-free consensus (a crashed processor stalls step 2 —
// exactly why real protocols need randomized shared coins and even more
// work); it reproduces the Θ(n²)-per-value READ-ALL cost with none of the
// extra machinery, which makes E10's comparison conservative.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agreement/protocol.h"
#include "sim/simulator.h"

namespace apex::consensus {

struct ScanConfig {
  std::size_t n = 0;          ///< Processors = values.
  std::uint64_t seed = 1;
  sim::ScheduleKind schedule = sim::ScheduleKind::kUniformRandom;
  /// Grant engine for the underlying simulator (the fuzzer's engine-
  /// equivalence corpus runs the same trial through both).
  sim::GrantEngine engine = sim::GrantEngine::kBatched;
};

/// Runs n processors agreeing on n values with the read-all baseline.
class ScanConsensus {
 public:
  /// `task` supplies f_i (same signature as the bin-array protocol so both
  /// sides of E10 agree on identical inputs).
  ScanConsensus(ScanConfig cfg, agreement::TaskFn task);

  /// As above, but under an explicit adversary (the fuzzer's entry point).
  /// `schedule` must be built for cfg.n processors; cfg.schedule is ignored.
  ScanConsensus(ScanConfig cfg, agreement::TaskFn task,
                std::unique_ptr<sim::Schedule> schedule);

  struct Result {
    bool completed = false;       ///< Every processor decided every value.
    std::uint64_t total_work = 0;
    std::vector<sim::Word> values;///< Decided value per index.
  };

  Result run(std::uint64_t max_work);

  /// Out-of-band: decisions recorded by processor p (for agreement checks).
  const std::vector<std::optional<sim::Word>>& decisions_of(std::size_t p) const {
    return decisions_.at(p);
  }

  sim::Simulator& simulator() noexcept { return *sim_; }

  /// Register layout for out-of-band inspectors: R[i][p] lives at
  /// register_base() + i*n + p, stamped 1 once written.
  std::size_t register_base() const noexcept { return reg_base_; }
  std::size_t values() const noexcept { return cfg_.n; }

 private:
  sim::ProcTask proc(sim::Ctx& ctx);

  ScanConfig cfg_;
  agreement::TaskFn task_;
  std::unique_ptr<sim::Simulator> sim_;
  std::size_t reg_base_ = 0;  ///< R[i][p] at reg_base_ + i*n + p.
  std::vector<std::vector<std::optional<sim::Word>>> decisions_;
};

}  // namespace apex::consensus
