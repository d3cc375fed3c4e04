// Deliberate protocol mutations for oracle self-testing.
//
// A checker that never fires is indistinguishable from a checker that
// cannot fire.  The self-test (src/check/selftest.h) proves each invariant
// oracle non-vacuous by switching on a small, realistic bug in the protocol
// under test and asserting that exactly the designated oracle reports it.
//
// The active mutation is THREAD-LOCAL so that fuzz trials running on the
// SweepEngine worker pool stay independent: a self-test trial enables its
// mutation on its own worker thread only, and the flag is restored when the
// ScopedMutation guard leaves scope.  With no mutation active the gated
// code paths are byte-for-byte the original protocol (a single thread-local
// enum compare), so production runs pay nothing.
//
// This header is intentionally dependency-free: the mutation gates live in
// lower layers (sim/, clock/, agreement/, consensus/) which must not pull
// the rest of src/check/ in.
#pragma once

#include <cstdint>
#include <vector>

namespace apex::check {

enum class Mutation : std::uint8_t {
  kNone = 0,
  /// agreement_cycle's copy-forward writes prev.value + 1 — the classic
  /// off-by-one.  Caught by BinArrayOracle (copy provenance).
  kCopyOffByOne,
  /// agreement cycles stamp their bin writes with phase - 1 once past phase
  /// 1 — a processor that never refreshes its timestamp.  Every such write
  /// is a clobber of the true phase; caught by ClobberOracle (Lemma 1
  /// bound).
  kStaleStamp,
  /// PhaseClock::update writes slot + 2 instead of slot + 1.  Caught by
  /// ClockOracle (an update may advance a slot by at most one).
  kClockDoubleIncrement,
  /// ScanConsensus decides its own proposal instead of the lowest-numbered
  /// processor's.  Caught by ConsensusOracle (agreement).
  kConsensusDecideOwn,
  /// Simulator charges 2 work units for a Local step but still emits one
  /// StepEvent.  Caught by WorkAccountingOracle (events == total work).
  kWorkDoubleCharge,
};

const char* mutation_name(Mutation m) noexcept;

/// Every real mutation (kNone excluded), for self-test sweeps.
std::vector<Mutation> all_mutations();

namespace detail {
inline thread_local Mutation g_active = Mutation::kNone;
}

/// Is `m` the active mutation on this thread?  (Gate used by protocol code.)
inline bool mutation_enabled(Mutation m) noexcept {
  return detail::g_active == m;
}

/// RAII guard: activates `m` on this thread for its lifetime.
class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation m) noexcept : prev_(detail::g_active) {
    detail::g_active = m;
  }
  ~ScopedMutation() { detail::g_active = prev_; }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;

 private:
  Mutation prev_;
};

}  // namespace apex::check
