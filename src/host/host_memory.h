// Real-thread host substrate: timestamped words on std::atomic.
//
// The A-PRAM model postulates that a word and its timestamp are read or
// written together in ONE atomic operation (paper §1).  On real hardware we
// realize that by packing both into a single 64-bit word: 40 bits of value,
// 24 bits of stamp (the paper needs only O(log n) stamp bits).  All
// accesses are plain loads/stores — no compare-and-swap anywhere, matching
// the model's "no compound read-write atomicity".
//
// Memory order: callers choose per access.  The default is seq_cst; its
// callers are quiescent (the executor's post-join audit and repair,
// agreed_values(), fault injection in tests and the benchmark), where any
// order reads exactly and seq_cst costs nothing measurable, so the safe
// order stays the default.
// The virtualized executor (host_executor.cpp) downgrades protocol words to
// relaxed/acq-rel orders — each downgrade carries a proof obligation at its
// use site arguing why the weaker order cannot introduce any behavior a
// legal oblivious adversary could not already produce — and offers a
// seq_cst fidelity fallback (HostExecConfig::seq_cst).  The one property
// every order shares, and the only one the word+stamp discipline consumes,
// is per-word atomicity + coherence: a load returns some value previously
// stored to THAT word, never a torn mix.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace apex::host {

struct HostCell {
  std::uint64_t value = 0;
  std::uint32_t stamp = 0;
};

struct Pack {
  static constexpr int kStampBits = 24;
  static constexpr std::uint64_t kStampMask = (1ULL << kStampBits) - 1;
  static constexpr std::uint64_t kValueLimit = 1ULL << (64 - kStampBits);

  static std::uint64_t pack(std::uint64_t value, std::uint32_t stamp) {
    if (value >= kValueLimit)
      throw std::out_of_range("host::Pack: value exceeds 40 bits");
    return (value << kStampBits) | (stamp & kStampMask);
  }
  static std::uint64_t value_of(std::uint64_t w) { return w >> kStampBits; }
  static std::uint32_t stamp_of(std::uint64_t w) {
    return static_cast<std::uint32_t>(w & kStampMask);
  }
};

class HostMemory {
 public:
  explicit HostMemory(std::size_t words) : cells_(words) {
    for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
  }

  std::size_t size() const noexcept { return cells_.size(); }

  HostCell read(std::size_t addr,
                std::memory_order mo = std::memory_order_seq_cst) const {
    const std::uint64_t w = cells_.at(addr).load(mo);
    return HostCell{Pack::value_of(w), Pack::stamp_of(w)};
  }

  void write(std::size_t addr, std::uint64_t value, std::uint32_t stamp,
             std::memory_order mo = std::memory_order_seq_cst) {
    cells_.at(addr).store(Pack::pack(value, stamp), mo);
  }

  // Unchecked variants for hot paths whose addresses were validated when
  // the layout was built (the executor proves every plan address in range
  // at construction; Debug builds keep the assert).  Mirrors the simulator
  // fast path's Memory::at_unchecked contract.
  HostCell read_unchecked(std::size_t addr, std::memory_order mo) const {
    assert(addr < cells_.size());
    const std::uint64_t w = cells_[addr].load(mo);
    return HostCell{Pack::value_of(w), Pack::stamp_of(w)};
  }

  void write_unchecked(std::size_t addr, std::uint64_t value,
                       std::uint32_t stamp, std::memory_order mo) {
    assert(addr < cells_.size());
    cells_[addr].store(Pack::pack(value, stamp), mo);
  }

 private:
  // deque-like stability not needed; atomics are not movable, so the vector
  // is sized once in the constructor and never resized.
  std::vector<std::atomic<std::uint64_t>> cells_;
};

}  // namespace apex::host
