// Shared memory of the simulated A-PRAM host.
//
// A flat array of timestamped cells.  Only the simulator touches it while a
// run is in progress (one atomic op per scheduler grant); tests and
// inspectors may read it freely between grants — such reads are outside the
// model and cost no work.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/word.h"

namespace apex::sim {

class Memory {
 public:
  explicit Memory(std::size_t words) : cells_(words) {}

  std::size_t size() const noexcept { return cells_.size(); }

  /// Grow the address space (used by layered layouts: program vars, bins,
  /// clock slots are carved out of one memory).  Returns the base address of
  /// the newly added region.
  std::size_t extend(std::size_t words) {
    const std::size_t base = cells_.size();
    cells_.resize(cells_.size() + words);
    return base;
  }

  const Cell& at(std::size_t addr) const {
    check(addr);
    return cells_[addr];
  }

  Cell& at(std::size_t addr) {
    check(addr);
    return cells_[addr];
  }

  /// Raw cell array the batched engine's step awaiters execute against
  /// (proc.h).  The pointer is stable for the duration of a run(): regions
  /// are carved out with extend() strictly before processors run
  /// (extending mid-run would invalidate it and is not supported).
  Cell* data() noexcept { return cells_.data(); }
  const Cell* data() const noexcept { return cells_.data(); }

 private:
  void check(std::size_t addr) const {
    if (addr >= cells_.size())
      throw std::out_of_range("apex::sim::Memory: address " +
                              std::to_string(addr) + " >= size " +
                              std::to_string(cells_.size()));
  }

  std::vector<Cell> cells_;
};

}  // namespace apex::sim
