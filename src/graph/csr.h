#pragma once
// Compressed-sparse-row graph substrate for the PRAM workloads.
//
// The bfs/spmv kernels used to unroll O(n^2) edge masks straight into
// program instructions; at n >= 10^4 that is both too big to build and
// meaningless as a measurement.  This module gives them a real edge
// representation:
//
//   * CsrBuilder  -- collects (row, col [, val]) triplets, validates
//     indices, sorts each row, merges duplicates (values sum with
//     wrapping uint64 arithmetic, matching PRAM word semantics), and
//     emits row offsets + strictly-increasing column indices.
//   * delta_encode / delta_decode -- the in-program-memory layout.
//     Per row, the first entry is the absolute column biased by +1
//     (so 0 can serve as a "no edge" guard in gathered frontiers) and
//     every later entry is the gap to the previous column (>= 1, since
//     rows are deduped and strictly increasing).  A prefix sum inside
//     the row recovers the biased columns.
//   * partition_balanced -- contiguous weight-balanced cuts, used by
//     the workloads to map rows onto logical processors and by the
//     host executor's partition-aware interleave policy to align OS
//     thread slices with those cuts.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace apex::graph {

// Frozen CSR form.  row_offsets has n_rows()+1 entries; cols holds the
// strictly increasing column indices of each row back to back; vals is
// either empty (unweighted) or parallel to cols.
struct Csr {
  std::vector<std::uint32_t> row_offsets;
  std::vector<std::uint32_t> cols;
  std::vector<std::uint64_t> vals;

  std::size_t n_rows() const {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
  std::size_t nnz() const { return cols.size(); }
  std::uint32_t degree(std::size_t row) const {
    return row_offsets[row + 1] - row_offsets[row];
  }
  std::uint32_t max_degree() const;
};

class CsrBuilder {
 public:
  // n_rows x n_cols shape; both bounds are validated on every add_edge.
  CsrBuilder(std::size_t n_rows, std::size_t n_cols);

  // Unweighted edge; mixing weighted and unweighted edges in one
  // builder throws at build() time.
  void add_edge(std::size_t row, std::size_t col);
  void add_edge(std::size_t row, std::size_t col, std::uint64_t val);

  // Sort + dedup (duplicate (row,col) values sum, wrapping) and freeze.
  // The builder may be reused afterwards; build() does not consume it.
  Csr build() const;

  std::size_t n_rows() const { return n_rows_; }

 private:
  void push(std::size_t row, std::size_t col, std::uint64_t val);

  struct Edge {
    std::uint32_t row;
    std::uint32_t col;
    std::uint64_t val;
  };
  std::size_t n_rows_;
  std::size_t n_cols_;
  bool weighted_ = false;
  bool unweighted_ = false;
  std::vector<Edge> edges_;
};

// In-program-memory column layout: nnz words, per row [col0+1, gap1,
// gap2, ...].  Requires strictly increasing rows (i.e. a built Csr).
std::vector<std::uint64_t> delta_encode(const Csr& csr);

// Inverse of delta_encode: recovers the unbiased column indices from a
// delta stream plus the row offsets.  Throws if the stream is not a
// valid encoding (zero gap, zero leading entry, overflowing column).
std::vector<std::uint32_t> delta_decode(
    const std::vector<std::uint32_t>& row_offsets,
    const std::vector<std::uint64_t>& delta);

// Contiguous weight-balanced partition: returns parts+1 cut points with
// bounds[0] == 0 and bounds[parts] == weights.size(), chosen greedily so
// each part's weight tracks total/parts.  Zero-weight items are legal;
// parts may exceed weights.size() (some parts then come out empty).
std::vector<std::uint32_t> partition_balanced(
    const std::vector<std::uint64_t>& weights, std::size_t parts);

}  // namespace apex::graph
