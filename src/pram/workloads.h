// Canonical PRAM programs.
//
// These are the workloads the paper's introduction motivates: randomized
// parallel algorithms (symmetry breaking / MIS, leader election) that are
// NONDETERMINISTIC and therefore cannot be run by the older deterministic
// execution schemes, plus deterministic kernels (reduction) used to check
// the executor against the synchronous reference interpreter, plus a
// consistency probe designed to expose the deterministic scheme's failure
// mode on nondeterministic programs (bench E13).
//
// Two families:
//
//   * the REGULAR kernels (reduction, prefix sum, sort, coin matrix, ring
//     coloring, Luby, leader election, probe): lockstep dataflow, static
//     operand addressing, the communication pattern is independent of the
//     data;
//   * the IRREGULAR kernels (BFS frontier expansion, bitonic merge, CSR
//     sparse mat-vec, the work-stealing DAG): memory traffic and/or control
//     flow depend on run-time values — predicated updates via kSelect,
//     value-driven compare-exchange, computed-index gathers (kGatherDyn,
//     whose window base/bound are read from CSR row-offset arrays in
//     program memory), and random dataflow choices.  These are the
//     data-dependent programs the execution scheme is actually for.  The
//     graph-backed kernels (bfs, spmv) build their edge data with
//     src/graph/csr.h and scale to n = 1e5 on min(n, 4096) logical
//     processors.
//
// All programs obey the EREW discipline (validated at build()).
//
// Every canonical workload is also REGISTERED (workload_registry()) as a
// ready-to-run instance with baked inputs and a final-memory verdict, which
// is the single enumeration point for `apexcli exec`, the cross-executor
// differential suite, the fuzzer's protocol pool, and the perfbench grid.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pram/program.h"

namespace apex::pram {

/// Deterministic tournament sum of the initial values of vars [0, n).
/// n must be a power of two.  Result in var `reduction_result_var(n)`.
/// Uses 2·log2(n) steps and 3n+... scratch vars.
Program make_reduction(std::size_t n);
std::uint32_t reduction_result_var(std::size_t n);

/// One round of Luby-style maximal-independent-set symmetry breaking on the
/// n-cycle graph: every node draws a random priority in [0, k) and joins
/// the candidate set iff it is a strict local maximum.  Nondeterministic.
/// Invariant (any valid execution): no two adjacent nodes both join — var
/// `luby_violation_var(n, i)` must be 0 for every i.
Program make_luby_cycle_round(std::size_t n, Word k);
std::uint32_t luby_mis_var(std::size_t n, std::size_t i);
std::uint32_t luby_violation_var(std::size_t n, std::size_t i);
std::uint32_t luby_priority_var(std::size_t n, std::size_t i);

/// Randomized leader election: every thread draws a ticket in [0, k), a
/// max-tournament finds the winning ticket, a doubling broadcast spreads
/// it, and every thread sets leader[i] = (ticket_i == max).  n must be a
/// power of two.  Nondeterministic.
/// Invariants: at least one leader; every leader holds the maximum ticket.
Program make_leader_election(std::size_t n, Word k);
std::uint32_t leader_flag_var(std::size_t n, std::size_t i);
std::uint32_t leader_ticket_var(std::size_t n, std::size_t i);
std::uint32_t leader_max_var(std::size_t n, std::size_t i);

/// Consistency probe (bench E13): thread 0 draws R once; a copy chain of
/// length `chain` relays it through distinct threads/steps; equality flags
/// compare consecutive chain links.  In ANY valid execution every flag is 1;
/// the deterministic baseline scheme run on this nondeterministic program
/// violates the flags under tardy schedules.
/// Requires n >= 2 and chain >= 1.
Program make_consistency_probe(std::size_t n, std::size_t chain, Word k);
std::uint32_t probe_flag_var(std::size_t n, std::size_t chain, std::size_t j);
std::size_t probe_flag_count(std::size_t chain);

/// T steps of independent biased coins: thread i at step s writes
/// coin_matrix_var(n, s, i).  Used for scheme-level distribution checks
/// (Claim 8 at the executor level).
Program make_coin_matrix(std::size_t n, std::size_t t, double p);
std::uint32_t coin_matrix_var(std::size_t n, std::size_t s, std::size_t i);

/// Deterministic inclusive prefix sum (Hillis-Steele doubling) of the
/// initial values of vars [0, n).  n must be a power of two.  Each round
/// stages the shifted operand through a scratch array so every variable is
/// read by exactly one thread per step (EREW).  lg n rounds of 2 steps.
/// Result: prefix_sum_var(n, i) = sum of inputs [0..i].
Program make_prefix_sum(std::size_t n);
std::uint32_t prefix_sum_var(std::size_t n, std::size_t i);

/// Deterministic odd-even transposition sort of the initial values of vars
/// [0, n); n rounds of compare-exchange on alternating pair sets, each
/// implemented as min/max into staging vars then copies back (EREW).
/// Requires n >= 2 and even.  Result: sorted ascending in
/// sort_var(n, 0) .. sort_var(n, n-1).
Program make_odd_even_sort(std::size_t n);
std::uint32_t sort_var(std::size_t n, std::size_t i);

/// One round of randomized ring coloring: every node of the n-cycle draws a
/// color in [0, palette); conflict flags compare each node with its right
/// neighbour.  Nondeterministic.  Invariant (any valid execution):
/// ring_conflict_var(n, i) == (color_i == color_{i+1}) for the SAME agreed
/// draws — i.e. flags are consistent with the color array, which only an
/// agreement-based scheme guarantees.
Program make_ring_coloring(std::size_t n, Word palette);
std::uint32_t ring_color_var(std::size_t n, std::size_t i);
std::uint32_t ring_conflict_var(std::size_t n, std::size_t i);

// ---------------------------------------------------------------------------
// Irregular / data-dependent kernels
// ---------------------------------------------------------------------------

/// BFS frontier expansion on a deterministic pseudo-random directed graph
/// over n nodes (ring chords at the deduped offsets of {1, n-1, 3%n,
/// (n-3)%n}, each edge kept or dropped by a hash of (n, offset, node)).
/// The in-edge lists are built into a CSR (src/graph/csr.h), the
/// delta-compressed column stream is loaded into program MEMORY, and the
/// program unpacks it through kGatherDyn windows whose base/bound come
/// from the row-offset data, then runs `rounds` frontier waves gathering
/// frontier bits through the unpacked columns.  P = min(n, 4096) logical
/// processors own contiguous weight-balanced vertex slices.
/// Deterministic.  Requires n >= 6.  dist[i] = BFS distance from node 0,
/// or bfs_unreached(n) when node i is farther than `rounds` (or
/// unreachable).
Program make_bfs_frontier(std::size_t n, std::size_t rounds);
std::size_t bfs_rounds(std::size_t n);        ///< Canonical round count.
std::uint32_t bfs_dist_var(std::size_t n, std::size_t i);
Word bfs_unreached(std::size_t n);            ///< Distance sentinel.
/// The mask baked into the program for edge (i - offset[o]) -> i; o indexes
/// the canonical offset list {1, n-1, 3%n, (n-3)%n}.  Exposed so checkers
/// can rebuild the exact graph.
bool bfs_edge_active(std::size_t n, std::size_t o, std::size_t i);
/// The DEDUPED canonical offsets as (offset, mask index o) pairs: at small
/// n two entries of {1, n-1, 3%n, (n-3)%n} can coincide (n=6: 3 == n-3);
/// each distinct offset is kept once with the FIRST o, so an edge is never
/// counted twice under two masks.  Checkers iterate exactly this list.
std::vector<std::pair<std::size_t, std::size_t>> bfs_offsets(std::size_t n);

/// Bitonic (butterfly) merge of a bitonic input: a[0..n/2) ascending,
/// a[n/2..n) descending.  lg n butterfly stages of value-driven
/// compare-exchange (partner i XOR d), each staged min/max + copy-back.
/// Deterministic; n must be a power of two >= 2.  Result ascending in
/// merge_var(n, 0..n).
Program make_bitonic_merge(std::size_t n);
std::uint32_t merge_var(std::size_t n, std::size_t i);

/// Sparse matrix-vector product y = A*x in CSR form over a deterministic
/// pseudo-random sparse matrix (irregular row degrees, hash-scattered
/// column indices).  The instance's duplicate (row, col) pairs are merged
/// by the CSR builder (coefficients sum; wrapping add keeps y identical)
/// and the row-offset / column / value arrays are loaded into program
/// MEMORY: every row walk is a chain of kGatherDyn loads whose window
/// base/bound come from the row-offset data — genuine data-dependent
/// addressing on every executor.  P = min(n, 4096) logical processors own
/// contiguous nnz-balanced row slices.  Deterministic.  Requires n >= 2.
Program make_spmv_csr(std::size_t n);
std::uint32_t spmv_y_var(std::size_t n, std::size_t i);
/// The CSR instance make_spmv_csr(n) bakes (checkers rebuild y from this).
struct SpmvInstance {
  std::vector<std::size_t> row_ptr;  ///< n+1 entries.
  std::vector<std::size_t> col;      ///< nnz column indices.
  std::vector<Word> val;             ///< nnz coefficients.
  std::vector<Word> x;               ///< n input vector values.
};
SpmvInstance spmv_instance(std::size_t n);

/// Work-stealing-shaped DAG: `levels` levels of n tasks; each task flips a
/// coin to claim its work item either from its own lane or steal from the
/// right neighbour's lane, then extends that chain (value + 1).  The
/// DATAFLOW DAG is decided by run-time random draws.  Nondeterministic.
/// Self-declared final-memory invariant (any valid execution): every coin
/// is 0/1, both staged parent copies match the previous level, and each
/// task value extends exactly the parent its coin selected —
/// the consistency a deterministic scheme cannot guarantee.
/// Requires n >= 2.
Program make_steal_dag(std::size_t n, std::size_t levels);
std::size_t steal_dag_levels(std::size_t n);  ///< Canonical level count.
std::uint32_t dag_value_var(std::size_t n, std::size_t levels, std::size_t l,
                            std::size_t w);
std::uint32_t dag_coin_var(std::size_t n, std::size_t levels, std::size_t l,
                           std::size_t w);

// ---------------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------------

/// One registered canonical workload: a ready-to-run factory (inputs baked
/// into a constants prologue, parameters fixed to canonical values) plus a
/// final-memory verdict.  `apexcli exec`, the cross-executor differential
/// suite, the fuzzer's workload trials and the perfbench workload rows all
/// enumerate this table — register new kernels here and every harness picks
/// them up.
struct WorkloadSpec {
  const char* name;
  const char* summary;
  bool deterministic;  ///< Final memory must equal the synchronous reference.
  bool irregular;      ///< Data-dependent control flow / addressing.
  std::size_t min_n;   ///< Smallest supported thread count.
  bool pow2_n;         ///< Thread count must be a power of two.
  bool even_n;         ///< Thread count must be even.
  Program (*make)(std::size_t n);
  /// Empty string iff `mem` is a valid final memory of make(n) under SOME
  /// valid execution: deterministic kernels recompute the expected answer
  /// in plain C++ (independent of the interpreter), nondeterministic ones
  /// check their self-declared invariants.
  std::string (*check)(std::size_t n, const std::vector<Word>& mem);
  /// Canonical LARGE-n instances (the host scaling study's grid): sizes far
  /// beyond a runner's core count that the virtualized host executor drives
  /// on a handful of OS threads.  Empty = small-instance kernel only.  The
  /// bench_e12 scaling table, the differential suite's P >> T section and
  /// the fuzzer's large-n trials enumerate these.
  std::vector<std::size_t> scale_ns;
  /// Per-logical-processor work weights of make(n), or nullptr when every
  /// processor runs the same instruction mix.  Graph-backed kernels report
  /// the degree mass of the CSR partition each processor owns; harnesses
  /// feed this into HostExecConfig::proc_weights (Interleave::kPartition)
  /// so each OS thread owns a weight-balanced slice of the processors that
  /// walk those partitions.
  std::vector<std::uint64_t> (*proc_weights)(std::size_t n) = nullptr;
};

const std::vector<WorkloadSpec>& workload_registry();
const WorkloadSpec* find_workload(const std::string& name);
bool workload_supports_n(const WorkloadSpec& spec, std::size_t n);
/// Comma-separated registry names (CLI help/usage).
std::string workload_names();

}  // namespace apex::pram
