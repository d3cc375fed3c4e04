#include "pram/workloads.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/csr.h"
#include "util/math.h"
#include "util/rng.h"

namespace apex::pram {

namespace {
/// Narrowing guard for variable ids.  Graph-scale layouts put region bases
/// at multiples of n and nnz; past 2^32 a blind cast would silently wrap
/// into another region's cells, so overflow throws instead.
std::uint32_t checked_u32(std::size_t v) {
  if (v > std::numeric_limits<std::uint32_t>::max())
    throw std::overflow_error("workload variable id " + std::to_string(v) +
                              " overflows uint32");
  return static_cast<std::uint32_t>(v);
}

void require_pow2(std::size_t n, const char* who) {
  if (!is_pow2(n) || n < 2)
    throw std::invalid_argument(std::string(who) +
                                ": n must be a power of two >= 2");
}
}  // namespace

// ---------------------------------------------------------------------------
// Reduction: vars layout [in: 0..n) [bufA: n..2n) [bufB: 2n..3n) [tmp: 3n..4n)
// Round d halves the active size; buffers alternate so no step reads and
// writes the same variable.
// ---------------------------------------------------------------------------

std::uint32_t reduction_result_var(std::size_t n) {
  // Round 1 writes bufA (base n), round 2 writes bufB (base 2n), and the
  // buffers alternate; the result is cell 0 of the last round's buffer.
  const std::uint32_t rounds = lg(n);
  return (rounds % 2 == 1) ? checked_u32(n) : checked_u32(2 * n);
}

Program make_reduction(std::size_t n) {
  require_pow2(n, "make_reduction");
  const std::size_t in = 0, bufA = n, bufB = 2 * n, tmp = 3 * n;
  ProgramBuilder b(n, 4 * n);

  // Round 1 reads `in`, writes bufA[0..n/2).
  std::size_t active = n;
  std::size_t src = in;
  std::size_t dst = bufA;
  while (active > 1) {
    const std::size_t half = active / 2;
    {
      auto s = b.step();
      for (std::size_t i = 0; i < half; ++i)
        s.thread(i, Instr::copy(checked_u32(tmp + i), checked_u32(src + 2 * i + 1)));
    }
    {
      auto s = b.step();
      for (std::size_t i = 0; i < half; ++i)
        s.thread(i, Instr::add(checked_u32(dst + i), checked_u32(src + 2 * i), checked_u32(tmp + i)));
    }
    src = dst;
    dst = (dst == bufA) ? bufB : bufA;
    active = half;
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Luby round on the n-cycle.
// Layout: r[0..n) cl[n..2n) cr[2n..3n) a[3n..4n) bq[4n..5n) mis[5n..6n)
//         nl[6n..7n) viol[7n..8n)
// ---------------------------------------------------------------------------

std::uint32_t luby_priority_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}
std::uint32_t luby_mis_var(std::size_t n, std::size_t i) { return checked_u32(5 * n + i); }
std::uint32_t luby_violation_var(std::size_t n, std::size_t i) {
  return checked_u32(7 * n + i);
}

Program make_luby_cycle_round(std::size_t n, Word k) {
  if (n < 3)
    throw std::invalid_argument("make_luby_cycle_round: need n >= 3");
  const std::size_t r = 0, cl = n, cr = 2 * n, a = 3 * n, bq = 4 * n,
                    mis = 5 * n, nl = 6 * n, viol = 7 * n;
  ProgramBuilder b(n, 8 * n);

  b.step().all([&](std::size_t i) { return Instr::rand_below(checked_u32(r + i), k); });
  // Stage left/right neighbour priorities (each r[j] read exactly once per
  // step).
  b.step().all([&](std::size_t i) {
    return Instr::copy(checked_u32(cl + i), checked_u32(r + (i + n - 1) % n));
  });
  b.step().all([&](std::size_t i) {
    return Instr::copy(checked_u32(cr + i), checked_u32(r + (i + 1) % n));
  });
  // Strict local maximum test.
  b.step().all([&](std::size_t i) {
    return Instr::less(checked_u32(a + i), checked_u32(cl + i), checked_u32(r + i));
  });
  b.step().all([&](std::size_t i) {
    return Instr::less(checked_u32(bq + i), checked_u32(cr + i), checked_u32(r + i));
  });
  b.step().all([&](std::size_t i) {
    return Instr::and_(checked_u32(mis + i), checked_u32(a + i), checked_u32(bq + i));
  });
  // Independence check: viol[i] = mis[i] AND mis[i-1] must be 0.
  b.step().all([&](std::size_t i) {
    return Instr::copy(checked_u32(nl + i), checked_u32(mis + (i + n - 1) % n));
  });
  b.step().all([&](std::size_t i) {
    return Instr::and_(checked_u32(viol + i), checked_u32(mis + i), checked_u32(nl + i));
  });
  return b.build();
}

// ---------------------------------------------------------------------------
// Leader election.
// Layout: r[0..n) mA[n..2n) mB[2n..3n) tmp[3n..4n) bc[4n..5n) lead[5n..6n)
// ---------------------------------------------------------------------------

std::uint32_t leader_ticket_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}
std::uint32_t leader_flag_var(std::size_t n, std::size_t i) {
  return checked_u32(5 * n + i);
}
std::uint32_t leader_max_var(std::size_t n, std::size_t i) {
  return checked_u32(4 * n + i);
}

Program make_leader_election(std::size_t n, Word k) {
  require_pow2(n, "make_leader_election");
  const std::size_t r = 0, mA = n, mB = 2 * n, tmp = 3 * n, bc = 4 * n,
                    lead = 5 * n;
  ProgramBuilder b(n, 6 * n);

  b.step().all([&](std::size_t i) { return Instr::rand_below(checked_u32(r + i), k); });

  // Max tournament: round 0 reads r, later rounds alternate mA/mB.
  std::size_t active = n;
  std::size_t src = r;
  std::size_t dst = mA;
  while (active > 1) {
    const std::size_t half = active / 2;
    {
      auto s = b.step();
      for (std::size_t i = 0; i < half; ++i)
        s.thread(i, Instr::copy(checked_u32(tmp + i), checked_u32(src + 2 * i + 1)));
    }
    {
      auto s = b.step();
      for (std::size_t i = 0; i < half; ++i)
        s.thread(i, Instr::max(checked_u32(dst + i), checked_u32(src + 2 * i), checked_u32(tmp + i)));
    }
    src = dst;
    dst = (dst == mA) ? mB : mA;
    active = half;
  }

  // Broadcast the winner into bc[0..n) by doubling.
  b.step().thread(0, Instr::copy(checked_u32(bc + 0), checked_u32(src + 0)));
  for (std::size_t width = 1; width < n; width *= 2) {
    auto s = b.step();
    for (std::size_t i = 0; i < width && width + i < n; ++i)
      s.thread(i, Instr::copy(checked_u32(bc + width + i), checked_u32(bc + i)));
  }

  // leader[i] = (r[i] == bc[i]).
  b.step().all([&](std::size_t i) {
    return Instr::eq(checked_u32(lead + i), checked_u32(r + i), checked_u32(bc + i));
  });
  return b.build();
}

// ---------------------------------------------------------------------------
// Consistency probe.
// Layout: R=0, chain c[1..chain], flags f[chain+1 .. chain+chain)
// flag f_j = (c_j == c_{j+1}) for j = 1..chain-1, plus f_0 = (c_1 == c_chain)
// computed last.
// ---------------------------------------------------------------------------

std::size_t probe_flag_count(std::size_t chain) { return chain; }

std::uint32_t probe_flag_var(std::size_t n, std::size_t chain, std::size_t j) {
  (void)n;
  return checked_u32(1 + chain + j);
}

Program make_consistency_probe(std::size_t n, std::size_t chain, Word k) {
  if (n < 2) throw std::invalid_argument("make_consistency_probe: n >= 2");
  if (chain < 1) throw std::invalid_argument("make_consistency_probe: chain >= 1");
  const std::size_t kR = 0;
  auto c_var = [&](std::size_t j) { return checked_u32(1 + (j - 1)); };  // c_1..c_chain
  ProgramBuilder b(n, 1 + chain + probe_flag_count(chain));

  b.step().thread(0, Instr::rand_below(checked_u32(kR), k));
  b.step().thread(0, Instr::copy(c_var(1), checked_u32(kR)));
  for (std::size_t j = 2; j <= chain; ++j)
    b.step().thread((j - 1) % n, Instr::copy(c_var(j), c_var(j - 1)));
  // Flags: f_j = eq(c_j, c_{j+1}); one comparison per step keeps EREW.
  for (std::size_t j = 1; j < chain; ++j)
    b.step().thread(j % n,
                    Instr::eq(probe_flag_var(n, chain, j), c_var(j), c_var(j + 1)));
  // Closing flag: the chain end must equal the chain start.
  b.step().thread(1, Instr::eq(probe_flag_var(n, chain, 0), c_var(1),
                               c_var(chain)));
  return b.build();
}

// ---------------------------------------------------------------------------
// Coin matrix.
// ---------------------------------------------------------------------------

std::uint32_t coin_matrix_var(std::size_t n, std::size_t s, std::size_t i) {
  return checked_u32(s * n + i);
}

Program make_coin_matrix(std::size_t n, std::size_t t, double p) {
  if (n == 0 || t == 0)
    throw std::invalid_argument("make_coin_matrix: n, t >= 1");
  ProgramBuilder b(n, n * t);
  for (std::size_t s = 0; s < t; ++s) {
    b.step().all([&](std::size_t i) {
      return Instr::coin(coin_matrix_var(n, s, i), p);
    });
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Prefix sum (Hillis-Steele doubling).
// Layout: a[0..n) stage[n..2n).
// Round d (offset = 2^d): stage[i] = a[i - offset] (thread i copies its own
// staged operand, so a[j] is read only by thread j + offset), then
// a[i] = a[i] + stage[i] for i >= offset.  Reading and writing a[i] in one
// step is legal under split execution.
// ---------------------------------------------------------------------------

std::uint32_t prefix_sum_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}

Program make_prefix_sum(std::size_t n) {
  require_pow2(n, "make_prefix_sum");
  const std::size_t a = 0, stage = n;
  ProgramBuilder b(n, 2 * n);
  for (std::size_t offset = 1; offset < n; offset *= 2) {
    {
      auto s = b.step();
      for (std::size_t i = offset; i < n; ++i)
        s.thread(i, Instr::copy(checked_u32(stage + i), checked_u32(a + i - offset)));
    }
    {
      auto s = b.step();
      for (std::size_t i = offset; i < n; ++i)
        s.thread(i, Instr::add(checked_u32(a + i), checked_u32(a + i), checked_u32(stage + i)));
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Odd-even transposition sort.
// Layout: a[0..n) lo[n..3n/2...] — staging lo/hi indexed by pair.
// Round r compares pairs (first, first+1) with first = 2p + (r odd), via
// one thread per pair computing min then max into staging vars, then the
// pair's two threads copying them back.
// ---------------------------------------------------------------------------

std::uint32_t sort_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}

Program make_odd_even_sort(std::size_t n) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("make_odd_even_sort: n must be even and >= 2");
  const std::size_t a = 0, lo = n, hi = n + n / 2;
  ProgramBuilder b(n, 2 * n);
  for (std::size_t round = 0; round < n; ++round) {
    const std::size_t start = round % 2;  // even rounds pair (0,1),(2,3),...
    std::vector<std::size_t> firsts;
    for (std::size_t f = start; f + 1 < n; f += 2) firsts.push_back(f);
    if (firsts.empty()) continue;
    {
      auto s = b.step();
      for (std::size_t p = 0; p < firsts.size(); ++p)
        s.thread(p, Instr::min(checked_u32(lo + p), checked_u32(a + firsts[p]),
                               checked_u32(a + firsts[p] + 1)));
    }
    {
      auto s = b.step();
      for (std::size_t p = 0; p < firsts.size(); ++p)
        s.thread(p, Instr::max(checked_u32(hi + p), checked_u32(a + firsts[p]),
                               checked_u32(a + firsts[p] + 1)));
    }
    {
      auto s = b.step();
      for (std::size_t p = 0; p < firsts.size(); ++p) {
        s.thread(firsts[p], Instr::copy(checked_u32(a + firsts[p]), checked_u32(lo + p)));
        s.thread(firsts[p] + 1, Instr::copy(checked_u32(a + firsts[p] + 1), checked_u32(hi + p)));
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Randomized ring coloring.
// Layout: col[0..n) right[n..2n) conf[2n..3n).
// ---------------------------------------------------------------------------

std::uint32_t ring_color_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}
std::uint32_t ring_conflict_var(std::size_t n, std::size_t i) {
  return checked_u32(2 * n + i);
}

Program make_ring_coloring(std::size_t n, Word palette) {
  if (n < 3) throw std::invalid_argument("make_ring_coloring: need n >= 3");
  if (palette < 2)
    throw std::invalid_argument("make_ring_coloring: palette >= 2");
  const std::size_t col = 0, right = n, conf = 2 * n;
  ProgramBuilder b(n, 3 * n);
  b.step().all(
      [&](std::size_t i) { return Instr::rand_below(checked_u32(col + i), palette); });
  b.step().all([&](std::size_t i) {
    return Instr::copy(checked_u32(right + i), checked_u32(col + (i + 1) % n));
  });
  b.step().all([&](std::size_t i) {
    return Instr::eq(checked_u32(conf + i), checked_u32(col + i), checked_u32(right + i));
  });
  return b.build();
}

// ---------------------------------------------------------------------------
// BFS frontier expansion on a CSR graph (irregular: dynamic-window gathers
// walk real edge arrays at run time).
//
// The in-edges of every vertex are built into a graph::Csr, delta-encoded,
// and loaded into program memory as DATA; the program itself unpacks the
// delta stream into an adjacency array through kGatherDyn windows whose
// base/bound come from the row-offset data, then runs `rounds` frontier
// waves gathering frontier bits through the unpacked columns.  Layout:
//
//   dist[n] frontA[n+1] frontB[n+1] rp[n+1] rpe[n] delta[nnz] adj[nnz]
//   reach[n] u[n] | per-proc scratch: ptr bnd gt zer np1 sent one roundv
//
// P = min(n, 4096) logical processors own contiguous weight-balanced
// vertex slices (graph::partition_balanced); per-vertex instruction lanes
// are concatenated per processor and nop-padded to the phase depth, so a
// processor's step count tracks the degree mass it owns.  Frontier buffers
// alternate per round; cell 0 of each buffer is a guard that stays 0, and
// columns are stored biased by +1 so only out-of-range data could land on
// the guard.  All cross-processor reads are CREW segment loads of frozen
// data (delta, the read-side frontier); everything else is owner-exclusive,
// so the EREW checker passes at any lane alignment.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kBfsTag = 0xBF5;

/// Logical processor count of the graph-scale kernels: n itself while n is
/// small, capped so graph-scale instances stay schedulable.
constexpr std::size_t kGraphProcCap = 4096;
std::size_t graph_procs(std::size_t n) { return std::min(n, kGraphProcCap); }

/// Per-processor instruction lanes: phase-local programs of different
/// lengths, emitted as lockstep steps nop-padded to the deepest lane.  The
/// caller must keep every instruction's operands owner-exclusive (or CREW
/// segment reads) so the emitted steps are EREW at ANY alignment.
class Lanes {
 public:
  explicit Lanes(std::size_t nprocs) : lanes_(nprocs) {}
  void add(std::size_t p, Instr ins) { lanes_[p].push_back(ins); }
  void emit(ProgramBuilder& b) {
    std::size_t depth = 0;
    for (const auto& l : lanes_) depth = std::max(depth, l.size());
    for (std::size_t k = 0; k < depth; ++k) {
      auto s = b.step();
      for (std::size_t p = 0; p < lanes_.size(); ++p)
        if (k < lanes_[p].size()) s.thread(p, lanes_[p][k]);
    }
    for (auto& l : lanes_) l.clear();
  }

 private:
  std::vector<std::vector<Instr>> lanes_;
};

/// Strided constant-array load: thread i writes cells base + k*P + i.
template <typename ValFn>
void load_const_array(ProgramBuilder& b, std::size_t nprocs, std::size_t base,
                      std::size_t len, ValFn&& valfn) {
  for (std::size_t k = 0; k < len; k += nprocs) {
    auto s = b.step();
    for (std::size_t i = 0; i < nprocs && k + i < len; ++i)
      s.thread(i, Instr::constant(checked_u32(base + k + i), valfn(k + i)));
  }
}

/// In-edge CSR of the baked bfs graph: row i holds the sources of the
/// active edges into i.
graph::Csr bfs_csr(std::size_t n) {
  graph::CsrBuilder bld(n, n);
  const auto offs = bfs_offsets(n);
  for (std::size_t i = 0; i < n; ++i)
    for (const auto& [off, o] : offs)
      if (bfs_edge_active(n, o, i)) bld.add_edge(i, (i + n - off) % n);
  return bld.build();
}

/// Per-vertex weight of the dominant (round) phase: 2*deg + 2 lane slots.
std::vector<std::uint64_t> bfs_vertex_weights(const graph::Csr& csr) {
  std::vector<std::uint64_t> w(csr.n_rows());
  for (std::size_t v = 0; v < csr.n_rows(); ++v)
    w[v] = 2 * static_cast<std::uint64_t>(csr.degree(v)) + 2;
  return w;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> bfs_offsets(std::size_t n) {
  const std::size_t cand[4] = {1, n - 1, 3 % n, (n - 3) % n};
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t o = 0; o < 4; ++o) {
    bool dup = false;
    for (const auto& kept : out) dup |= kept.first == cand[o];
    // Offsets can coincide at small n (n=6: 3%n == (n-3)%n): keep the FIRST
    // mask index so the edge is considered exactly once instead of
    // double-counted under two masks.
    if (!dup) out.emplace_back(cand[o], o);
  }
  return out;
}

std::size_t bfs_rounds(std::size_t n) {
  // Small instances sweep most of the ring; graph-scale instances cap the
  // wave count so step counts stay in the thousands (vertices past the cap
  // read back bfs_unreached, exactly like an unreachable vertex).
  return n <= 128 ? n / 2 + 2 : 4;
}

std::uint32_t bfs_dist_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}

Word bfs_unreached(std::size_t n) { return static_cast<Word>(2 * n); }

bool bfs_edge_active(std::size_t n, std::size_t o, std::size_t i) {
  const std::uint64_t h =
      apex::mix64(apex::mix64(kBfsTag, n), o * n + i);
  // Ring edges (offsets 1, n-1) are dense (3/4), chords (3, n-3) sparse
  // (1/2): most nodes stay reachable while distances spread irregularly.
  return o < 2 ? (h % 4) != 0 : (h % 2) != 0;
}

Program make_bfs_frontier(std::size_t n, std::size_t rounds) {
  if (n < 6)
    throw std::invalid_argument("make_bfs_frontier: need n >= 6");
  if (rounds < 1)
    throw std::invalid_argument("make_bfs_frontier: need rounds >= 1");
  const graph::Csr csr = bfs_csr(n);
  const std::size_t nnz = csr.nnz();
  const std::vector<std::uint64_t> delta = graph::delta_encode(csr);
  const std::size_t P = graph_procs(n);
  const std::vector<std::uint64_t> vw = bfs_vertex_weights(csr);
  const std::vector<std::uint32_t> cuts = graph::partition_balanced(vw, P);

  const std::size_t dist = 0, frontA = n, frontB = 2 * n + 1, rp = 3 * n + 2,
                    rpe = 4 * n + 3, del = 5 * n + 3, adj = del + nnz,
                    reach = adj + nnz, unv = reach + n, scr = unv + n;
  const std::size_t ptr = scr, bnd = scr + P, gt = scr + 2 * P,
                    zer = scr + 3 * P, np1 = scr + 4 * P, sent = scr + 5 * P,
                    one = scr + 6 * P, rnd = scr + 7 * P;
  ProgramBuilder b(P, scr + 8 * P);
  Lanes lanes(P);

  // Phase 0: distances, the source frontier bit, the CSR data (row offsets
  // + the delta-compressed column stream), per-proc constants.  Unwritten
  // cells (the frontier guards, the whole B buffer) read their initial 0.
  load_const_array(b, P, dist, n, [&](std::size_t i) {
    return i == 0 ? Word{0} : bfs_unreached(n);
  });
  b.step().thread(0, Instr::constant(checked_u32(frontA + 1), 1));
  load_const_array(b, P, rp, n + 1,
                   [&](std::size_t i) { return Word{csr.row_offsets[i]}; });
  load_const_array(b, P, del, nnz, [&](std::size_t i) { return delta[i]; });
  b.step().all(
      [&](std::size_t p) { return Instr::constant(checked_u32(zer + p), 0); });
  b.step().all([&](std::size_t p) {
    return Instr::constant(checked_u32(np1 + p), static_cast<Word>(n + 1));
  });
  b.step().all([&](std::size_t p) {
    return Instr::constant(checked_u32(sent + p), bfs_unreached(n));
  });
  b.step().all(
      [&](std::size_t p) { return Instr::constant(checked_u32(one + p), 1); });

  // Phase 1: stage rpe[v] = rp[v+1], so that in phase 2 a vertex's row END
  // never aliases its successor's row START read in the same step at an
  // unlucky lane alignment.
  for (std::size_t p = 0; p < P; ++p)
    for (std::size_t v = cuts[p]; v < cuts[p + 1]; ++v)
      lanes.add(p, Instr::copy(checked_u32(rpe + v), checked_u32(rp + v + 1)));
  lanes.emit(b);

  // Phase 2: unpack delta -> adj (+1-biased columns).  The gather window's
  // base/bound are the row-offset DATA loaded above — the addressing a
  // statically placed window cannot express.
  for (std::size_t p = 0; p < P; ++p)
    for (std::size_t v = cuts[p]; v < cuts[p + 1]; ++v) {
      const std::size_t deg = csr.degree(v);
      if (deg == 0) continue;
      lanes.add(p, Instr::copy(checked_u32(ptr + p), checked_u32(rp + v)));
      lanes.add(p, Instr::copy(checked_u32(bnd + p), checked_u32(rpe + v)));
      for (std::size_t t = 0; t < deg; ++t) {
        const std::size_t e = csr.row_offsets[v] + t;
        lanes.add(p, Instr::gather_dyn(checked_u32(gt + p), checked_u32(ptr + p),
                                       checked_u32(zer + p), checked_u32(bnd + p),
                                       checked_u32(del), checked_u32(nnz)));
        lanes.add(p, t == 0
                         ? Instr::copy(checked_u32(adj + e), checked_u32(gt + p))
                         : Instr::add(checked_u32(adj + e),
                                      checked_u32(adj + e - 1),
                                      checked_u32(gt + p)));
        if (t + 1 < deg)
          lanes.add(p, Instr::add(checked_u32(ptr + p), checked_u32(ptr + p),
                                  checked_u32(one + p)));
      }
    }
  lanes.emit(b);

  // Phase 3: frontier waves.  Round r gathers the PREVIOUS round's frontier
  // buffer (a frozen CREW segment for the whole round) through the unpacked
  // columns and writes the next frontier into the other buffer.
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t frontR = r % 2 == 0 ? frontA : frontB;
    const std::size_t frontW = r % 2 == 0 ? frontB : frontA;
    b.step().all([&](std::size_t p) {
      return Instr::constant(checked_u32(rnd + p), static_cast<Word>(r + 1));
    });
    for (std::size_t p = 0; p < P; ++p)
      for (std::size_t v = cuts[p]; v < cuts[p + 1]; ++v) {
        const std::size_t deg = csr.degree(v);
        if (deg == 0) {
          lanes.add(p, Instr::constant(checked_u32(reach + v), 0));
        } else {
          const std::size_t e0 = csr.row_offsets[v];
          lanes.add(p, Instr::gather_dyn(
                           checked_u32(reach + v), checked_u32(adj + e0),
                           checked_u32(zer + p), checked_u32(np1 + p),
                           checked_u32(frontR), checked_u32(n + 1)));
          for (std::size_t t = 1; t < deg; ++t) {
            lanes.add(p, Instr::gather_dyn(
                             checked_u32(gt + p), checked_u32(adj + e0 + t),
                             checked_u32(zer + p), checked_u32(np1 + p),
                             checked_u32(frontR), checked_u32(n + 1)));
            lanes.add(p, Instr::or_(checked_u32(reach + v),
                                    checked_u32(reach + v), checked_u32(gt + p)));
          }
        }
        lanes.add(p, Instr::eq(checked_u32(unv + v), checked_u32(dist + v),
                               checked_u32(sent + p)));
        lanes.add(p, Instr::and_(checked_u32(frontW + 1 + v),
                                 checked_u32(reach + v), checked_u32(unv + v)));
        lanes.add(p, Instr::select(checked_u32(dist + v),
                                   checked_u32(frontW + 1 + v),
                                   checked_u32(rnd + p), checked_u32(dist + v)));
      }
    lanes.emit(b);
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Bitonic (butterfly) merge.
// Layout: a[0..n) lo[n..n+n/2) hi[n+n/2..2n); one staged compare-exchange
// per butterfly stage, value-driven via kMin/kMax.
// ---------------------------------------------------------------------------

std::uint32_t merge_var(std::size_t n, std::size_t i) {
  (void)n;
  return checked_u32(i);
}

Program make_bitonic_merge(std::size_t n) {
  require_pow2(n, "make_bitonic_merge");
  const std::size_t a = 0, lo = n, hi = n + n / 2;
  ProgramBuilder b(n, 2 * n);
  for (std::size_t d = n / 2; d >= 1; d /= 2) {
    // Pairs (i, i^d) for i with bit d clear, indexed densely by p.
    std::vector<std::size_t> firsts;
    for (std::size_t i = 0; i < n; ++i)
      if ((i & d) == 0) firsts.push_back(i);
    {
      auto s = b.step();
      for (std::size_t p = 0; p < firsts.size(); ++p)
        s.thread(p, Instr::min(checked_u32(lo + p), checked_u32(a + firsts[p]),
                               checked_u32(a + (firsts[p] | d))));
    }
    {
      auto s = b.step();
      for (std::size_t p = 0; p < firsts.size(); ++p)
        s.thread(p, Instr::max(checked_u32(hi + p), checked_u32(a + firsts[p]),
                               checked_u32(a + (firsts[p] | d))));
    }
    {
      auto s = b.step();
      for (std::size_t p = 0; p < firsts.size(); ++p) {
        s.thread(firsts[p], Instr::copy(checked_u32(a + firsts[p]), checked_u32(lo + p)));
        s.thread(firsts[p] | d, Instr::copy(checked_u32(a + (firsts[p] | d)), checked_u32(hi + p)));
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// CSR sparse mat-vec on the graph substrate.
//
// The baked instance (spmv_instance) keeps its raw triplet form — the CSR
// builder dedupes duplicate (row, col) pairs by summing their coefficients
// (wrapping add is commutative, so y is unchanged) and the program walks
// the deduped arrays.  Layout:
//
//   x[n] rp[n+1] rpe[n] col[nnz] val[nnz] y[n]
//   | per-proc scratch: ptr bnd cv vv xv pr zer nv one
//
// Per row: ptr/bnd come from the row-offset DATA, each element issues three
// kGatherDyn loads (column index, coefficient, then x through the fetched
// column), a multiply, and an accumulate into the row's y cell.  y is never
// initialized: unwritten cells read 0.  P = min(n, 4096) processors own
// contiguous nnz-balanced row slices.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kSpmvTag = 0x59317;

/// Irregular row degrees: mostly 1-3, every ~5th row heavy (up to 6).
std::size_t spmv_row_degree(std::size_t n, std::size_t i) {
  const std::uint64_t h = apex::mix64(apex::mix64(kSpmvTag, n), i);
  return 1 + h % 3 + (h % 5 == 0 ? 3 : 0);
}

/// Deduped nonzero count of the baked instance (duplicate (row, col) pairs
/// merge in the CSR build), without materializing the CSR.
std::size_t spmv_csr_nnz(std::size_t n) {
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t deg = spmv_row_degree(n, i);
    std::size_t cols[8];
    std::size_t uniq = 0;
    for (std::size_t k = 0; k < deg; ++k) {
      const std::uint64_t e =
          apex::mix64(apex::mix64(kSpmvTag + 1, n), i * 64 + k);
      const std::size_t c = static_cast<std::size_t>(e % n);
      bool seen = false;
      for (std::size_t t = 0; t < uniq; ++t) seen |= cols[t] == c;
      if (!seen) cols[uniq++] = c;
    }
    nnz += uniq;
  }
  return nnz;
}

}  // namespace

SpmvInstance spmv_instance(std::size_t n) {
  SpmvInstance m;
  m.row_ptr.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t deg = spmv_row_degree(n, i);
    for (std::size_t k = 0; k < deg; ++k) {
      const std::uint64_t e =
          apex::mix64(apex::mix64(kSpmvTag + 1, n), i * 64 + k);
      m.col.push_back(static_cast<std::size_t>(e % n));
      m.val.push_back(1 + e / n % 9);
    }
    m.row_ptr[i + 1] = m.col.size();
  }
  m.x.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    m.x[i] = 1 + apex::mix64(apex::mix64(kSpmvTag + 2, n), i) % 99;
  return m;
}

std::uint32_t spmv_y_var(std::size_t n, std::size_t i) {
  // Layout: x[n] rp[n+1] rpe[n] col[nnz] val[nnz] -> y base.  O(n) per
  // call; bulk checkers compute the base once and index from it.
  return checked_u32(3 * n + 1 + 2 * spmv_csr_nnz(n) + i);
}

namespace {

/// Deduped CSR of the baked instance.
graph::Csr spmv_csr_data(std::size_t n) {
  const SpmvInstance m = spmv_instance(n);
  graph::CsrBuilder bld(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = m.row_ptr[i]; e < m.row_ptr[i + 1]; ++e)
      bld.add_edge(i, m.col[e], m.val[e]);
  return bld.build();
}

/// Per-row weight of the walk phase: 6*deg + 2 lane slots.
std::vector<std::uint64_t> spmv_vertex_weights(const graph::Csr& csr) {
  std::vector<std::uint64_t> w(csr.n_rows());
  for (std::size_t v = 0; v < csr.n_rows(); ++v)
    w[v] = 6 * static_cast<std::uint64_t>(csr.degree(v)) + 2;
  return w;
}

}  // namespace

Program make_spmv_csr(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_spmv_csr: need n >= 2");
  const graph::Csr csr = spmv_csr_data(n);
  const std::size_t nnz = csr.nnz();
  const SpmvInstance m = spmv_instance(n);
  const std::size_t P = graph_procs(n);
  const std::vector<std::uint64_t> vw = spmv_vertex_weights(csr);
  const std::vector<std::uint32_t> cuts = graph::partition_balanced(vw, P);

  const std::size_t x = 0, rp = n, rpe = 2 * n + 1, col = 3 * n + 1,
                    val = col + nnz, y = val + nnz, scr = y + n;
  const std::size_t ptr = scr, bnd = scr + P, cv = scr + 2 * P,
                    vv = scr + 3 * P, xv = scr + 4 * P, pr = scr + 5 * P,
                    zer = scr + 6 * P, nv = scr + 7 * P, one = scr + 8 * P;
  ProgramBuilder b(P, scr + 9 * P);
  Lanes lanes(P);

  // Phase 0: x and the deduped CSR arrays are DATA in program memory.
  load_const_array(b, P, x, n, [&](std::size_t i) { return m.x[i]; });
  load_const_array(b, P, rp, n + 1,
                   [&](std::size_t i) { return Word{csr.row_offsets[i]}; });
  load_const_array(b, P, col, nnz,
                   [&](std::size_t i) { return Word{csr.cols[i]}; });
  load_const_array(b, P, val, nnz, [&](std::size_t i) { return csr.vals[i]; });
  b.step().all(
      [&](std::size_t p) { return Instr::constant(checked_u32(zer + p), 0); });
  b.step().all([&](std::size_t p) {
    return Instr::constant(checked_u32(nv + p), static_cast<Word>(n));
  });
  b.step().all(
      [&](std::size_t p) { return Instr::constant(checked_u32(one + p), 1); });

  // Phase 1: stage row ends (same aliasing argument as bfs).
  for (std::size_t p = 0; p < P; ++p)
    for (std::size_t v = cuts[p]; v < cuts[p + 1]; ++v)
      lanes.add(p, Instr::copy(checked_u32(rpe + v), checked_u32(rp + v + 1)));
  lanes.emit(b);

  // Phase 2: walk the rows through dynamic windows over the CSR arrays.
  for (std::size_t p = 0; p < P; ++p)
    for (std::size_t v = cuts[p]; v < cuts[p + 1]; ++v) {
      const std::size_t deg = csr.degree(v);
      if (deg == 0) continue;  // y stays at its initial 0
      lanes.add(p, Instr::copy(checked_u32(ptr + p), checked_u32(rp + v)));
      lanes.add(p, Instr::copy(checked_u32(bnd + p), checked_u32(rpe + v)));
      for (std::size_t t = 0; t < deg; ++t) {
        lanes.add(p, Instr::gather_dyn(checked_u32(cv + p), checked_u32(ptr + p),
                                       checked_u32(zer + p), checked_u32(bnd + p),
                                       checked_u32(col), checked_u32(nnz)));
        lanes.add(p, Instr::gather_dyn(checked_u32(vv + p), checked_u32(ptr + p),
                                       checked_u32(zer + p), checked_u32(bnd + p),
                                       checked_u32(val), checked_u32(nnz)));
        lanes.add(p, Instr::gather_dyn(checked_u32(xv + p), checked_u32(cv + p),
                                       checked_u32(zer + p), checked_u32(nv + p),
                                       checked_u32(x), checked_u32(n)));
        lanes.add(p, Instr::mul(checked_u32(pr + p), checked_u32(vv + p),
                                checked_u32(xv + p)));
        lanes.add(p, Instr::add(checked_u32(y + v), checked_u32(y + v),
                                checked_u32(pr + p)));
        if (t + 1 < deg)
          lanes.add(p, Instr::add(checked_u32(ptr + p), checked_u32(ptr + p),
                                  checked_u32(one + p)));
      }
    }
  lanes.emit(b);
  return b.build();
}

// ---------------------------------------------------------------------------
// Work-stealing-shaped DAG.
// Layout: v[(levels+1)*n] coin[levels*n] pa[levels*n] pb[levels*n]
//         sel[levels*n] one[n]
// ---------------------------------------------------------------------------

namespace {

std::size_t dag_v_base(std::size_t) { return 0; }
std::size_t dag_coin_base(std::size_t n, std::size_t levels) {
  return (levels + 1) * n;
}
std::size_t dag_pa_base(std::size_t n, std::size_t levels) {
  return dag_coin_base(n, levels) + levels * n;
}
std::size_t dag_pb_base(std::size_t n, std::size_t levels) {
  return dag_pa_base(n, levels) + levels * n;
}
std::size_t dag_sel_base(std::size_t n, std::size_t levels) {
  return dag_pb_base(n, levels) + levels * n;
}
std::size_t dag_one_base(std::size_t n, std::size_t levels) {
  return dag_sel_base(n, levels) + levels * n;
}

}  // namespace

std::size_t steal_dag_levels(std::size_t n) { return n / 2 + 1; }

std::uint32_t dag_value_var(std::size_t n, std::size_t levels, std::size_t l,
                            std::size_t w) {
  (void)levels;
  return checked_u32(dag_v_base(n) + l * n + w);
}

std::uint32_t dag_coin_var(std::size_t n, std::size_t levels, std::size_t l,
                           std::size_t w) {
  // Coins exist for levels 1..levels; stored at index (l-1).
  return checked_u32(dag_coin_base(n, levels) + (l - 1) * n + w);
}

Program make_steal_dag(std::size_t n, std::size_t levels) {
  if (n < 2) throw std::invalid_argument("make_steal_dag: need n >= 2");
  if (levels < 1)
    throw std::invalid_argument("make_steal_dag: need levels >= 1");
  const std::size_t v = dag_v_base(n), coin = dag_coin_base(n, levels),
                    pa = dag_pa_base(n, levels), pb = dag_pb_base(n, levels),
                    sel = dag_sel_base(n, levels),
                    one = dag_one_base(n, levels);
  ProgramBuilder b(n, one + n);

  b.step().all([&](std::size_t w) {
    return Instr::constant(checked_u32(v + w), static_cast<Word>(3 * w + 1));
  });
  b.step().all(
      [&](std::size_t w) { return Instr::constant(checked_u32(one + w), 1); });

  for (std::size_t l = 1; l <= levels; ++l) {
    const std::size_t cl = coin + (l - 1) * n, pal = pa + (l - 1) * n,
                      pbl = pb + (l - 1) * n, sll = sel + (l - 1) * n,
                      prev = v + (l - 1) * n, cur = v + l * n;
    // The random victim choice: 0 = own lane, 1 = steal from the right.
    b.step().all(
        [&](std::size_t w) { return Instr::rand_below(checked_u32(cl + w), 2); });
    b.step().all([&](std::size_t w) {
      return Instr::copy(checked_u32(pal + w), checked_u32(prev + w));
    });
    b.step().all([&](std::size_t w) {
      return Instr::copy(checked_u32(pbl + w), checked_u32(prev + (w + 1) % n));
    });
    b.step().all([&](std::size_t w) {
      return Instr::select(checked_u32(sll + w), checked_u32(cl + w), checked_u32(pbl + w),
                           checked_u32(pal + w));
    });
    b.step().all([&](std::size_t w) {
      return Instr::add(checked_u32(cur + w), checked_u32(sll + w), checked_u32(one + w));
    });
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Workload registry: canonical instances + final-memory verdicts.
// ---------------------------------------------------------------------------

namespace {

// Canonical parameters of the registered instances.
constexpr Word kLubyK = 1 << 16;
constexpr Word kLeaderK = 1 << 16;
constexpr Word kRingPalette = 4;
constexpr std::size_t kCoinSteps = 4;
constexpr double kCoinP = 0.5;
constexpr std::size_t kProbeChain = 8;
constexpr Word kProbeK = 1 << 20;

/// Prepend a constants step seeding vars [0, in.size()) — registered
/// deterministic kernels carry their canonical inputs in the program.
Program with_const_inputs(const Program& p, const std::vector<Word>& in) {
  ProgramBuilder b(p.nthreads(), p.nvars());
  b.step().all([&](std::size_t i) {
    return i < in.size()
               ? Instr::constant(static_cast<std::uint32_t>(i), in[i])
               : Instr::nop();
  });
  for (std::size_t s = 0; s < p.nsteps(); ++s) {
    auto sb = b.step();
    for (std::size_t t = 0; t < p.nthreads(); ++t)
      sb.thread(t, p.step(s).instrs[t]);
  }
  return b.build();
}

std::vector<Word> iota_inputs(std::size_t n) {
  std::vector<Word> in(n);
  std::iota(in.begin(), in.end(), 1);
  return in;
}

std::vector<Word> bitonic_inputs(std::size_t n) {
  std::vector<Word> in(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = i < n / 2 ? static_cast<Word>(3 * i + 2)
                      : static_cast<Word>(3 * (n - i) + 1);
  return in;
}

std::string mismatch(const char* what, std::size_t i, Word got, Word want) {
  return std::string(what) + "[" + std::to_string(i) + "] = " +
         std::to_string(got) + ", expected " + std::to_string(want);
}

// ---- make functions (canonical instances) ---------------------------------

Program reg_make_luby(std::size_t n) { return make_luby_cycle_round(n, kLubyK); }
Program reg_make_leader(std::size_t n) {
  return make_leader_election(n, kLeaderK);
}
Program reg_make_ring(std::size_t n) {
  return make_ring_coloring(n, kRingPalette);
}
Program reg_make_coins(std::size_t n) {
  return make_coin_matrix(n, kCoinSteps, kCoinP);
}
Program reg_make_probe(std::size_t n) {
  return make_consistency_probe(n, kProbeChain, kProbeK);
}
Program reg_make_prefix(std::size_t n) {
  return with_const_inputs(make_prefix_sum(n), iota_inputs(n));
}
Program reg_make_sort(std::size_t n) {
  auto in = iota_inputs(n);
  std::reverse(in.begin(), in.end());
  return with_const_inputs(make_odd_even_sort(n), in);
}
Program reg_make_reduction(std::size_t n) {
  return with_const_inputs(make_reduction(n), iota_inputs(n));
}
Program reg_make_bfs(std::size_t n) {
  return make_bfs_frontier(n, bfs_rounds(n));
}
Program reg_make_merge(std::size_t n) {
  return with_const_inputs(make_bitonic_merge(n), bitonic_inputs(n));
}
Program reg_make_spmv(std::size_t n) { return make_spmv_csr(n); }
Program reg_make_dag(std::size_t n) {
  return make_steal_dag(n, steal_dag_levels(n));
}

// ---- partition placement weights ------------------------------------------

/// Sum per-vertex weights over the partition slices the kernel builders
/// assign — the host executor's kPartition interleave places OS-thread
/// slices of logical processors by exactly these totals.
std::vector<std::uint64_t> slice_weights(const std::vector<std::uint64_t>& w,
                                         const std::vector<std::uint32_t>& cuts) {
  std::vector<std::uint64_t> out(cuts.size() - 1, 0);
  for (std::size_t p = 0; p + 1 < cuts.size(); ++p)
    for (std::size_t v = cuts[p]; v < cuts[p + 1]; ++v) out[p] += w[v];
  return out;
}

std::vector<std::uint64_t> reg_bfs_proc_weights(std::size_t n) {
  const auto w = bfs_vertex_weights(bfs_csr(n));
  return slice_weights(w, graph::partition_balanced(w, graph_procs(n)));
}

std::vector<std::uint64_t> reg_spmv_proc_weights(std::size_t n) {
  const auto w = spmv_vertex_weights(spmv_csr_data(n));
  return slice_weights(w, graph::partition_balanced(w, graph_procs(n)));
}

// ---- final-memory verdicts -------------------------------------------------

std::string check_luby(std::size_t n, const std::vector<Word>& mem) {
  for (std::size_t i = 0; i < n; ++i) {
    const Word r = mem[luby_priority_var(n, i)];
    if (r >= kLubyK) return mismatch("luby priority", i, r, kLubyK - 1);
    const Word want =
        mem[luby_priority_var(n, (i + n - 1) % n)] < r &&
                mem[luby_priority_var(n, (i + 1) % n)] < r
            ? 1
            : 0;
    if (mem[luby_mis_var(n, i)] != want)
      return mismatch("luby mis flag", i, mem[luby_mis_var(n, i)], want);
    if (mem[luby_violation_var(n, i)] != 0)
      return mismatch("luby independence violation", i,
                      mem[luby_violation_var(n, i)], 0);
  }
  return {};
}

std::string check_leader(std::size_t n, const std::vector<Word>& mem) {
  Word maxr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Word r = mem[leader_ticket_var(n, i)];
    if (r >= kLeaderK) return mismatch("leader ticket", i, r, kLeaderK - 1);
    maxr = std::max(maxr, r);
  }
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mem[leader_max_var(n, i)] != maxr)
      return mismatch("leader broadcast", i, mem[leader_max_var(n, i)], maxr);
    const Word want = mem[leader_ticket_var(n, i)] == maxr ? 1 : 0;
    if (mem[leader_flag_var(n, i)] != want)
      return mismatch("leader flag", i, mem[leader_flag_var(n, i)], want);
    leaders += mem[leader_flag_var(n, i)];
  }
  if (leaders < 1) return "no leader elected";
  return {};
}

std::string check_ring(std::size_t n, const std::vector<Word>& mem) {
  for (std::size_t i = 0; i < n; ++i) {
    const Word ci = mem[ring_color_var(n, i)];
    const Word cn = mem[ring_color_var(n, (i + 1) % n)];
    if (ci >= kRingPalette)
      return mismatch("ring color", i, ci, kRingPalette - 1);
    const Word want = ci == cn ? 1 : 0;
    if (mem[ring_conflict_var(n, i)] != want)
      return mismatch("ring conflict flag", i, mem[ring_conflict_var(n, i)],
                      want);
  }
  return {};
}

std::string check_coins(std::size_t n, const std::vector<Word>& mem) {
  for (std::size_t s = 0; s < kCoinSteps; ++s)
    for (std::size_t i = 0; i < n; ++i)
      if (mem[coin_matrix_var(n, s, i)] > 1)
        return mismatch("coin", s * n + i, mem[coin_matrix_var(n, s, i)], 1);
  return {};
}

std::string check_probe(std::size_t n, const std::vector<Word>& mem) {
  for (std::size_t j = 0; j < probe_flag_count(kProbeChain); ++j)
    if (mem[probe_flag_var(n, kProbeChain, j)] != 1)
      return mismatch("probe flag", j, mem[probe_flag_var(n, kProbeChain, j)],
                      1);
  return {};
}

std::string check_prefix(std::size_t n, const std::vector<Word>& mem) {
  Word run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run += static_cast<Word>(i + 1);
    if (mem[prefix_sum_var(n, i)] != run)
      return mismatch("prefix sum", i, mem[prefix_sum_var(n, i)], run);
  }
  return {};
}

std::string check_sort(std::size_t n, const std::vector<Word>& mem) {
  for (std::size_t i = 0; i < n; ++i)
    if (mem[sort_var(n, i)] != static_cast<Word>(i + 1))
      return mismatch("sorted", i, mem[sort_var(n, i)],
                      static_cast<Word>(i + 1));
  return {};
}

std::string check_reduction(std::size_t n, const std::vector<Word>& mem) {
  const Word want = static_cast<Word>(n * (n + 1) / 2);
  if (mem[reduction_result_var(n)] != want)
    return mismatch("reduction", 0, mem[reduction_result_var(n)], want);
  return {};
}

std::string check_bfs(std::size_t n, const std::vector<Word>& mem) {
  // Rebuild the exact baked graph and run a level-capped reference BFS.
  const std::size_t rounds = bfs_rounds(n);
  std::vector<Word> want(n, bfs_unreached(n));
  want[0] = 0;
  std::vector<std::size_t> frontier = {0};
  const auto offs = bfs_offsets(n);
  for (std::size_t r = 0; r < rounds && !frontier.empty(); ++r) {
    std::vector<std::uint8_t> reach(n, 0);
    for (const auto& [off, o] : offs) {
      for (std::size_t j : frontier) {
        const std::size_t i = (j + off) % n;
        if (bfs_edge_active(n, o, i)) reach[i] = 1;
      }
    }
    frontier.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (reach[i] && want[i] == bfs_unreached(n)) {
        want[i] = static_cast<Word>(r + 1);
        frontier.push_back(i);
      }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (mem[bfs_dist_var(n, i)] != want[i])
      return mismatch("bfs dist", i, mem[bfs_dist_var(n, i)], want[i]);
  return {};
}

std::string check_merge(std::size_t n, const std::vector<Word>& mem) {
  std::vector<Word> want = bitonic_inputs(n);
  std::sort(want.begin(), want.end());
  for (std::size_t i = 0; i < n; ++i)
    if (mem[merge_var(n, i)] != want[i])
      return mismatch("merged", i, mem[merge_var(n, i)], want[i]);
  return {};
}

std::string check_spmv(std::size_t n, const std::vector<Word>& mem) {
  const SpmvInstance m = spmv_instance(n);
  // The program runs on the DEDUPED matrix, but wrapping add is commutative
  // and associative, so y from the raw triplets is the same value.  Compute
  // the y base once: spmv_y_var scans the instance on every call.
  const std::uint32_t y0 = spmv_y_var(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    Word want = 0;
    for (std::size_t e = m.row_ptr[i]; e < m.row_ptr[i + 1]; ++e)
      want += m.val[e] * m.x[m.col[e]];
    if (mem[y0 + i] != want) return mismatch("spmv y", i, mem[y0 + i], want);
  }
  return {};
}

std::string check_dag(std::size_t n, const std::vector<Word>& mem) {
  const std::size_t levels = steal_dag_levels(n);
  const std::size_t pa = dag_pa_base(n, levels), pb = dag_pb_base(n, levels),
                    sel = dag_sel_base(n, levels);
  for (std::size_t w = 0; w < n; ++w) {
    if (mem[dag_value_var(n, levels, 0, w)] != static_cast<Word>(3 * w + 1))
      return mismatch("dag seed", w, mem[dag_value_var(n, levels, 0, w)],
                      static_cast<Word>(3 * w + 1));
  }
  for (std::size_t l = 1; l <= levels; ++l)
    for (std::size_t w = 0; w < n; ++w) {
      const Word c = mem[dag_coin_var(n, levels, l, w)];
      if (c > 1) return mismatch("dag coin", l * n + w, c, 1);
      const Word own = mem[dag_value_var(n, levels, l - 1, w)];
      const Word stolen = mem[dag_value_var(n, levels, l - 1, (w + 1) % n)];
      const Word pav = mem[pa + (l - 1) * n + w];
      const Word pbv = mem[pb + (l - 1) * n + w];
      const Word sv = mem[sel + (l - 1) * n + w];
      if (pav != own) return mismatch("dag own-lane copy", l * n + w, pav, own);
      if (pbv != stolen)
        return mismatch("dag stolen copy", l * n + w, pbv, stolen);
      if (sv != (c != 0 ? pbv : pav))
        return mismatch("dag selection", l * n + w, sv, c != 0 ? pbv : pav);
      if (mem[dag_value_var(n, levels, l, w)] != sv + 1)
        return mismatch("dag value", l * n + w,
                        mem[dag_value_var(n, levels, l, w)], sv + 1);
    }
  return {};
}

}  // namespace

const std::vector<WorkloadSpec>& workload_registry() {
  static const std::vector<WorkloadSpec> kRegistry = {
      {"luby", "Luby MIS round on the n-cycle", false, false, 3, false, false,
       reg_make_luby, check_luby, {}},
      {"leader", "randomized leader election", false, false, 2, true, false,
       reg_make_leader, check_leader, {}},
      {"ring", "randomized ring coloring", false, false, 3, false, false,
       reg_make_ring, check_ring, {}},
      {"coins", "T steps of biased coins", false, false, 1, false, false,
       reg_make_coins, check_coins, {}},
      {"probe", "consistency probe (E13)", false, false, 2, false, false,
       reg_make_probe, check_probe, {}},
      {"prefix", "Hillis-Steele prefix sum", true, false, 2, true, false,
       reg_make_prefix, check_prefix, {}},
      {"sort", "odd-even transposition sort", true, false, 2, false, true,
       reg_make_sort, check_sort, {}},
      {"reduction", "tournament reduction", true, false, 2, true, false,
       reg_make_reduction, check_reduction, {}},
      // The irregular suite also registers canonical LARGE-n instances:
      // P = 64/128 for the classic scaling grid, plus GRAPH-SCALE sizes
      // (n = 1e4 / 1e5, capped at 4096 logical processors) for the
      // CSR-backed kernels — edge data lives as CSR arrays gathered at run
      // time, so the builders stay cheap while the virtualized host
      // executor drives the instances on a handful of OS threads.
      {"bfs", "BFS frontier expansion on CSR (irregular)", true, true, 6,
       false, false, reg_make_bfs, check_bfs, {64, 128, 10000, 100000},
       reg_bfs_proc_weights},
      {"merge", "bitonic butterfly merge (irregular)", true, true, 2, true,
       false, reg_make_merge, check_merge, {}},
      {"spmv", "CSR sparse mat-vec via dynamic-window gathers (irregular)",
       true, true, 2, false, false, reg_make_spmv, check_spmv,
       {64, 128, 10000, 100000}, reg_spmv_proc_weights},
      {"dag", "work-stealing-shaped DAG (irregular)", false, true, 2, false,
       false, reg_make_dag, check_dag, {64, 128}},
  };
  return kRegistry;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workload_registry())
    if (name == spec.name) return &spec;
  return nullptr;
}

bool workload_supports_n(const WorkloadSpec& spec, std::size_t n) {
  if (n < spec.min_n) return false;
  if (spec.pow2_n && !is_pow2(n)) return false;
  if (spec.even_n && n % 2 != 0) return false;
  return true;
}

std::string workload_names() {
  std::string out;
  for (const auto& spec : workload_registry()) {
    if (!out.empty()) out += ",";
    out += spec.name;
  }
  return out;
}

}  // namespace apex::pram
