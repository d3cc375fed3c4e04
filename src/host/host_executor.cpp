#include "host/host_executor.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "batch/sweep.h"
#include "graph/csr.h"
#include "pram/ir.h"

namespace apex::host {

namespace {

/// Bin sizing: cells per bin = max(4, kBeta * lg P), the same beta as the
/// simulated executor's kBeta (exec/executor.cpp).
constexpr std::size_t kBeta = 8;

std::size_t bin_cells(std::size_t nprocs) {
  return std::max<std::size_t>(4, kBeta * lg(nprocs));
}

/// Consecutive visits per live processor per turn of the sweep, and the
/// unit of the record copy: run_block copies a processor's record in once
/// and writes it back once per block.  64 stays far inside a phase: even at
/// alpha = 48 a tick spans ~alpha*lg(n) visits per processor.  Against a
/// one-visit-per-turn sweep (4 vCPU, GCC 12.2, Release, equal work) it was
/// faster in 15 of 15 rounds on spmv P=64 T=2 (median 0.069 s vs 0.085 s),
/// 11 of 12 on spmv P=128 T=4 and 5 of 5 on bfs P=128 T=4 (1.95 s vs
/// 2.37 s).
constexpr std::size_t kBlockSteps = 64;

/// Read-Clock samples s = 3 lg P slots.  checked() keeps every address
/// 32-bit, so P < 2^32, lg P <= 32 and s <= 96: the two-pass sample loop
/// holds the drawn slots in a buffer of this size.
constexpr std::size_t kMaxClockSamples =
    3 * std::numeric_limits<std::uint32_t>::digits;

/// run_until_clean()'s attempt cap and per-retry seed offset.
constexpr int kMaxAttempts = 4;
constexpr std::uint64_t kRetrySeedStep = 1000;

/// Rejects a configuration no run can be built from, before the constructor
/// sizes or casts anything from it.
const HostExecConfig& checked(const HostExecConfig& cfg,
                              const pram::Program& program) {
  const std::size_t p = program.nthreads();
  if (cfg.generations < 2)
    throw std::invalid_argument("HostExecutor: generations must be >= 2");
  // tau = alpha * P is cast to an integer: NaN, infinities and products
  // past 2^63 would make that cast undefined, and alpha <= 0 would make
  // tau = 1 (a tick per clock update).
  if (!(cfg.clock_alpha > 0.0) ||
      !(cfg.clock_alpha * static_cast<double>(p) < 0x1p63))
    throw std::invalid_argument(
        "HostExecutor: clock_alpha must be finite and > 0 (and alpha * P "
        "below 2^63)");
  // Every plan address is 32 bits: clock slots | bins | generation slots.
  const __uint128_t words =
      p + static_cast<__uint128_t>(p) * bin_cells(p) +
      static_cast<__uint128_t>(program.nvars()) * cfg.generations;
  if (words >= std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("HostExecutor: layout exceeds 32-bit plans");
  return cfg;
}

}  // namespace

std::size_t resolve_os_threads(std::size_t requested, std::size_t nprocs) {
  return std::max<std::size_t>(
      1, std::min(batch::SweepEngine::resolve_jobs(requested), nprocs));
}

const char* interleave_name(Interleave p) noexcept {
  switch (p) {
    case Interleave::kRoundRobin: return "rr";
    case Interleave::kPartition: return "partition";
  }
  return "?";
}

bool parse_interleave(const std::string& s, Interleave& out) noexcept {
  if (s == "rr" || s == "round_robin") out = Interleave::kRoundRobin;
  else if (s == "partition") out = Interleave::kPartition;
  else return false;
  return true;
}

HostExecutor::HostExecutor(const pram::Program& program, HostExecConfig cfg)
    : prog_(&program),
      cfg_(checked(cfg, program)),
      n_(program.nthreads()),
      nthreads_(resolve_os_threads(cfg_.os_threads, n_)),
      b_(bin_cells(n_)),
      clock_base_(0),
      bins_base_(n_),
      var_base_(n_ + n_ * b_),
      clock_tau_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(cfg_.clock_alpha *
                                        static_cast<double>(n_)))),
      clock_samples_(std::max<std::size_t>(1, 3 * lg(n_))),
      stride_(std::max<std::uint64_t>(1, lg(n_))),
      end_tick_(2 * static_cast<std::uint64_t>(program.nsteps())),
      mem_(n_ + n_ * b_ + program.nvars() * cfg_.generations),
      done_(nthreads_),
      error_slot_(nthreads_) {
  assert(clock_samples_ <= kMaxClockSamples);
  // --- virtual processors + slices ------------------------------------------
  procs_.resize(n_);
  apex::SeedTree seeds{cfg_.seed};
  for (std::size_t p = 0; p < n_; ++p) {
    procs_[p].rng = seeds.processor(p);
    // First clock update of proc id lands at visit (stride - id) mod stride,
    // preserving the original (iter + id) % stride staggering without a
    // per-visit hardware divide (PR-3 lesson: divides dominate hot loops).
    procs_[p].iter = (stride_ - p % stride_) % stride_;
  }
  slice_.resize(nthreads_ + 1, 0);
  if (cfg_.interleave == Interleave::kPartition && !cfg_.proc_weights.empty()) {
    // Weight-balanced slices: align OS-thread ownership with the graph
    // partitioner's placement so the thread that owns a CSR partition's
    // processors is the one walking its rows.
    if (cfg_.proc_weights.size() != n_)
      throw std::invalid_argument(
          "HostExecutor: proc_weights size != logical processor count");
    const auto cuts = graph::partition_balanced(cfg_.proc_weights, nthreads_);
    for (std::size_t t = 0; t <= nthreads_; ++t) slice_[t] = cuts[t];
  } else {
    const std::size_t base = n_ / nthreads_, rem = n_ % nthreads_;
    for (std::size_t t = 0; t < nthreads_; ++t)
      slice_[t + 1] = slice_[t] + base + (t < rem ? 1 : 0);
  }

  // --- per-instruction operand plans ----------------------------------------
  // Hoist every address computation and writer lookup out of the hot loop:
  // one walk at construction proves all addresses in range (so the loop
  // may use the unchecked accessors) and resolves operand slots + expected
  // stamps per (step, instruction).
  const std::size_t nsteps = prog_->nsteps();
  plans_.resize(nsteps * n_);
  step_stamp_.resize(nsteps);
  for (std::size_t s = 0; s < nsteps; ++s)
    step_stamp_[s] = static_cast<std::uint32_t>(
        pram::stamp_of_step(static_cast<std::uint32_t>(s)));
  prog_->walk_writers([&](std::size_t s, std::size_t i,
                          const pram::Instr& ins,
                          const pram::OperandWriters& w) {
    OpPlan& pl = plans_[s * n_ + i];
    pl.op = ins.op;
    const int nreads = pram::reads_of(ins.op);
    if (nreads >= 1) {
      pl.x_want = static_cast<std::uint32_t>(pram::stamp_of_writer(w.x));
      pl.x_addr = static_cast<std::uint32_t>(var_addr(ins.x, pl.x_want));
    }
    if (nreads >= 2) {
      pl.y_want = static_cast<std::uint32_t>(pram::stamp_of_writer(w.y));
      pl.y_addr = static_cast<std::uint32_t>(var_addr(ins.y, pl.y_want));
    }
    if (nreads >= 3) {
      pl.c_want = static_cast<std::uint32_t>(pram::stamp_of_writer(w.c));
      pl.c_addr = static_cast<std::uint32_t>(var_addr(ins.c, pl.c_want));
    }
    if (pram::writes_dest(ins.op))
      pl.z_addr = static_cast<std::uint32_t>(var_addr(ins.z, step_stamp_[s]));
  });
}

void HostExecutor::record_error(std::size_t tid, const char* what) {
  // Lock-free first-fault capture: the slot is thread-owned, the CAS
  // publishes exactly one winner; run() reads both after the joins (which
  // synchronize), so no lock is needed anywhere.
  error_slot_[tid] = what;
  std::int32_t expected = -1;
  first_error_.compare_exchange_strong(expected,
                                       static_cast<std::int32_t>(tid),
                                       std::memory_order_acq_rel);
}

void HostExecutor::worker(std::size_t tid) {
  // A worker must never leak an exception out of its std::thread (that is
  // std::terminate).  Pack-width overflows and layout bugs land here: record
  // the first message, wave every thread off, and report via run().
  try {
    worker_body(tid);
    done_[tid].store(abort_.load(std::memory_order_relaxed) ? 2 : 1,
                     std::memory_order_seq_cst);
  } catch (const std::exception& e) {
    record_error(tid, e.what());
    abort_.store(true, std::memory_order_relaxed);
    done_[tid].store(2, std::memory_order_seq_cst);  // exited, not clean
  }
}

// --- memory orders (the downgrade audit) ------------------------------------
// The pre-virtualization port used seq_cst on every protocol word.  The hot
// path runs the audited orders below.  They are compile-time constants:
// GCC/Clang compile a runtime-valued std::memory_order argument to the
// strongest order (the builtin falls back to seq_cst), which would silently
// undo the audit.  Per-word atomicity + coherence — the only property the
// word+stamp discipline consumes — is order-independent; each downgrade
// argues the residual reorderings are behaviors a legal oblivious adversary
// could already produce.
//
//   word class        load     store    proof obligation (details at use)
//   clock slots       relaxed  relaxed  counters; staleness + lost updates
//                                       are already in the model
//   bins              acquire  release  publication of (value, stamp)
//   generation slots  acquire  release  commit publication; exact-stamp
//                                       acceptance pairs with release
namespace {
constexpr std::memory_order kLdClock = std::memory_order_relaxed;
constexpr std::memory_order kStClock = std::memory_order_relaxed;
constexpr std::memory_order kLd = std::memory_order_acquire;
constexpr std::memory_order kSt = std::memory_order_release;
}  // namespace

bool HostExecutor::eval(HostProc& p, std::size_t s, std::size_t i,
                        std::uint64_t& out) {
  const OpPlan& pl = plans_[s * n_ + i];
  if (pl.op == pram::OpCode::kNop) {
    p.compute_work += 1;
    out = 0;
    return true;
  }
  const int nreads = pram::reads_of(pl.op);
  std::uint64_t xv = 0, yv = 0, cv = 0;
  // Operand reads accept only the exact expected stamp; a miss is a normal
  // retry (the writer's commit has not landed yet).  Acquire load: pairs
  // with the commit's release store, so an ACCEPTED operand's value is the
  // value that commit published — the same happens-before edge seq_cst
  // gave, at plain-load cost on x86/ARM ldar.
  if (nreads >= 1) {
    const HostCell c = mem_.read_unchecked(pl.x_addr, kLd);
    p.compute_work += 1;
    if (c.stamp != pl.x_want) {
      ++p.misses;
      return false;
    }
    xv = c.value;
  }
  if (nreads >= 2) {
    const HostCell c = mem_.read_unchecked(pl.y_addr, kLd);
    p.compute_work += 1;
    if (c.stamp != pl.y_want) {
      ++p.misses;
      return false;
    }
    yv = c.value;
  }
  if (nreads >= 3) {
    const HostCell c = mem_.read_unchecked(pl.c_addr, kLd);
    p.compute_work += 1;
    if (c.stamp != pl.c_want) {
      ++p.misses;
      return false;
    }
    cv = c.value;
  }
  const pram::Instr& ins = prog_->step(s).instrs[i];
  if (pl.op == pram::OpCode::kGatherDyn) {
    // Data-dependent addressing: index, base offset and bound arrived
    // through the x/y/c operand reads above; the static segment caps the
    // computed target, and the sparse last-writer index (a binary search
    // over that variable's write steps — graph-scale programs cannot afford
    // a dense per-step row) answers the stamp question exactly as for a
    // static operand.  The resolved read becomes y; out of range reads 0.
    const std::uint32_t target = pram::gather_dyn_target(ins, xv + yv, cv);
    yv = 0;
    if (target != pram::kGatherOutOfRange) {
      const std::uint32_t want = static_cast<std::uint32_t>(
          pram::stamp_of_writer(prog_->last_writer_before(s, target)));
      const std::size_t addr = var_addr(target, want);
      const HostCell c = mem_.read_unchecked(addr, kLd);
      p.compute_work += 1;
      if (c.stamp != want) {
        ++p.misses;
        return false;
      }
      yv = c.value;
    }
  }
  p.compute_work += 1;  // the basic computation / random draw
  out = pram::eval_instr(ins, xv, yv, cv, p.rng);
  return true;
}

[[gnu::flatten]] bool HostExecutor::run_block(HostProc& vp) {
  // The block runs on one local copy of the record, written back once at
  // the end.  Every call is flattened into run_block (Rng::next/below are
  // inline), so the copy's address never escapes and the RNG state and
  // loop fields stay in registers across every draw and probe of the
  // block's visits.
  HostProc p = vp;
  // The task of the coming visit when the last one drew it ahead (below).
  bool drawn = false;
  std::size_t i = 0;
  for (std::size_t b = 0; b < kBlockSteps; ++b) {
    if (p.iter == 0) {
      p.iter = stride_ - 1;
      // Update-Clock then Read-Clock (sampled estimate, monotone clamp).
      // Relaxed on every clock word: each slot is an independent counter
      // and the construction already tolerates (a) arbitrarily stale reads
      // — a legal adversary can hold this processor between any read and
      // its next access, which is observationally identical to reading an
      // old value — and (b) lost updates from racing read-increment-write
      // pairs, which occur under seq_cst too (the race is at protocol
      // level, not memory level).  No other word's value is ever inferred
      // from a clock read, so no release/acquire pairing is being bypassed.
      const std::size_t slot = static_cast<std::size_t>(p.rng.below(n_));
      const HostCell c = mem_.read_unchecked(clock_base_ + slot, kLdClock);
      mem_.write_unchecked(clock_base_ + slot, c.value + 1, 0, kStClock);
      // Two passes over the samples: draw every slot (the same draws in
      // the same order) and prefetch it, then sum the loads, which now
      // overlap instead of each waiting for the one before.
      std::uint32_t at[kMaxClockSamples];
      for (std::size_t k = 0; k < clock_samples_; ++k) {
        at[k] = static_cast<std::uint32_t>(clock_base_ + p.rng.below(n_));
        mem_.prefetch(at[k]);
      }
      std::uint64_t sampled = 0;
      for (std::size_t k = 0; k < clock_samples_; ++k)
        sampled += mem_.read_unchecked(at[k], kLdClock).value;
      // The update's read and write, the samples, and the estimate.
      p.clock_work += clock_samples_ + 3;
      const double est = static_cast<double>(sampled) *
                         (static_cast<double>(n_) /
                          static_cast<double>(clock_samples_));
      p.clamp =
          std::max(p.clamp, static_cast<std::uint64_t>(est) / clock_tau_);
      p.tick = p.clamp;
      p.done = p.tick >= end_tick_;
      if (p.done) break;
    } else {
      --p.iter;
    }
    const std::size_t s = static_cast<std::size_t>(p.tick >> 1);
    const bool compute = (p.tick & 1) == 0;
    if (!drawn) i = static_cast<std::size_t>(p.rng.below(n_));
    if (compute)
      compute_visit(p, s, i, step_stamp_[s]);
    else
      copy_visit(p, s, i, step_stamp_[s]);
    // Draw the next visit's task now when that visit runs no clock update
    // (iter != 0) and belongs to this block.  Its tick, hence its step and
    // subphase, is this visit's, and its task draw is the next draw of this
    // processor's stream either way, so draws and operations keep their
    // order.  The cell it reads first loads while this loop turns round.
    drawn = p.iter != 0 && b + 1 < kBlockSteps;
    if (drawn) {
      i = static_cast<std::size_t>(p.rng.below(n_));
      if (compute) {
        mem_.prefetch(bins_base_ + i * b_ + b_ - 1);
      } else {
        const OpPlan& pl = plans_[s * n_ + i];
        if (pram::writes_dest(pl.op)) mem_.prefetch(pl.z_addr);
      }
    }
  }
  vp = p;
  return p.done;
}

void HostExecutor::compute_visit(HostProc& p, std::size_t s, std::size_t i,
                                 std::uint32_t stamp) {
  // One bin-array agreement cycle (Fig. 2).  Bin loads are acquire / bin
  // stores release: a cell's (value, stamp) pair is complete in its single
  // word (no ordering needed for integrity), and the release/acquire
  // pairing preserves the copy-forward provenance argument — a cell
  // observed with the current stamp happens-after the write that published
  // it, so the value copied up from cell j-1 is a genuinely published
  // proposal, exactly as under seq_cst.
  const std::size_t brow = bins_base_ + i * b_;
  // Full-bin exit: once the top cell carries the step's stamp the bin is
  // full and the cycle would write nothing, so the visit ends after the
  // task choice and this one read.  Probe order is not part of the safety
  // argument (a copy-forward write below still re-reads cell j-1), and a
  // visit that writes nothing is a stalled processor to every other one.
  p.compute_work += 2;  // the random task choice and the top-cell read
  if (mem_.read_unchecked(brow + b_ - 1, kLd).stamp == stamp) return;
  // Otherwise binary-search the other b-1 cells for the first one without
  // the stamp: j in [0, b-1].
  std::ptrdiff_t lo = -1, hi = static_cast<std::ptrdiff_t>(b_) - 1;
  while (hi - lo > 1) {
    const std::ptrdiff_t mid = lo + (hi - lo) / 2;
    const HostCell c =
        mem_.read_unchecked(brow + static_cast<std::size_t>(mid), kLd);
    p.compute_work += 1;
    if (c.stamp == stamp)
      lo = mid;
    else
      hi = mid;
  }
  const std::size_t j = static_cast<std::size_t>(hi);
  if (j == 0) {
    std::uint64_t v;
    if (eval(p, s, i, v)) {
      mem_.write_unchecked(brow, v, stamp, kSt);
      p.compute_work += 1;
    }
    return;
  }
  const HostCell prev = mem_.read_unchecked(brow + j - 1, kLd);
  p.compute_work += 1;
  if (prev.stamp == stamp) {
    mem_.write_unchecked(brow + j, prev.value, stamp, kSt);
    p.compute_work += 1;
  }
}

void HostExecutor::copy_visit(HostProc& p, std::size_t s, std::size_t i,
                              std::uint32_t stamp) {
  // Fetch the agreed NewVal[i] from the bin's upper half and commit it to
  // z_i's generation slot.
  p.copy_work += 1;  // the random task choice
  const OpPlan& pl = plans_[s * n_ + i];
  if (!pram::writes_dest(pl.op)) return;
  // Committed-slot exit: a slot stamped with this step already holds the
  // step's unique agreed value (Theorem 1), and a newer stamp must not be
  // regressed — the guard below would rewrite the same word or nothing.
  p.copy_work += 1;
  if (mem_.read_unchecked(pl.z_addr, kLd).stamp >= stamp) return;
  const std::size_t brow = bins_base_ + i * b_;
  bool got = false;
  std::uint64_t v = 0;
  for (std::size_t j = b_ / 2; j < b_; ++j) {
    const HostCell c = mem_.read_unchecked(brow + j, kLd);
    p.copy_work += 1;
    if (c.stamp == stamp) {
      v = c.value;
      got = true;
      break;
    }
  }
  if (!got) return;
  // Never regress a newer generation.  Real threads have UNBOUNDED
  // tick-estimate staleness (the OS can park a thread across whole
  // phases), so a woken straggler may re-run a copy task from G or
  // more steps ago — blindly storing would clobber the newer write
  // sharing the slot (stamp congruent mod G) with a stale value.
  // The simulated executor needs no guard: its estimate skew is a
  // couple of ticks, far inside the G-generation window.  The
  // read+write pair below is not atomic, but shrinking the race from
  // "parked anywhere since the task was chosen" to "parked between
  // these two instructions AND for >= 2(G-1) ticks" makes it
  // vanishingly unlikely rather than routine — and the post-run
  // audit + repair pass (audit_and_repair) catches what remains.  The
  // exit above does not replace this read: the scan sits between them.
  // Commit store is release (pairs with the operand acquire above);
  // the guard read is acquire.  Seq_cst would additionally order this
  // commit against commits to OTHER slots in a global sequence, but
  // no reader ever infers one slot's state from another's, so that
  // ordering is never consumed.
  const HostCell cur = mem_.read_unchecked(pl.z_addr, kLd);
  p.copy_work += 1;
  if (cur.stamp <= stamp) {
    mem_.write_unchecked(pl.z_addr, v, stamp, kSt);
    p.copy_work += 1;
  }
}

void HostExecutor::worker_body(std::size_t tid) {
  // The one visit order: a cyclic sweep over the slice that gives each live
  // processor one block of kBlockSteps consecutive visits per turn.
  const std::size_t lo = slice_[tid], hi = slice_[tid + 1];
  std::size_t alive = hi - lo;
  while (alive > 0 && !abort_.load(std::memory_order_relaxed)) {
    for (std::size_t p = lo; p < hi; ++p) {
      HostProc& vp = procs_[p];
      if (vp.done) continue;
      if (run_block(vp)) --alive;
      if (abort_.load(std::memory_order_relaxed)) break;
    }
  }
}

HostExecutor::UpperHalf HostExecutor::scan_upper_half(
    std::size_t bin, std::uint32_t stamp) const {
  UpperHalf out;
  for (std::size_t j = b_ / 2; j < b_; ++j) {
    const HostCell c = mem_.read(bin_addr(bin, j));
    if (c.stamp != stamp) continue;
    if (++out.stamped == 1) out.first = c.value;
    out.unique &= c.value == out.first;
  }
  return out;
}

std::vector<std::optional<std::uint64_t>> HostExecutor::agreed_values(
    std::size_t step) const {
  const std::uint32_t stamp = step_stamp_.at(step);
  const std::size_t upper_cells = b_ - b_ / 2;
  std::vector<std::optional<std::uint64_t>> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const UpperHalf upper = scan_upper_half(i, stamp);
    if (2 * upper.stamped >= upper_cells && upper.unique)
      out[i] = upper.first;
  }
  return out;
}

void HostExecutor::audit_and_repair(HostExecResult& out) {
  // Commit audit (see header): every variable's final value must carry its
  // last writer's stamp.  A tardy ultra-stale store cannot forge a newer
  // stamp, so damage is always visible here.  Quiescent (threads joined),
  // so the reads are exact and the repair below is race-free.
  if (prog_->nsteps() == 0) return;
  const std::size_t last = prog_->nsteps() - 1;
  // One pass over the final step marks its writes; the per-variable loop
  // below then costs a binary search each instead of rescanning the step's
  // P instructions per variable (O(nvars * P) — minutes at graph scale).
  std::vector<bool> last_writes(prog_->nvars(), false);
  for (const pram::Instr& ins : prog_->step(last).instrs)
    if (pram::writes_dest(ins.op)) last_writes[ins.z] = true;
  for (std::uint32_t v = 0; v < prog_->nvars(); ++v) {
    // last_writer_before(last, v) excludes the final step itself.
    const std::uint32_t writer =
        last_writes[v] ? static_cast<std::uint32_t>(last)
                       : prog_->last_writer_before(last, v);
    if (writer == pram::kInitial) continue;
    const std::uint32_t want =
        static_cast<std::uint32_t>(pram::stamp_of_step(writer));
    const std::size_t slot = var_addr(v, want);
    if (mem_.read(slot).stamp == want) continue;

    // Audited-stale slot.  The agreed value for (writer, v) may still be
    // published in the writer instruction's bin: the upper half is the
    // domain of Theorem 1's uniqueness property, so any upper cell carrying
    // the wanted stamp holds THE agreed value — re-committing it is exactly
    // the Copy subphase replayed at quiescence, hence sound.  If every
    // upper cell has been recycled by later phases (stamp moved on), the
    // value is unrecoverable and the slot stays in lost_commits.
    bool repaired = false;
    if (cfg_.repair) {
      std::size_t task = n_;
      const auto& instrs = prog_->step(writer).instrs;
      for (std::size_t i = 0; i < n_; ++i)
        if (pram::writes_dest(instrs[i].op) && instrs[i].z == v) {
          task = i;  // EREW: at most one writer instruction per variable
          break;
        }
      // Bounded retries: at quiescence one re-commit + re-audit suffices,
      // but the loop keeps the pass correct even if a future caller runs
      // it concurrently with stragglers.
      for (int attempt = 0; attempt < 3 && task < n_ && !repaired;
           ++attempt) {
        const UpperHalf upper = scan_upper_half(task, want);
        if (upper.stamped == 0) break;  // bin recycled: unrepairable
        mem_.write(slot, upper.first, want);
        repaired = mem_.read(slot).stamp == want;  // re-audit
      }
    }
    if (repaired)
      ++out.repaired_commits;
    else
      ++out.lost_commits;
  }
}

HostExecResult HostExecutor::run() {
  const auto t0 = std::chrono::steady_clock::now();
  if (end_tick_ == 0) {
    // Zero-step program: every processor is already past the final tick.
    // The old executor's loop checked `tick >= end_tick` before its first
    // step; run_block() only re-checks at clock updates, so a run would
    // index the empty per-step plan tables — exit up front.
    HostExecResult out;
    out.completed = true;
    out.memory.assign(prog_->nvars(), 0);
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
  }
  // The T workers, then the watchdog, which aborts stragglers past the
  // deadline (it never triggers on a healthy run — the phase clock
  // terminates every worker).  A thread that cannot start (thread or
  // address-space limits) ends the attempt: the ones already running are
  // waved off and joined, since destroying a joinable std::thread is
  // std::terminate.  The message is formatted without allocating, so
  // nothing can throw before the joins.
  std::vector<std::thread> threads;
  threads.reserve(nthreads_ + 1);
  char spawn_error[192] = "";
  try {
    for (std::size_t tid = 0; tid < nthreads_; ++tid)
      threads.emplace_back([this, tid] { worker(tid); });
    threads.emplace_back([&] {
      for (;;) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        bool all = true;
        for (std::size_t tid = 0; tid < nthreads_; ++tid)
          all &= (done_[tid].load(std::memory_order_seq_cst) != 0);
        if (all) return;
        if (elapsed > cfg_.timeout_seconds) {
          abort_.store(true, std::memory_order_relaxed);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  } catch (const std::exception& e) {
    abort_.store(true, std::memory_order_relaxed);
    if (threads.size() < nthreads_)
      std::snprintf(spawn_error, sizeof spawn_error,
                    "cannot start worker thread %zu of %zu: %s",
                    threads.size() + 1, nthreads_, e.what());
    else
      std::snprintf(spawn_error, sizeof spawn_error,
                    "cannot start the watchdog thread: %s", e.what());
  }
  for (auto& t : threads) t.join();

  HostExecResult out;
  const std::int32_t err = first_error_.load(std::memory_order_acquire);
  if (spawn_error[0] != '\0')
    out.error = spawn_error;
  else if (err >= 0)
    out.error = error_slot_[static_cast<std::size_t>(err)];
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.completed = spawn_error[0] == '\0';
  for (std::size_t tid = 0; tid < nthreads_; ++tid)
    out.completed &= (done_[tid].load(std::memory_order_seq_cst) == 1);
  for (const HostProc& vp : procs_) {
    out.clock_work += vp.clock_work;
    out.compute_work += vp.compute_work;
    out.copy_work += vp.copy_work;
    out.stamp_misses += vp.misses;
  }
  out.total_work = out.clock_work + out.compute_work + out.copy_work;

  if (cfg_.preaudit_fault) cfg_.preaudit_fault(mem_);
  if (out.completed) audit_and_repair(out);

  // Freshest generation slot wins (after repair, so a repaired commit is
  // what extraction sees).
  out.memory.assign(prog_->nvars(), 0);
  for (std::size_t v = 0; v < prog_->nvars(); ++v) {
    std::uint32_t best_stamp = 0;
    std::uint64_t best_value = 0;
    for (std::size_t g = 0; g < cfg_.generations; ++g) {
      const HostCell c = mem_.read(var_base_ + v * cfg_.generations + g);
      if (c.stamp >= best_stamp) {
        best_stamp = c.stamp;
        best_value = c.value;
      }
    }
    out.memory[v] = best_value;
  }
  return out;
}

HostRun run_until_clean(const pram::Program& program, HostExecConfig cfg) {
  const std::uint64_t seed = cfg.seed;
  HostRun run;
  while (run.attempts < kMaxAttempts) {
    cfg.seed = seed + kRetrySeedStep * static_cast<std::uint64_t>(run.attempts);
    ++run.attempts;
    run.result = HostExecutor(program, cfg).run();
    run.lost_commits += run.result.lost_commits;
    run.repaired_commits += run.result.repaired_commits;
    if (!run.result.completed || run.result.lost_commits == 0) break;
  }
  return run;
}

}  // namespace apex::host
