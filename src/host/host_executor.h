// The full execution scheme (paper §2, Fig. 1) on real OS threads, with
// logical processors VIRTUALIZED: P logical processors are multiplexed onto
// T worker threads (T <= P), decoupling the paper's n from the core count.
//
// Mirrors src/exec/Executor on the host substrate.  Shared memory is
// HostMemory (value+stamp packed into one atomic 64-bit word); phases are
// PRAM steps, each with a Compute subphase (bin-array agreement cycles
// evaluating the step's instructions) and a Copy subphase (committing
// agreed NewVal values into the program variables' generation slots), both
// delimited by the sampled-counter phase clock.
//
// The virtual-processor run loop: each logical processor is a dense
// HostProc record (private RNG, tick estimate, work counters — no heap, no
// atomics, owned by exactly one worker thread), and each of T OS threads
// walks its contiguous slice of the P records in one sweep — a block of
// consecutive visits per live processor, then the next — executing ONE
// protocol step per visit.  A block runs on one local copy of the record,
// and its visits are pipelined without reordering anything: Read-Clock
// draws its sample slots in one pass and loads them in a second, and a
// visit with no clock update ahead draws the next visit's task early and
// prefetches the cell that visit reads first.  Slices hold equal processor
// counts or equal weight (Interleave).  The substrate provides timing, the protocol provides
// correctness: from the protocol's viewpoint a T-thread host is simply an
// adversary that stalls every processor of a slice in lockstep — a LEGAL
// oblivious adversary (the OS, the sweep and the slicing never see the
// protocol's coins), and a strictly more asynchronous one than
// one-thread-per-processor, since a single preemption now stalls P/T
// processors at once.  T = 1 is a fully deterministic sequential
// interleaving.
//
// What this validates: the w.h.p. guarantees of the scheme carry from the
// oblivious-adversary model to genuine preemption — and now to instance
// sizes (P = 64-256) far beyond the core count.
//
// One honest fidelity boundary: the OS is STRONGER than the adversary the
// scheme is tuned for.  The model's schedules stall a pending operation for
// at most a bounded number of ticks, so a tardy generation-slot commit can
// never be G or more phases stale; a real OS can park a thread between its
// commit decision and the store for an unbounded time (observed on an
// oversubscribed machine: a worker waking after ~10 phases and clobbering
// the slot its ancient stamp aliases mod G).  No write-only protocol closes
// that window — the paper's word+stamp postulate forbids compare-and-swap —
// but a tardy write always carries its OLD stamp, which makes the damage
// DETECTABLE: run() audits every variable's last-writer slot after the
// threads join, then REPAIRS each audited-stale slot from the agreed value
// still published in its writer's bin (upper half, where Theorem 1's
// uniqueness holds), re-auditing after each re-commit.  Repaired slots are
// reported as `repaired_commits`; a slot whose bin has since been recycled
// by later phases is unrepairable and stays in `lost_commits`.  An
// audit-clean result (lost_commits == 0, repaired or not) is sound: readers
// accept only exact stamps, and the value stored under a given stamp is
// always that step's unique agreed value, even when the store itself was
// tardy.  Non-zero lost_commits means the memory must not be trusted;
// run_until_clean() is the re-run policy.
//
// Cycle cost depends on memory contents here.  The simulator pads every
// agreement cycle to exactly ω steps (§3, "Work Per Cycle"), so a cycle's
// cost is independent of what it reads.  The host does not pad, and two
// visits stop early: a Compute visit whose bin's top cell already carries
// the step's stamp (full bin), and a Copy visit whose generation slot
// already carries it (committed slot).  Each costs the task choice plus
// one read.  Such a visit writes nothing, so to every other processor it
// is a stalled processor — a behaviour any adversary may produce — which
// is why the exits cost no correctness (see compute_visit/copy_visit).
// Host work is therefore not comparable step for step with simulator work.
//
// Limits vs the simulator executor: program values must fit in 40 bits
// (host Pack width), and there is no produced-trace monitor — tests verify
// invariants on the final memory (deterministic kernels against the
// synchronous reference; nondeterministic kernels against their
// self-declared invariants).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "host/host_memory.h"
#include "pram/program.h"
#include "util/math.h"
#include "util/rng.h"

namespace apex::host {

/// How the P virtual processors are cut into the T worker threads' slices.
/// Every worker walks its slice with the same sweep (kBlockSteps visits per
/// live processor per turn, host_executor.cpp).  Neither slicing reads
/// protocol state, so each is a legal oblivious adversary.
enum class Interleave : std::uint8_t {
  kRoundRobin,  ///< Equal-count slices.
  kPartition,   ///< WEIGHT-BALANCED slices: the T slice bounds come from
                ///< HostExecConfig::proc_weights (e.g. the graph degree
                ///< partitioner's per-processor work), so the OS threads
                ///< that walk a CSR partition own the processors placed on
                ///< it.  Still oblivious: weights are static data fixed
                ///< before the run.
};

const char* interleave_name(Interleave p) noexcept;
/// Parse "rr"/"round_robin" or "partition"; returns false on anything else.
bool parse_interleave(const std::string& s, Interleave& out) noexcept;

struct HostExecConfig {
  std::size_t generations = 4;  ///< G generation slots per program variable.
  /// Clock updates per tick, per logical processor (tau = alpha * P).  Real
  /// threads burn through cycles at nanosecond rates, so alpha serves two
  /// purposes: (a) as in the simulator, it must comfortably exceed the bin
  /// size so every bin fills early in its phase, and (b) it sets the wall-
  /// clock length of a phase, which must outlast OS timeslices when T is
  /// close to P and the OS, not the sweep, decides who runs.  4096 is the
  /// conservative value for that shape.  Virtualized configs (T << P)
  /// tolerate far smaller alpha (e.g. 48): intra-slice skew is bounded by
  /// the sweep, so phases no longer need to outlast OS timeslices.
  double clock_alpha = 4096.0;
  std::uint64_t seed = 1;
  double timeout_seconds = 60.0;

  // --- virtualization -------------------------------------------------------
  /// T = number of OS worker threads.  0 = the hardware thread count.  The
  /// result is clamped to [1, P] (a worker needs a processor to drive); see
  /// resolve_os_threads().
  std::size_t os_threads = 0;
  Interleave interleave = Interleave::kRoundRobin;
  /// Run the post-join lost-commit repair pass (on by default; off shows
  /// the raw audit).
  bool repair = true;
  /// Per-logical-processor work weights for Interleave::kPartition (e.g.
  /// instruction-slot counts from the graph degree partitioner).  Empty =
  /// equal-count slices, as under kRoundRobin; a non-empty vector must have
  /// exactly P entries.
  std::vector<std::uint64_t> proc_weights;
  /// TEST ONLY: fault injected between thread join and the commit audit —
  /// lets tests exercise the audit+repair path deterministically (genuine
  /// ultra-preemption damage needs an adversarial OS moment).
  std::function<void(HostMemory&)> preaudit_fault;
};

struct HostExecResult {
  bool completed = false;        ///< Every thread saw the final tick.
  std::uint64_t total_work = 0;  ///< Atomic steps summed over processors.
  /// total_work split by what the step served: clock_work is Update-Clock
  /// and Read-Clock; compute_work is every step of a Compute-subphase visit
  /// (task choice, bin probes, operand reads, evaluation, bin writes);
  /// copy_work is every step of a Copy-subphase visit (task choice, slot and
  /// bin reads, the commit).  The three sum to total_work.
  std::uint64_t clock_work = 0;
  std::uint64_t compute_work = 0;
  std::uint64_t copy_work = 0;
  double wall_seconds = 0.0;
  std::vector<pram::Word> memory;  ///< Final value of each variable.
  std::uint64_t stamp_misses = 0;     ///< Operand reads that found a stale
                                      ///< stamp and retried (normal).
  /// First fault: a worker-side one (e.g. a program value exceeding the
  /// 40-bit host Pack width), or a thread that could not be started.
  /// Non-empty implies completed == false; the run aborts cleanly instead of
  /// crashing the process.  A timeout leaves it empty.
  std::string error;
  /// Variables whose LAST writer's commit was absent from its generation
  /// slot after the run AND could not be repaired from the agreed bin
  /// value.  0 certifies the extracted memory; non-zero means re-run.
  std::size_t lost_commits = 0;
  /// Audited-stale slots re-committed from their writer's bin (upper half)
  /// and re-audited clean.  Counted separately so the trajectory shows how
  /// often ultra-preemption damage occurs vs how often it is recoverable.
  std::size_t repaired_commits = 0;
};

/// The worker-thread count for `requested` (HostExecConfig::os_threads) on a
/// program of `nprocs` logical processors: 0 means the hardware thread count
/// (batch::SweepEngine::resolve_jobs, the `--jobs=0` rule), and the result is
/// clamped to [1, nprocs].
std::size_t resolve_os_threads(std::size_t requested, std::size_t nprocs);

class HostExecutor {
 public:
  HostExecutor(const pram::Program& program, HostExecConfig cfg);

  /// Launch T worker threads over the P virtual processors, run the full
  /// phase sequence, join, audit + repair, and extract the final memory.
  /// One attempt: see run_until_clean() for the retry policy.
  HostExecResult run();

  /// Raw host memory (clock | bins | generation slots) — for inspectors
  /// and tests; read it only after run() returned.
  const HostMemory& memory() const noexcept { return mem_; }
  /// Address of the generation slot var v uses for `stamp` (inspectors).
  std::size_t var_slot_addr(std::uint32_t var, std::uint32_t stamp) const {
    return var_addr(var, stamp);
  }
  /// The worker-thread count this run will use (after clamping).
  std::size_t os_threads() const noexcept { return nthreads_; }

  /// Theorem 1 as a quiescent query (read it only after run() returned;
  /// mirrors agreement::TheoremChecker::values).  Entry i is the single
  /// value held by bin i's upper-half cells that carry `step`'s stamp, or
  /// nullopt when fewer than half of those cells carry the stamp or when
  /// they disagree.  Exact for the final step, whose bins no later phase
  /// recycles; an earlier step's bins may since have been overwritten.
  std::vector<std::optional<std::uint64_t>> agreed_values(
      std::size_t step) const;

 private:
  /// Dense per-logical-processor loop state.  Owned by exactly one worker
  /// thread at a time — plain fields, no synchronization.  Cache-line
  /// aligned so neighbouring processors in different slices never false-
  /// share.
  struct alignas(64) HostProc {
    apex::Rng rng;
    std::uint64_t iter = 0;         ///< Countdown to next clock update
                                    ///< (replaces the (iter+id) % stride
                                    ///< test — no per-visit divide).
    std::uint64_t tick = 0;         ///< Latest clock estimate.
    std::uint64_t clamp = 0;        ///< Monotone reader clamp.
    std::uint64_t clock_work = 0;   ///< Work split, see HostExecResult.
    std::uint64_t compute_work = 0;
    std::uint64_t copy_work = 0;
    std::uint64_t misses = 0;
    bool done = false;
  };

  /// Precomputed per-(step, instruction) operand plan: every address and
  /// expected stamp a visit reads, resolved once at construction from
  /// Program::walk_writers, so a visit performs no multiplies, no writer
  /// lookups, no bounds checks.  Nothing else: the operand count and the
  /// write test follow from `op`, and the evaluation path alone reads the
  /// instruction itself, from the program.  32 bytes, two plans a line.
  struct OpPlan {
    pram::OpCode op;
    std::uint32_t x_addr, y_addr, c_addr;  ///< Operand generation slots.
    std::uint32_t x_want, y_want, c_want;  ///< Expected operand stamps.
    std::uint32_t z_addr;      ///< Commit slot (writes only).
  };
  static_assert(sizeof(OpPlan) == 32);

  void worker(std::size_t tid);
  void worker_body(std::size_t tid);
  /// Run one block of up to kBlockSteps visits (one protocol step each) on a
  /// local copy of the processor's record; returns true when the processor
  /// observed the final tick (it must not be visited again).
  bool run_block(HostProc& vp);
  /// The Compute- and Copy-subphase halves of one visit for task i of step
  /// s, on run_block()'s local copy of the processor.
  void compute_visit(HostProc& p, std::size_t s, std::size_t i,
                     std::uint32_t stamp);
  void copy_visit(HostProc& p, std::size_t s, std::size_t i,
                  std::uint32_t stamp);
  bool eval(HostProc& p, std::size_t s, std::size_t i, std::uint64_t& out);
  void record_error(std::size_t tid, const char* what);
  void audit_and_repair(HostExecResult& out);

  /// Bin `bin`'s upper-half cells stamped `stamp`: how many there are, the
  /// first one's value, and whether they all hold that value.
  struct UpperHalf {
    std::size_t stamped = 0;
    std::uint64_t first = 0;
    bool unique = true;
  };
  UpperHalf scan_upper_half(std::size_t bin, std::uint32_t stamp) const;

  // Memory layout helpers (clock slots | bins | variable generations).
  std::size_t bin_addr(std::size_t bin, std::size_t cell) const {
    return bins_base_ + bin * b_ + cell;
  }
  std::size_t var_addr(std::uint32_t var, std::uint32_t stamp) const {
    return var_base_ + static_cast<std::size_t>(var) * cfg_.generations +
           stamp % cfg_.generations;
  }

  const pram::Program* prog_;
  HostExecConfig cfg_;
  std::size_t n_;           ///< P: logical processors = program threads = bins.
  std::size_t nthreads_;    ///< T: OS worker threads (clamped to [1, P]).
  std::size_t b_;           ///< Cells per bin.
  std::size_t clock_base_;
  std::size_t bins_base_;
  std::size_t var_base_;
  std::uint64_t clock_tau_;
  std::size_t clock_samples_;
  std::uint64_t stride_;    ///< Visits between clock updates (>= 1).
  std::uint64_t end_tick_;
  HostMemory mem_;

  std::vector<HostProc> procs_;        ///< P dense records.
  std::vector<std::size_t> slice_;     ///< T+1 slice bounds over procs_.
  std::vector<OpPlan> plans_;          ///< nsteps * P, step-major.
  std::vector<std::uint32_t> step_stamp_;    ///< Stamp per step.

  std::atomic<bool> abort_{false};
  /// Per-worker clean-completion flags (watchdog reads them live).  Dense
  /// vector block — the vector is sized once and never resized (atomics
  /// are not movable), same idiom as HostMemory.
  std::vector<std::atomic<std::uint8_t>> done_;
  /// Lock-free first-fault capture: each worker owns error_slot_[tid]; the
  /// first faulting worker claims first_error_ with one CAS (harness
  /// bookkeeping, not protocol memory — the model's no-RMW postulate
  /// applies to the shared PRAM words only).  No mutex anywhere on the
  /// worker path.
  std::vector<std::string> error_slot_;
  std::atomic<std::int32_t> first_error_{-1};
};

/// run_until_clean()'s outcome: the last attempt's result, how many
/// attempts ran, and the lost and repaired commits summed over all of them.
struct HostRun {
  HostExecResult result;
  int attempts = 0;
  std::size_t lost_commits = 0;
  std::size_t repaired_commits = 0;
};

/// The retry policy for detected preemption damage: an attempt with
/// lost_commits != 0 is untrusted, so run `program` again on seed
/// cfg.seed + 1000 * attempt, up to 4 attempts.  Stops early at an
/// audit-clean attempt, or at one that did not complete (a timeout, a
/// worker fault or a thread that could not start is reported, not retried).
HostRun run_until_clean(const pram::Program& program, HostExecConfig cfg);

}  // namespace apex::host
