#include "check/oracle.h"

#include <algorithm>

namespace apex::check {

namespace {
constexpr std::size_t kMaxFailures = 8;
}

void Oracle::fail(std::string msg) {
  if (failures_.size() < kMaxFailures) failures_.push_back(std::move(msg));
}

const Oracle* OracleSet::first_failing() const noexcept {
  for (auto* o : list_)
    if (o->failed()) return o;
  return nullptr;
}

std::string OracleSet::first_failure() const {
  if (const Oracle* o = first_failing())
    return std::string(o->name()) + ": " + o->failures().front();
  return {};
}

// ---------------------------------------------------------------------------
// WorkAccountingOracle
// ---------------------------------------------------------------------------

void WorkAccountingOracle::on_steps(std::span<const sim::StepEvent> evs) {
  // Hoist the expected sequence index: within a span the gapless check is
  // a pure local increment.
  std::uint64_t expect = events_;
  for (const sim::StepEvent& ev : evs) {
    if (ev.time != expect) [[unlikely]]
      fail("step event time " + std::to_string(ev.time) +
           " != expected sequence index " + std::to_string(expect) +
           " (work charged without an observed grant)");
    ++expect;
    if (ev.proc >= per_proc_.size()) [[unlikely]]
      per_proc_.resize(ev.proc + 1, 0);
    per_proc_[ev.proc] += 1;
  }
  events_ = expect;
}

void WorkAccountingOracle::on_finish(const sim::Simulator& sim) {
  if (events_ != sim.total_work())
    fail("observer saw " + std::to_string(events_) + " grants but total_work()=" +
         std::to_string(sim.total_work()));
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < sim.nprocs(); ++p) {
    const std::uint64_t steps = sim.proc_steps(p);
    const std::uint64_t seen = p < per_proc_.size() ? per_proc_[p] : 0;
    if (steps != seen)
      fail("proc " + std::to_string(p) + " charged " + std::to_string(steps) +
           " steps but observer saw " + std::to_string(seen));
    sum += steps;
  }
  if (sum != sim.total_work())
    fail("sum of proc_steps " + std::to_string(sum) + " != total_work() " +
         std::to_string(sim.total_work()));
}

// ---------------------------------------------------------------------------
// ClockOracle
// ---------------------------------------------------------------------------

ClockOracle::ClockOracle(const clockx::PhaseClock& clock, std::size_t nprocs,
                         std::uint64_t skew_ticks)
    : clock_(&clock), skew_(skew_ticks) {
  last_phase_.assign(nprocs, 0);
  // Sampling window: one Read-Clock spans samples() reads + 1 local step.
  window_.assign(nprocs,
                 std::vector<std::uint64_t>(clock.samples() + 2, 0));
  wpos_.assign(nprocs, 0);
  wlen_.assign(nprocs, 0);
  pending_.assign(nprocs, PendingRead{});
}

void ClockOracle::on_steps(std::span<const sim::StepEvent> evs) {
  // Hoisted out of the per-event loop: the clock geometry (threshold,
  // ownership test) and the running update total — the ring bookkeeping
  // divides by the threshold on EVERY event, so keeping `total` and
  // `threshold` in registers is the win here.
  const clockx::PhaseClock* const clock = clock_;
  const std::uint64_t threshold = clock->threshold();
  const std::size_t nprocs = window_.size();
  std::uint64_t total = total_;

  for (const sim::StepEvent& ev : evs) {
    // Record the true tick at each processor step BEFORE applying the step,
    // so window_[p] brackets the slot values any in-flight read sampled.
    if (ev.proc < nprocs) {
      auto& ring = window_[ev.proc];
      std::size_t& wp = wpos_[ev.proc];
      ring[wp] = total / threshold;
      wp = (wp + 1) % ring.size();
      wlen_[ev.proc] = std::min(wlen_[ev.proc] + 1, ring.size());
    }

    if (!clock->owns(ev.op.addr)) continue;

    // An update is a read-then-write pair by one processor on one slot: the
    // write must store exactly (the value that processor just read) + 1.
    // NOTE the slot itself may move between the two halves (concurrent
    // updates race; a lost update can even lower it), so comparing the
    // write against the slot's current content is NOT sound — only against
    // the writer's own read.
    if (ev.op.kind == sim::Op::Kind::Read) {
      if (ev.proc < pending_.size())
        pending_[ev.proc] = PendingRead{true, ev.op.addr, ev.before.value};
      continue;
    }
    if (ev.op.kind != sim::Op::Kind::Write) continue;
    if (ev.proc < pending_.size()) {
      const PendingRead p = pending_[ev.proc];
      pending_[ev.proc].valid = false;
      if (!p.valid || p.addr != ev.op.addr)
        fail("proc " + std::to_string(ev.proc) +
             " wrote clock slot addr " + std::to_string(ev.op.addr) +
             " without reading it first (Update-Clock is read-then-write)");
      else if (ev.op.value != p.value + 1)
        fail("proc " + std::to_string(ev.proc) + " read clock slot value " +
             std::to_string(p.value) + " but wrote " +
             std::to_string(ev.op.value) +
             " (Update-Clock must add exactly 1)");
    }
    if (ev.after.value > ev.before.value)
      total += ev.after.value - ev.before.value;
  }

  total_ = total;
}

void ClockOracle::on_phase_enter(std::size_t proc, sim::Word phase) {
  if (proc >= last_phase_.size()) return;
  if (phase < last_phase_[proc])
    fail("proc " + std::to_string(proc) + " phase regressed " +
         std::to_string(last_phase_[proc]) + " -> " + std::to_string(phase) +
         " (Read-Clock monotone clamp violated)");
  last_phase_[proc] = phase;

  const std::uint64_t tick_now = total_ / clock_->threshold();
  if (phase > tick_now + 1 + skew_)
    fail("proc " + std::to_string(proc) + " entered phase " +
         std::to_string(phase) + " but true tick is only " +
         std::to_string(tick_now) + " (estimate ran ahead by > " +
         std::to_string(skew_) + " ticks)");

  // Lower bound against the tick at the START of the proc's sampling
  // window (slots only grow, so the estimate cannot undershoot the total
  // it started sampling at by more than noise).
  const auto& ring = window_[proc];
  std::uint64_t tick_window_start = 0;
  if (wlen_[proc] == ring.size())
    tick_window_start = ring[wpos_[proc]];  // oldest entry
  if (phase + skew_ < tick_window_start + 1)
    fail("proc " + std::to_string(proc) + " entered phase " +
         std::to_string(phase) + " while its sampling window began at tick " +
         std::to_string(tick_window_start) +
         " (estimate lagged by > " + std::to_string(skew_) + " ticks)");
}

// ---------------------------------------------------------------------------
// BinArrayOracle
// ---------------------------------------------------------------------------

BinArrayOracle::BinArrayOracle(const agreement::BinArray& bins,
                               agreement::SupportFn support)
    : bins_(&bins), support_(std::move(support)) {
  history_.resize(bins.bins() * bins.cells_per_bin());
}

void BinArrayOracle::on_steps(std::span<const sim::StepEvent> evs) {
  // Most steps are not bin writes: hoist the ownership filter's operands so
  // the common case is a compare-and-skip with no pointer chasing.
  const agreement::BinArray* const bins = bins_;
  const std::size_t cells_per_bin = bins->cells_per_bin();

  for (const sim::StepEvent& ev : evs) {
    if (ev.op.kind != sim::Op::Kind::Write || !bins->owns(ev.op.addr))
      continue;
    const std::size_t bin = bins->bin_of(ev.op.addr);
    const std::size_t cell = bins->cell_of(ev.op.addr);
    const sim::Word stamp = ev.op.stamp;
    const sim::Word value = ev.op.value;

    if (stamp == 0) {
      fail("bin " + std::to_string(bin) + " cell " + std::to_string(cell) +
           " written with stamp 0 (bin cells must carry a phase stamp)");
      continue;
    }
    if (support_ && !support_(bin, value))
      fail("bin " + std::to_string(bin) + " cell " + std::to_string(cell) +
           " written with value " + std::to_string(value) +
           " outside the support of f_i");

    if (cell > 0) {
      // Copy provenance: the value must have been observed in cell-1 with
      // the same stamp at some earlier step, otherwise the Fig. 2 re-read
      // rule (never give a stale value a current stamp) was skipped.
      const auto& prev = history_[bin * cells_per_bin + cell - 1];
      const auto it = prev.find(stamp);
      const bool ok =
          it != prev.end() &&
          std::find(it->second.begin(), it->second.end(), value) !=
              it->second.end();
      if (!ok)
        fail("bin " + std::to_string(bin) + " cell " + std::to_string(cell) +
             " copied value " + std::to_string(value) + " stamp " +
             std::to_string(stamp) +
             " which cell " + std::to_string(cell - 1) +
             " never held under that stamp (copy-forward provenance)");
    }

    auto& vals = history_[bin * cells_per_bin + cell][stamp];
    if (std::find(vals.begin(), vals.end(), value) == vals.end())
      vals.push_back(value);
  }
}

// ---------------------------------------------------------------------------
// ClobberOracle
// ---------------------------------------------------------------------------

ClobberOracle::ClobberOracle(const agreement::BinArray& bins,
                             const clockx::PhaseClock& clock,
                             std::uint32_t max_per_bin)
    : bins_(&bins),
      clock_(&clock),
      bound_(max_per_bin != 0 ? max_per_bin : default_bound(bins.bins())) {
  clobbers_.assign(bins.bins(), 0);
}

void ClobberOracle::on_steps(std::span<const sim::StepEvent> evs) {
  // Hoisted: both ownership filters, the clock threshold, and the running
  // phase state — reads and locals (the bulk of every span) fall through on
  // one branch.
  const clockx::PhaseClock* const clock = clock_;
  const agreement::BinArray* const bins = bins_;
  const std::uint64_t threshold = clock->threshold();
  sim::Word true_phase = true_phase_;

  for (const sim::StepEvent& ev : evs) {
    if (ev.op.kind != sim::Op::Kind::Write) continue;

    if (clock->owns(ev.op.addr)) {
      if (ev.after.value > ev.before.value)
        total_ += ev.after.value - ev.before.value;
      const sim::Word tick = total_ / threshold;
      if (tick + 1 != true_phase) {
        true_phase = tick + 1;
        std::fill(clobbers_.begin(), clobbers_.end(), 0);
      }
      continue;
    }

    if (!bins->owns(ev.op.addr)) continue;
    if (ev.op.stamp == true_phase) continue;
    const std::size_t bin = bins->bin_of(ev.op.addr);
    const std::uint32_t c = ++clobbers_[bin];
    max_observed_ = std::max(max_observed_, c);
    if (c == bound_ + 1)  // report once per (bin, phase)
      fail("bin " + std::to_string(bin) + " suffered " + std::to_string(c) +
           " clobbers in true phase " + std::to_string(true_phase) +
           " (Lemma 1 cap is " + std::to_string(bound_) + ")");
  }

  true_phase_ = true_phase;
}

// ---------------------------------------------------------------------------
// ConsensusOracle
// ---------------------------------------------------------------------------

ConsensusOracle::ConsensusOracle(const consensus::ScanConsensus& sc)
    : sc_(&sc), n_(sc.values()), base_(sc.register_base()) {
  proposals_.assign(n_, std::vector<std::optional<sim::Word>>(n_));
}

void ConsensusOracle::on_steps(std::span<const sim::StepEvent> evs) {
  const std::size_t base = base_;
  const std::size_t n = n_;
  const std::size_t limit = base + n * n;
  for (const sim::StepEvent& ev : evs) {
    if (ev.op.kind != sim::Op::Kind::Write) continue;
    if (ev.op.addr < base || ev.op.addr >= limit) continue;
    const std::size_t idx = (ev.op.addr - base) / n;
    const std::size_t owner = (ev.op.addr - base) % n;
    if (ev.proc != owner)
      fail("proc " + std::to_string(ev.proc) + " wrote register R[" +
           std::to_string(idx) + "][" + std::to_string(owner) +
           "] it does not own (single-writer violated)");
    if (ev.before.stamp != 0)
      fail("register R[" + std::to_string(idx) + "][" + std::to_string(owner) +
           "] written twice (write-once violated)");
    proposals_[idx][owner] = ev.op.value;
  }
}

void ConsensusOracle::on_finish(const sim::Simulator&) {
  for (std::size_t i = 0; i < n_; ++i) {
    std::optional<sim::Word> agreed;
    for (std::size_t p = 0; p < n_; ++p) {
      const auto& d = sc_->decisions_of(p);
      if (i >= d.size() || !d[i].has_value()) continue;
      const sim::Word v = *d[i];
      if (!agreed.has_value()) agreed = v;
      if (v != *agreed) {
        fail("value " + std::to_string(i) + ": proc " + std::to_string(p) +
             " decided " + std::to_string(v) + " but another proc decided " +
             std::to_string(*agreed) + " (agreement violated)");
        break;
      }
      // Validity + the deterministic rule: a decision is only taken once
      // every register is filled, and it must be processor 0's proposal.
      if (!proposals_[i][0].has_value() || v != *proposals_[i][0]) {
        fail("value " + std::to_string(i) + ": proc " + std::to_string(p) +
             " decided " + std::to_string(v) +
             " != lowest-numbered proposal (validity/decision rule)");
        break;
      }
    }
  }
}

}  // namespace apex::check
