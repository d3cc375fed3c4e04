#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>

#include "check/mutation.h"

namespace apex::sim {

namespace {

/// Batched-engine prefetch depth.  One virtual Schedule::fill() call per
/// kGrantBatch grants amortizes dispatch to noise; leftovers persist in the
/// simulator's buffer, so a deep prefetch never changes what executes.
constexpr std::size_t kGrantBatch = 1024;

/// Event sub-batch: the instrumented engine delivers at most this many
/// StepEvents per on_steps span.  Sized so the buffer (kEventBatch *
/// sizeof(StepEvent) = 10 KB) stays comfortably L1-resident — at a full
/// kGrantBatch of 80-byte events the buffer alone is 80 KB, and every event
/// is written by the awaiter then re-read by the flush, so an L2-sized
/// buffer costs several ns per step in pure cache traffic (measured: 128 ->
/// ~108M instrumented steps/s, 256 -> ~100M, 512 -> ~80M, 1024 -> ~75M on
/// the bench box).  Span boundaries carry no semantics (see observer.h), so
/// the split is observable only as smaller spans.
constexpr std::size_t kEventBatch = 128;

}  // namespace

Simulator::Simulator(SimConfig cfg, std::unique_ptr<Schedule> schedule)
    : seeds_{cfg.seed},
      memory_(cfg.memory_words),
      schedule_(std::move(schedule)),
      nprocs_(cfg.nprocs),
      engine_(cfg.engine) {
  if (!schedule_) throw std::invalid_argument("Simulator: null schedule");
  if (schedule_->nprocs() != nprocs_)
    throw std::invalid_argument("Simulator: schedule nprocs mismatch");
  prefetchable_ = schedule_->is_prefetchable();
  starvation_limit_ =
      cfg.starvation_limit != 0
          ? cfg.starvation_limit
          : std::max<std::uint64_t>(1u << 20, 64 * nprocs_);
  procs_.reserve(nprocs_);
  grant_buf_.resize(kGrantBatch);
}

bool Simulator::grant_instrumented(std::size_t p, bool double_charge) {
  ProcState& ps = procs_[p];
  if (ps.finished) return false;

  auto top = ps.task.handle();
  Ctx& ctx = *ps.ctx;

  // Resume the deepest suspended coroutine (the top-level proc on the first
  // grant, otherwise wherever the last step awaiter suspended — possibly
  // inside nested SubTasks; see the resume-slot invariant in spawn()).
  // It runs protocol code until it requests the next atomic op (a step
  // awaiter records it in the Ctx) or the top-level coroutine finishes.
  // Plain computation between awaits is free; the op requested *by this
  // grant* executes below, atomically.  (This path keeps the pre-batching
  // per-grant shape so run_single_step stays an honest perf baseline.)
  std::coroutine_handle<>& slot = resume_slots_[p];
  std::coroutine_handle<> h = slot ? slot : std::coroutine_handle<>(top);
  slot = {};
  h.resume();

  if (top.promise().exception) [[unlikely]]
    std::rethrow_exception(top.promise().exception);

  StepEvent ev;
  ev.time = work_;
  ev.proc = p;

  if (top.done()) {
    ps.finished = true;
    --alive_;
    // The final resume still consumed the processor's step (it did the local
    // work of deciding to halt).
    ev.op = Op{Op::Kind::Local, 0, 0, 0};
  } else {
    const Op op = ctx.pending_;
    ev.op = op;
    switch (op.kind) {
      case Op::Kind::Read: {
        const Cell c = memory_.at(op.addr);
        ev.before = ev.after = c;
        ctx.result_ = c;
        break;
      }
      case Op::Kind::Write: {
        Cell& c = memory_.at(op.addr);
        ev.before = c;
        c = Cell{op.value, op.stamp};
        ev.after = c;
        ctx.result_ = c;
        break;
      }
      case Op::Kind::Local:
      case Op::Kind::None:
        ctx.result_ = Cell{};
        break;
    }
  }

  ctx.steps_ += 1;
  work_ += 1;
  if (double_charge && ev.op.kind == Op::Kind::Local)
    work_ += 1;  // self-test mutation: charge twice, emit one event
  observers_.on_step(ev);
  return true;
}

void Simulator::charge_starvation(std::uint64_t dead_tick) {
  // Schedule granted a finished processor; charge nothing but guard against
  // schedules that starve all remaining live processors.
  starvation_ = last_dead_tick_ + 1 == dead_tick ? starvation_ + 1 : 1;
  last_dead_tick_ = dead_tick;
  if (starvation_ > starvation_limit_)
    throw std::runtime_error("Simulator: schedule starved live processors");
}

void Simulator::refill_grants() {
  // Non-prefetchable schedules (adaptive, or externally steered between
  // run() calls) must be asked exactly when a grant is needed.  Oblivious
  // self-contained schedules depend only on (t, their private stream);
  // drawing them ahead of execution is invisible.
  const std::size_t want = prefetchable_ ? kGrantBatch : 1;
  // Empty the buffer BEFORE filling: if fill() throws and the caller
  // catches, a later run() must refill (re-raising the schedule's error)
  // rather than replay the previous batch's stale contents.
  buf_pos_ = 0;
  buf_len_ = 0;
  try {
    buf_len_ = schedule_->fill(
        std::span<std::uint32_t>(grant_buf_.data(), want), ticks_drawn_);
  } catch (...) {
    // refill happens only with an empty buffer, so the grant that faulted
    // is exactly the next one to execute: consume its tick before
    // propagating, as the single-step engine does (tick_++ before next()).
    ++tick_;
    ++ticks_drawn_;
    throw;
  }
  if (buf_len_ == 0 || buf_len_ > want)
    throw std::logic_error("Simulator: Schedule::fill returned bad count");
  ticks_drawn_ += buf_len_;
  validate_grants(0);
}

void Simulator::validate_grants(std::size_t from) {
  // Validate the buffer tail [from, buf_len_) so the consume loops skip
  // the per-grant range check: a vectorizable max-scan, then (only if a
  // bad grant exists) a scalar pass for its position.  A bad grant
  // poisons only its own position: everything before it executes first,
  // exactly as the single-step engine would.
  bad_grant_at_ = buf_len_;
  const std::uint32_t n = static_cast<std::uint32_t>(procs_.size());
  std::uint32_t maxg = 0;
  for (std::size_t i = from; i < buf_len_; ++i)
    maxg = std::max(maxg, grant_buf_[i]);
  if (maxg >= n) [[unlikely]] {
    for (std::size_t i = from; i < buf_len_; ++i)
      if (grant_buf_[i] >= n) {
        bad_grant_at_ = i;
        break;
      }
  }
}

void Simulator::flush_observers_slow() {
  const std::span<const StepEvent> batch(
      ev_flushed_, static_cast<std::size_t>(ev_next_ - ev_flushed_));
  // Mark delivered BEFORE fanning out: a re-entrant flush from inside an
  // observer then no-ops instead of double-delivering.
  ev_flushed_ = ev_next_;
  observers_.on_steps(batch);
}

template <bool kEvents>
void Simulator::consume_batch(std::size_t end, bool double_charge,
                              bool poll_on_dead, RunResult& res) {
  // The hot loop of the whole repo, instantiated once per observer mode.
  // The atomic op itself is executed inline by the step awaiter (see
  // proc.h) before the resume returns, so each iteration is: resume, finish
  // check, accounting.  Everything the resume cannot touch is hoisted into
  // const locals; counters the protocol can read mid-resume through Ctx
  // accessors (work_, ctx.steps_) stay per-step member updates, while
  // run-local or boundary-visible counters (res.work, tick_, buf_pos_,
  // starvation_) accumulate in registers and flush at every exit —
  // including the throwing ones, so a caught exception leaves the
  // simulator consistent.
  //
  // kEvents (an observer is attached): each live grant's awaiter also
  // fills the current slot of the batch event buffer (through ev_cur_; the
  // loop pre-fills time/proc and advances the slot).  Delivery is deferred:
  // one on_steps(span) per kEventBatch events, and one for the remainder at
  // every exit of this function, so every executed step is delivered
  // exactly once, in order, before any stop-predicate poll and before any
  // exception escapes.
  const std::uint32_t* const buf = grant_buf_.data();
  std::coroutine_handle<>* const slots = resume_slots_.data();
  StepEvent* const evs = event_buf_.data();
  StepEvent* const evs_cap = evs + event_buf_.size();
  // A previously faulted grant was consumed and its exception caught:
  // re-validate the buffer tail so execution continues past it, exactly
  // as the single-step engine would.
  if (bad_grant_at_ < buf_pos_) [[unlikely]] validate_grants(buf_pos_);
  // Grants were range-validated at refill time; stop just before a bad one
  // so it faults exactly when the single-step engine would have.
  const std::size_t safe_end = std::min(end, bad_grant_at_);
  const std::size_t pos0 = buf_pos_;
  std::size_t pos = pos0;
  // Grants consumed but charged no work: dead (finished-proc) grants plus
  // at most one trailing faulted grant (unknown proc / out-of-range
  // address: its tick is consumed, its work is not, its event is never
  // built; the single-step engine accounts faults the same way).  Kept on
  // the cold paths only: the live grants of the batch are then
  // (pos - pos0) - deads, so the hot path carries no work/starvation
  // counters at all.
  std::uint64_t deads = 0;

  // Deliver the events filled so far and recycle the buffer, so it stays
  // L1-resident (see kEventBatch).
  const auto deliver = [&]() {
    flush_observers();
    ev_next_ = evs;
    ev_flushed_ = evs;
  };
  const auto flush = [&]() {
    buf_pos_ = pos;
    tick_ += pos - pos0;
    res.work += (pos - pos0) - deads;
    if constexpr (kEvents) deliver();
  };

  bool exhausted = true;
  try {
    while (pos < safe_end) {
      const std::size_t p = buf[pos];
      ++pos;
      const std::coroutine_handle<> h = slots[p];
      if (!h) [[unlikely]] {
        // Null slot = finished processor (spawn() invariant): no event.
        ++deads;
        charge_starvation(tick_ + (pos - 1 - pos0));
        // Work still parked on a predicate boundary: hand back for a
        // re-poll (matches the single-step engine's per-grant polling).
        if (poll_on_dead && pos - pos0 == deads) {
          exhausted = false;
          break;
        }
        continue;
      }
      // Pre-fill the current event slot; the awaiter fills op/before/after
      // through ev_next_ during the resume.  A protocol-hook flush inside
      // the resume delivers [ev_flushed_, ev_next_): everything up to the
      // previous completed step, exactly as the single-step engine had at
      // that point.
      StepEvent* const e = kEvents ? ev_next_ : nullptr;
      if constexpr (kEvents) {
        e->time = work_;
        e->proc = p;
      }
      // Clear before resuming: a suspension re-stores the slot (and the
      // awaiter accounts the step), so a slot still null afterwards means
      // the coroutine ran to completion or captured an exception on the
      // way to final_suspend — the two rare outcomes share one branch and
      // the common path probes no frame or ProcState lines at all.
      slots[p] = {};
      h.resume();

      if (!slots[p]) [[unlikely]] {
        ProcState& ps = procs_[p];
        const auto top = ps.task.handle();
        if (top.promise().exception) [[unlikely]]
          std::rethrow_exception(top.promise().exception);
        // No awaiter ran: the final resume is the processor's halting Local
        // step, accounted (and eventized) here.
        ps.finished = true;
        --alive_;
        ps.ctx->steps_ += 1;
        work_ += 1;
        if (double_charge) [[unlikely]] work_ += 1;  // final resume is Local
        if constexpr (kEvents) {
          e->op = Op{Op::Kind::Local, 0, 0, 0};
          e->before = Cell{};
          e->after = Cell{};
          ev_next_ = e + 1;
          if (ev_next_ == evs_cap) [[unlikely]] deliver();
        }
        if (alive_ == 0) {
          exhausted = false;
          break;
        }
        continue;
      }

      if constexpr (kEvents) {
        if (oob_fault_) [[unlikely]] {
          // The awaiter refused an out-of-range address: nothing executed,
          // nothing charged, no event (ev_next_ stays put, so the
          // pre-filled slot is never delivered).  Consume the grant's tick
          // (deads neutralizes its work charge) and fault exactly as
          // checked Memory::at does on the single-step engine.
          oob_fault_ = false;
          ++deads;
          throw std::out_of_range("apex::sim::Memory: address " +
                                  std::to_string(oob_addr_) + " >= size " +
                                  std::to_string(memory_.size()));
        }
      }
      work_ += 1;
      if constexpr (kEvents) {
        ev_next_ = e + 1;
        if (ev_next_ == evs_cap) [[unlikely]] deliver();
      }
    }
    if (exhausted && pos == bad_grant_at_ && pos < end) {
      ++pos;    // the bad grant consumes its tick, then faults
      ++deads;  // ...but charges no work (it granted nothing)
      throw std::logic_error("Simulator: schedule granted unknown proc");
    }
  } catch (...) {
    flush();
    throw;
  }
  flush();
}

Simulator::RunResult Simulator::run_batched(
    std::uint64_t max_steps, const std::function<bool()>& stop,
    std::uint64_t check_interval) {
  RunResult res;
  const bool instrumented = !observers_.empty();
  const bool double_charge =
      check::mutation_enabled(check::Mutation::kWorkDoubleCharge);

  // Select the awaiter execution mode once per run (see proc.h): both modes
  // execute ops inline at suspension against the raw cell array, which is
  // stable until the next out-of-band extend(); instrumented runs
  // additionally route each step into the batch event buffer via ev_next_.
  if (instrumented) {
    if (event_buf_.size() < kEventBatch) event_buf_.resize(kEventBatch);
    ev_next_ = event_buf_.data();
    ev_flushed_ = event_buf_.data();
  }
  for (auto& ps : procs_) {
    ps.ctx->fast_cells_ = memory_.data();
    ps.ctx->fast_words_ = memory_.size();
    ps.ctx->ev_cur_ = instrumented ? &ev_next_ : nullptr;
    ps.ctx->charge_local_twice_ = double_charge;
  }

  while (res.work < max_steps) {
    if (alive_ == 0) {
      res.all_finished = true;
      break;
    }
    if (stop && res.work % check_interval == 0 && stop()) {
      res.predicate_hit = true;
      break;
    }

    // Consume up to the next stop-predicate boundary / work cap, but never
    // past either: a batch of k grants yields at most k work units, so
    // bounding the batch bounds the work.
    const std::uint64_t until_cap = max_steps - res.work;
    const std::uint64_t until_check =
        stop ? check_interval - (res.work % check_interval) : until_cap;
    const std::uint64_t want = std::min(until_cap, until_check);

    if (buf_pos_ == buf_len_) refill_grants();
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf_len_ - buf_pos_, want));
    // A batch that begins exactly on a predicate boundary must re-poll
    // after each grant that leaves the work count parked there (see
    // consume_batch's poll_on_dead contract).
    const bool poll_on_dead =
        stop != nullptr && res.work % check_interval == 0;
    if (instrumented)
      consume_batch<true>(buf_pos_ + take, double_charge, poll_on_dead, res);
    else
      consume_batch<false>(buf_pos_ + take, double_charge, poll_on_dead, res);
  }
  return res;
}

Simulator::RunResult Simulator::run_single_step(
    std::uint64_t max_steps, const std::function<bool()>& stop,
    std::uint64_t check_interval) {
  // Reference engine: the pre-batching hot loop, byte-for-byte — including
  // its per-grant costs (one virtual next() and one thread-local mutation
  // probe per grant, instrumented grants throughout), so perfbench measures
  // the genuine pre-refactor engine.
  RunResult res;
  for (auto& ps : procs_) {
    ps.ctx->fast_cells_ = nullptr;
    ps.ctx->ev_cur_ = nullptr;
  }

  while (res.work < max_steps) {
    if (alive_ == 0) {
      res.all_finished = true;
      break;
    }
    if (stop && res.work % check_interval == 0 && stop()) {
      res.predicate_hit = true;
      break;
    }

    // The schedule's clock ticks on every grant attempt, including grants to
    // finished processors (real time passes even when a processor is done).
    const std::size_t p = schedule_->next(tick_++);
    if (p >= procs_.size())
      throw std::logic_error("Simulator: schedule granted unknown proc");
    if (!grant_instrumented(
            p, check::mutation_enabled(check::Mutation::kWorkDoubleCharge))) {
      charge_starvation(tick_ - 1);
      continue;
    }
    res.work += 1;
  }
  // Keep the schedule-draw position in sync for the accessors (the
  // reference engine has no prefetch buffer).
  ticks_drawn_ = tick_;
  return res;
}

Simulator::RunResult Simulator::run(std::uint64_t max_steps,
                                    const std::function<bool()>& stop,
                                    std::uint64_t check_interval) {
  if (!started_) {
    started_ = true;
    alive_ = procs_.size();
    for (const auto& ps : procs_)
      if (ps.finished) --alive_;
    // procs_ and resume_slots_ stop growing once started: bind each Ctx to
    // its resume slot (the awaiters store suspension handles through it).
    for (std::size_t i = 0; i < procs_.size(); ++i)
      procs_[i].ctx->resume_slot_ = &resume_slots_[i];
  }
  if (check_interval == 0) check_interval = 1;

  if (engine_ == GrantEngine::kSingleStep)
    return run_single_step(max_steps, stop, check_interval);
  return run_batched(max_steps, stop, check_interval);
}

void Ctx::bump_extra_work() noexcept { sim_->work_ += 1; }

void Ctx::flag_oob(std::size_t addr) noexcept {
  sim_->oob_fault_ = true;
  sim_->oob_addr_ = addr;
}

std::size_t Ctx::nprocs() const noexcept { return sim_->nprocs(); }

}  // namespace apex::sim
