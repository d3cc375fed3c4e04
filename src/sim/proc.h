// Virtual processors as C++20 coroutines.
//
// A processor's protocol code is an ordinary coroutine taking a `Ctx&`.
// Every `co_await ctx.read(...)`, `co_await ctx.write(...)` or
// `co_await ctx.local()` is exactly ONE atomic step of the A-PRAM model:
// the simulator grants steps one at a time according to the adversary
// schedule, executes the requested operation against shared memory, and
// resumes the coroutine.  Plain C++ computation between `co_await`s costs
// nothing — the model only charges atomic steps, and protocol code charges
// local computation explicitly with `ctx.local()` where the paper counts it
// (e.g. padding agreement cycles to a fixed length ω).
//
// Protocols compose with SubTask<T> (see subtask.h): sub-procedures are
// coroutines awaited from the parent; a step awaiter anywhere in the stack
// suspends the whole stack by recording the deepest handle in the Ctx.
// Each nesting level costs a frame allocation per call and a second resume
// target per grant, so hot drivers inline their sub-procedures over shared
// non-suspending helpers and keep SubTask for f and the units off the hot
// path.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "sim/word.h"
#include "util/rng.h"

namespace apex::sim {

class Simulator;

/// The single pending atomic operation of a suspended processor.
struct Op {
  enum class Kind : std::uint8_t { None, Read, Write, Local };
  Kind kind = Kind::None;
  std::size_t addr = 0;
  Word value = 0;  ///< Write: value to store.
  Word stamp = 0;  ///< Write: stamp to store.
};

/// One executed atomic step, as seen by an observer (see observer.h for the
/// delivery contract).  Defined here because the instrumented batched engine
/// fills events INLINE in the step awaiters below.
struct StepEvent {
  std::uint64_t time = 0;   ///< Global step index (work units so far - 1).
  std::size_t proc = 0;
  Op op{};
  Cell before{};            ///< Cell content before the op (reads: == after).
  Cell after{};             ///< Cell content after the op.
};


/// Coroutine handle type for a top-level processor program.
class ProcTask {
 public:
  struct promise_type {
    std::exception_ptr exception;

    ProcTask get_return_object() {
      return ProcTask(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  ProcTask() = default;
  explicit ProcTask(Handle h) : handle_(h) {}
  ProcTask(ProcTask&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  ProcTask& operator=(ProcTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  ProcTask(const ProcTask&) = delete;
  ProcTask& operator=(const ProcTask&) = delete;
  ~ProcTask() { destroy(); }

  Handle handle() const noexcept { return handle_; }
  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return !handle_ || handle_.done(); }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

/// Per-processor execution context handed to protocol coroutines.
///
/// Lifetime: owned by the Simulator, stable address for the duration of the
/// coroutine.  Also holds the processor's suspended-step state: the pending
/// atomic op, its result, and the deepest coroutine to resume next grant.
class Ctx {
 public:
  Ctx(Simulator& sim, std::size_t id, apex::Rng rng)
      : sim_(&sim), id_(id), rng_(rng) {}

  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // Awaitables for one atomic step, one statically-typed awaiter per op
  // kind.  Each yields the Cell the operation observed (reads) or stored
  // (writes); Local yields {}.
  //
  // Execution has three modes, selected once per Simulator::run():
  //   * classic (fast_cells_ == nullptr): the awaiter records the op in
  //     ctx->pending_; the scheduler loop executes it against checked
  //     memory, reports it to the observer chain per step, and leaves the
  //     result in ctx->result_.  This is the single-step reference engine's
  //     mode (the genuine pre-batching shape).
  //   * fast (fast_cells_ set, ev_cur_ null): the awaiter executes the op
  //     INLINE at suspension — still inside the granting step, before any
  //     other processor runs, so the atomic point is identical — against
  //     the raw cell array, and keeps the result in its own frame.
  //   * instrumented batched (fast_cells_ AND ev_cur_ set): like fast, but
  //     the awaiter additionally fills the scheduler's current StepEvent
  //     slot (*ev_cur_ points at the next free entry of the batch event
  //     buffer; the scheduler pre-fills time/proc and advances it).  An
  //     out-of-range address is NOT executed: the awaiter flags the fault
  //     and the scheduler throws std::out_of_range for that grant, exactly
  //     where checked Memory::at would have.
  // The `inline_exec` flag remembers which mode produced the result, so a
  // step suspended under one mode resumes correctly under the other.
  //
  // (A symmetric-transfer design — awaiters jumping directly into the next
  // granted processor's frame — was tried and measured SLOWER than the
  // batched scheduler loop: chained indirect jumps lose the return-stack-
  // buffer prediction that the loop's call/ret pairs get for free.)

  struct ReadAwaiter {
    Ctx* ctx;
    std::size_t addr;
    Cell result{};
    bool inline_exec = false;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      Ctx* const c = ctx;
      *c->resume_slot_ = h;
      if (Cell* const cells = c->fast_cells_) {
        if (StepEvent* const* const es = c->ev_cur_) {
          if (addr >= c->fast_words_) [[unlikely]] {
            c->flag_oob(addr);
            return;  // not executed, not charged; the scheduler faults
          }
          const Cell cv = cells[addr];
          StepEvent& e = **es;
          e.op = Op{Op::Kind::Read, addr, 0, 0};
          e.before = cv;
          e.after = cv;
          result = cv;
        } else {
          assert(addr < c->fast_words_);
          result = cells[addr];
        }
        c->steps_ += 1;
        inline_exec = true;
      } else {
        c->pending_ = Op{Op::Kind::Read, addr, 0, 0};
      }
    }
    Cell await_resume() const noexcept {
      return inline_exec ? result : ctx->result_;
    }
  };

  struct WriteAwaiter {
    Ctx* ctx;
    std::size_t addr;
    Word value;
    Word stamp;
    bool inline_exec = false;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      Ctx* const c = ctx;
      *c->resume_slot_ = h;
      if (Cell* const cells = c->fast_cells_) {
        if (StepEvent* const* const es = c->ev_cur_) {
          if (addr >= c->fast_words_) [[unlikely]] {
            c->flag_oob(addr);
            return;  // not executed, not charged; the scheduler faults
          }
          StepEvent& e = **es;
          e.op = Op{Op::Kind::Write, addr, value, stamp};
          e.before = cells[addr];
          const Cell cv{value, stamp};
          cells[addr] = cv;
          e.after = cv;
        } else {
          assert(addr < c->fast_words_);
          cells[addr] = Cell{value, stamp};
        }
        c->steps_ += 1;
        inline_exec = true;
      } else {
        c->pending_ = Op{Op::Kind::Write, addr, value, stamp};
      }
    }
    Cell await_resume() const noexcept {
      return inline_exec ? Cell{value, stamp} : ctx->result_;
    }
  };

  struct LocalAwaiter {
    Ctx* ctx;
    bool inline_exec = false;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      Ctx* const c = ctx;
      *c->resume_slot_ = h;
      if (c->fast_cells_ != nullptr) {
        if (StepEvent* const* const es = c->ev_cur_) {
          StepEvent& e = **es;
          e.op = Op{Op::Kind::Local, 0, 0, 0};
          e.before = Cell{};
          e.after = Cell{};
        }
        if (c->charge_local_twice_) [[unlikely]] c->bump_extra_work();
        c->steps_ += 1;
        inline_exec = true;
      } else {
        c->pending_ = Op{Op::Kind::Local, 0, 0, 0};
      }
    }
    Cell await_resume() const noexcept {
      return inline_exec ? Cell{} : ctx->result_;
    }
  };

  /// One atomic read of cell `addr` (value + stamp together).
  ReadAwaiter read(std::size_t addr) noexcept {
    return ReadAwaiter{this, addr};
  }

  /// One atomic write of (value, stamp) to cell `addr`.
  WriteAwaiter write(std::size_t addr, Word value, Word stamp = 0) noexcept {
    return WriteAwaiter{this, addr, value, stamp};
  }

  /// One local computation step (basic op on registers, random draw, no-op).
  LocalAwaiter local() noexcept { return LocalAwaiter{this}; }

  /// Identity of this virtual processor, in [0, nprocs).
  std::size_t id() const noexcept { return id_; }

  /// This processor's private random stream (the adversary cannot see it).
  apex::Rng& rng() noexcept { return rng_; }

  /// Number of virtual processors in the simulation.
  std::size_t nprocs() const noexcept;

  /// Atomic steps this processor has been granted so far.
  std::uint64_t steps() const noexcept { return steps_; }

  Simulator& simulator() const noexcept { return *sim_; }

 private:
  friend class Simulator;

  /// Self-test hook (fast mode only): apply the kWorkDoubleCharge mutation.
  /// Out of line — needs the Simulator definition.
  void bump_extra_work() noexcept;

  /// Instrumented-mode fault hook: report an out-of-range address to the
  /// simulator (the op is not executed; the scheduler throws for this
  /// grant).  Out of line — needs the Simulator definition.
  void flag_oob(std::size_t addr) noexcept;

  // Field order is deliberate: the first block is everything a fast-mode
  // step suspension touches (see the awaiters above), packed into one cache
  // line at the front of the object.
  //
  // resume_slot_ points into the Simulator's flat resume-slot array (bound
  // at the first run()): the handle to resume on the next grant, or null
  // once the processor has finished.  Non-null fast_cells_ switches the
  // awaiters to inline execution against the raw cell array (stable for
  // the duration of a run); non-null ev_cur_ additionally points at the
  // Simulator's current-event cursor (instrumented batched runs).  All are
  // (re)set by the Simulator per run().
  std::coroutine_handle<>* resume_slot_ = nullptr;
  Cell* fast_cells_ = nullptr;
  std::size_t fast_words_ = 0;
  StepEvent* const* ev_cur_ = nullptr;
  std::uint64_t steps_ = 0;  ///< Granted steps (work units) so far.
  bool charge_local_twice_ = false;

  // Warm state (protocol-side accessors, instrumented mode).
  Simulator* sim_;
  std::size_t id_;
  apex::Rng rng_;

  // Suspended-step state of the instrumented mode.
  Op pending_{};
  Cell result_{};
};

}  // namespace apex::sim
