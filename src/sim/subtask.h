// Composable protocol sub-procedures.
//
// The paper's protocols decompose naturally: a driver loop calls
// Update-Clock / Read-Clock and agreement cycles; a cycle evaluates f, which
// reads program memory.  SubTask<T> lets such a unit be its own coroutine,
// awaited from a parent with `co_await sub_fn(ctx, ...)`, while the
// simulator keeps granting exactly one atomic step per resume:
//
//   - SubTask is lazy: awaiting it symmetric-transfers into the child.
//   - A step awaiter (ctx.read/write/local) suspends the WHOLE stack by
//     recording the deepest handle in the Ctx and returning control to the
//     simulator.
//   - When the child co_returns, its final awaiter symmetric-transfers back
//     to the parent, which continues inside the same grant (returning from a
//     sub-procedure costs no model step — only atomic ops cost work).
//
// A SubTask costs a heap-allocated frame per call, and while a processor is
// parked in one, each grant resumes a second, nested frame.  So SubTask is
// for f (a TaskFn) and for the composable units off the hot path:
// PhaseClock::update/read and agreement::agreement_cycle, as the standalone
// agreement driver, the benches and the tests await them.  A hot driver
// (exec's scheme_proc) runs those units inline, in its own frame, over the
// non-suspending helpers they are built from (see docs/ARCHITECTURE.md,
// "The simulator hot path").
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace apex::sim {

template <typename T>
class SubTask {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) const noexcept {
      // Hand control straight back to the awaiting parent.
      return h.promise().continuation;
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::coroutine_handle<> continuation = std::noop_coroutine();
    T value{};
    std::exception_ptr exception;

    SubTask get_return_object() { return SubTask(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  SubTask() = default;
  explicit SubTask(Handle h) : handle_(h) {}
  SubTask(SubTask&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  SubTask& operator=(SubTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  SubTask(const SubTask&) = delete;
  SubTask& operator=(const SubTask&) = delete;
  ~SubTask() { destroy(); }

  // Awaiter interface: `co_await some_subtask_fn(...)`.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;  // start the child (lazy start)
  }
  T await_resume() {
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
    return std::move(handle_.promise().value);
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

template <>
class SubTask<void> {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) const noexcept {
      return h.promise().continuation;
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::coroutine_handle<> continuation = std::noop_coroutine();
    std::exception_ptr exception;

    SubTask get_return_object() { return SubTask(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  SubTask() = default;
  explicit SubTask(Handle h) : handle_(h) {}
  SubTask(SubTask&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  SubTask& operator=(SubTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  SubTask(const SubTask&) = delete;
  SubTask& operator=(const SubTask&) = delete;
  ~SubTask() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

}  // namespace apex::sim
