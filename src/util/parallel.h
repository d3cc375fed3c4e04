// A loop over an index range, run on several threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace apex::util {

/// How many threads `amount` of work is worth at `per_thread` each: at
/// least one, at most one per hardware thread and per one of the `parts`
/// the work can be cut into.
inline std::size_t threads_for(std::size_t amount, std::size_t per_thread,
                               std::size_t parts) {
  const std::size_t want = std::min(amount / per_thread, parts);
  if (want <= 1) return 1;
  // Asked once: glibc reads the online CPUs from /sys on every call.
  static const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return std::min(want, hw);
}

/// Calls f(i, w) once for every i in [0, n), on up to `threads` threads,
/// the calling thread among them.  Each thread claims the next index from
/// one atomic counter, so which thread runs an index is not fixed; w, in
/// [0, threads), names the thread, for per-thread buffers.  With one
/// thread (or one index) the calling thread runs them all in order.  f
/// must be safe to call from several threads at once on different i.  A
/// thread that cannot be started leaves its share to the others.  The
/// first exception f throws stops further claims and is rethrown here
/// once every thread has joined: none escapes a thread.
template <typename F>
void parallel_for(std::size_t n, std::size_t threads, F&& f) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i, std::size_t{0});
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex first_mu;
  std::exception_ptr first;  // guarded by first_mu
  auto work = [&](std::size_t w) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        f(i, w);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(first_mu);
      if (!first) first = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t w = 1; w < threads; ++w) {
    try {
      pool.emplace_back(work, w);
    } catch (const std::system_error&) {
      break;
    }
  }
  work(0);
  for (std::thread& t : pool) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace apex::util
