// Runs a test body in a forked child whose address space is capped a little
// above its size at the fork, so that starting threads (each reserves its
// stack) fails while ordinary small allocations still succeed.  RLIMIT_AS
// binds root too.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <fstream>

namespace apex::test_support {

// Sanitizer shadow memory needs the address space the cap takes away.
// APEX_TEST_SANITIZED is the same fact for the preprocessor (ASan and TSan
// also own the global operator new).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define APEX_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define APEX_TEST_SANITIZED 1
#endif
#endif
#ifndef APEX_TEST_SANITIZED
#define APEX_TEST_SANITIZED 0
#endif
inline constexpr bool kSanitized = APEX_TEST_SANITIZED != 0;

/// Forks; the child caps RLIMIT_AS at its current size plus 64 MB, runs
/// `body` and exits with its return value.  Returns that exit status, or -1
/// when the child did not exit normally (std::terminate's abort, for one;
/// an exception escaping `body` terminates the child too, rather than
/// unwinding into the test runner's copy).
template <typename Body>
int exit_status_under_address_cap(Body&& body) {
  constexpr rlim_t kHeadroom = rlim_t{64} << 20;
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap =
      static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
      kHeadroom;
  const pid_t pid = fork();
  if (pid < 0) return -2;
  if (pid == 0) {
    const rlimit lim{cap, cap};
    if (setrlimit(RLIMIT_AS, &lim) != 0) _exit(100);
    _exit([&]() noexcept { return body(); }());
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -2;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace apex::test_support
