// The agreement protocol on REAL std::threads.
//
//   $ ./host_threads [threads]   (default 4)
//
// Everything else in this repository runs on the deterministic A-PRAM
// simulator; this example runs the same bin-array protocol under genuine
// OS-scheduler asynchrony (preemption, cache misses, timing jitter) and
// shows it still converges to a single agreed value per bin.  Standalone
// agreement is a one-step program on the host executor: each of the P = T
// processors draws one random value, and bin i must agree on one of them.
#include <cstdio>
#include <cstdlib>

#include "host/host_executor.h"

using namespace apex;

int main(int argc, char** argv) {
  const std::size_t threads =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  if (threads == 0) {
    std::fprintf(stderr, "threads must be >= 1\n");
    return 2;
  }

  std::printf("bin-array agreement on %zu std::threads\n\n", threads);

  pram::ProgramBuilder b(threads, threads);
  b.step().all([](std::size_t i) {
    return pram::Instr::rand_below(static_cast<std::uint32_t>(i), 1'000'000);
  });
  const pram::Program program = b.build();

  int status = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    host::HostExecConfig cfg;
    cfg.os_threads = threads;
    cfg.seed = seed;
    host::HostExecutor ex(program, cfg);
    const auto res = ex.run();
    std::printf("seed %llu: %s  wall=%.3fs  work=%llu\n",
                static_cast<unsigned long long>(seed),
                res.completed ? "completed" : "TIMEOUT", res.wall_seconds,
                static_cast<unsigned long long>(res.total_work));
    if (!res.completed) {
      status = 1;
      continue;
    }
    // Accessibility + uniqueness in every bin, checked at quiescence.
    bool agreed = true;
    std::printf("  values:");
    for (const auto& v : ex.agreed_values(0)) {
      agreed &= v.has_value();
      if (v)
        std::printf(" %llu", static_cast<unsigned long long>(*v));
      else
        std::printf(" ?");
    }
    std::printf("\n  agreement in every bin: %s\n", agreed ? "yes" : "NO");
    if (!agreed) status = 1;
  }
  return status;
}
