// APEX — Asynchronous Parallel EXecution of nondeterministic programs.
//
// Umbrella header: reproduction of Aumann, Bender & Zhang, "Efficient
// Execution of Nondeterministic Parallel Programs on Asynchronous Systems"
// (SPAA 1996 / Information & Computation 139, 1997).
//
// Layering (each header is independently includable):
//
//   util/       deterministic RNG, statistics, tables            (apex)
//   sim/        coroutine A-PRAM simulator + adversary schedules (apex::sim)
//   clock/      Phase Clock                                      (apex::clockx)
//   agreement/  bin-array agreement protocol (the paper's core)  (apex::agreement)
//   pram/       EREW PRAM programs + reference interpreter       (apex::pram)
//   exec/       the execution scheme (nondet + det baseline)     (apex::exec)
//   consensus/  classical-style O(n^2)-per-value baseline        (apex::consensus)
//   host/       the execution scheme on real threads             (apex::host)
//   check/      schedule fuzzer + invariant oracles + self-test  (apex::check)
//
// Quick start (see examples/quickstart.cpp):
//
//   pram::ProgramBuilder b(n, vars);
//   b.step().all([](std::size_t i){ return pram::Instr::rand_below(i, 100); });
//   pram::Program p = b.build();                       // EREW-validated
//   exec::Executor ex(p, exec::Scheme::kNondeterministic, {});
//   auto result = ex.run(exec::Executor::default_budget(p));
#pragma once

#include "agreement/bin_array.h"      // IWYU pragma: export
#include "agreement/inspect.h"        // IWYU pragma: export
#include "agreement/protocol.h"       // IWYU pragma: export
#include "agreement/testbed.h"        // IWYU pragma: export
#include "check/fuzz.h"               // IWYU pragma: export
#include "check/fuzz_schedule.h"      // IWYU pragma: export
#include "check/mutation.h"           // IWYU pragma: export
#include "check/oracle.h"             // IWYU pragma: export
#include "check/selftest.h"           // IWYU pragma: export
#include "trace/timeline.h"           // IWYU pragma: export
#include "clock/phase_clock.h"        // IWYU pragma: export
#include "consensus/scan_consensus.h" // IWYU pragma: export
#include "core/version.h"             // IWYU pragma: export
#include "exec/executor.h"            // IWYU pragma: export
#include "host/host_executor.h"       // IWYU pragma: export
#include "host/host_memory.h"         // IWYU pragma: export
#include "pram/interp.h"              // IWYU pragma: export
#include "pram/ir.h"                  // IWYU pragma: export
#include "pram/program.h"             // IWYU pragma: export
#include "pram/workloads.h"           // IWYU pragma: export
#include "sim/memory.h"               // IWYU pragma: export
#include "sim/proc.h"                 // IWYU pragma: export
#include "sim/schedule.h"             // IWYU pragma: export
#include "sim/simulator.h"            // IWYU pragma: export
#include "sim/subtask.h"              // IWYU pragma: export
#include "util/math.h"                // IWYU pragma: export
#include "util/rng.h"                 // IWYU pragma: export
#include "util/stats.h"               // IWYU pragma: export
#include "util/table.h"               // IWYU pragma: export
