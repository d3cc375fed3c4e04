// Seed-deterministic grammar-based .pram program generator.
//
// Produces random kernels that are EREW-valid BY CONSTRUCTION (per-step
// read/write pools hand out each variable at most once; the gather_dyn
// segment is written only in the const-loading prologue, never in a step
// that gathers), so the fuzz harness can treat any compile failure of
// generated source as a front-end bug, and any divergence between
// executors running the compiled program as an execution-scheme bug.
//
// All data the kernel consumes is loaded by a prologue of `const` steps —
// generated programs run from all-zero initial memory, exactly like the
// registry workloads, so they drop into the existing executor, host
// executor, interpreter and consistency-check plumbing unchanged.
//
// Generation is a pure function of GenOptions (no global state, no clock),
// which is what lets fuzz trials replay byte-identically from a repro seed
// and keeps `apexcli fuzz` output independent of --jobs.
#pragma once

#include <cstdint>

#include "lang/source.h"

namespace apex::lang {

struct GenOptions {
  std::uint64_t seed = 1;
  /// Exclude rand_below/coin so the reference interpreter's deterministic
  /// replay is a bit-exact oracle for the generated program.
  bool deterministic = false;
};

struct GeneratedProgram {
  SourceFile source;  ///< Compilable .pram text; runs from zero memory.
  std::size_t nthreads = 0;
  std::size_t nvars = 0;
  std::size_t nsteps = 0;
};

GeneratedProgram generate_program(const GenOptions& opt);

}  // namespace apex::lang
