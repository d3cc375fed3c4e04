// Semantic analysis + codegen: lane records -> validated pram::Program.
//
// One pass writes each lane's pram::Instr into the final steps.  The EREW
// rule lives in pram::scan_erew: the analyzer hands Program's constructor
// an ErewSink, the constructor's one EREW pass reports each violation to
// it, and the analyzer locates it by the records' source offsets, so
// violations surface as file:line:col diagnostics with a caret instead of
// std::invalid_argument throws.  Each step's records are freed once it is
// lowered, so a violated step is parsed again (lang::parse_step) to
// locate its violations.  The mapping:
//
//   EREW pass rule                          diagnostic (anchored at)
//   -----------------------------------    --------------------------------
//   var read by two threads in a step       "EREW violation: ... read by
//                                           more than one thread" (second
//                                           reading operand)
//   var written by two threads in a step    "...written by more than one
//                                           thread" (second writer's dest)
//   same-step write into a segment          "written inside gather_dyn
//                                           segment" (the writer's dest)
//
// The pass's other rules are ruled out before it runs: an operand out of
// range ("variable vN out of range", at the ref) and a segment of length
// 0 or past nvars ("segment ...", at the declaration).  Should one still
// fire, it becomes an "internal" diagnostic, never a throw.
//
// Language-level checks with no pass twin: undefined variable or segment
// names, subscripts out of a named array's bounds, variable ids
// overflowing 32 bits (Instr stores uint32_t), lane indices out of range
// or duplicated, missing/zero `procs`/`vars`.
//
// Semantic errors are batched: layout, segments, then lanes in file order;
// EREW conflicts (by step, then thread) only when all of those passed.
//
// Compilation succeeds only when the diagnostic list is empty, and a
// successful compile runs the EREW pass exactly once; the returned Program
// has passed it, so downstream executors can trust it exactly like a
// hand-built kernel.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lang/parser.h"
#include "lang/source.h"
#include "pram/program.h"

namespace apex::lang {

struct CompileResult {
  std::optional<pram::Program> program;  ///< Set iff diagnostics is empty.
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return program.has_value(); }
};

/// Lex + parse + analyze + build in one call.
CompileResult compile_source(const SourceFile& src);

/// Convenience: read `path` from disk and compile it.  A path that does not
/// open or read (a directory) becomes a diagnostic at 1:1.  `out_src`
/// receives the loaded source so callers can render diagnostics.
CompileResult compile_file(const std::string& path, SourceFile& out_src);

}  // namespace apex::lang
