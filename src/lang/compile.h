// Semantic analysis + codegen: lane records -> validated pram::Program.
//
// A step's lanes are parsed, checked and lowered with no other step at
// hand, so the steps are compiled in parallel:
//
//   parse (serial)      the outline: declarations and where steps start
//   layout (serial)     names, segments, every step's instruction row and
//                       each worker's buffers
//   steps (k workers)   parse_step + lower into the step's row; each
//                       worker claims the next step from an atomic index
//                       and keeps one LaneRec buffer and its faults
//   Program (k ranges)  scan_erew over contiguous step ranges
//
// k is derived from the step text (a calibrated minimum per worker, at
// most the hardware threads and the steps), so a small file is compiled
// on the calling thread alone.  Nothing else sets it, and no result
// depends on it: faults are merged in one fixed order, below.
//
// The EREW rule lives in pram::scan_erew: the analyzer hands Program's
// constructor an ErewSink, the constructor's one EREW pass reports each
// violation to it, and the analyzer locates it by the records' source
// offsets, so violations surface as file:line:col diagnostics with a caret
// instead of std::invalid_argument throws.  No step's records outlive its
// lowering, so a violated step is parsed again (lang::parse_step) to
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
// The report, the same for every k: the first lexical error anywhere in
// the file, alone; else the first syntax error, alone; else the semantic
// errors, batched: layout, segments, then lanes in file order (by step,
// then lane).  EREW conflicts (by step, then thread) come only when all of
// those passed.  Workers keep faults as offsets; only reported ones are
// located.
//
// Compilation succeeds only when the diagnostic list is empty, and a
// successful compile runs the EREW pass exactly once; the returned Program
// has passed it, so downstream executors can trust it exactly like a
// hand-built kernel.
#pragma once

#include <cstddef>
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

namespace detail {

/// compile_source with `workers` step workers (0: as many as the step text
/// is worth).  For tests: no result may depend on it.
CompileResult compile_source(const SourceFile& src, std::size_t workers);

}  // namespace detail

/// Convenience: read `path` from disk and compile it.  A path that does not
/// open or read (a directory) becomes a diagnostic at 1:1.  `out_src`
/// receives the loaded source so callers can render diagnostics.
CompileResult compile_file(const std::string& path, SourceFile& out_src);

}  // namespace apex::lang
