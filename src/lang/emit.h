// Program -> .pram source emitter: the inverse of compile_source.
//
// For any Program built from the Instr convenience constructors (which
// zero unused operand fields — everything in the workload registry),
// compile(emit(p)) reproduces p BIT-FOR-BIT: every Instr field, nthreads,
// nvars, and step count; the round-trip tier-1 test pins that over every
// registry kernel.  `apexcli emit --workload=... --n=...` renders any
// registry kernel as .pram source.
//
// Emission is canonical: raw v<index> references, nop lanes omitted
// (empty steps keep their braces), gather_dyn segments hoisted into
// `segment s<k> = ...` declarations in first-use order.
#pragma once

#include <string>

#include "pram/program.h"

namespace apex::lang {

/// Render `p` as compilable .pram source.  `name` becomes the program
/// name in the header; `comment`, when non-empty, is emitted as leading
/// `# ` lines.
std::string emit_pram(const pram::Program& p, const std::string& name,
                      const std::string& comment = "");

}  // namespace apex::lang
