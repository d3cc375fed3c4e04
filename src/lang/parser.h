// Recursive-descent parser for the .pram kernel language.
//
// Grammar (whitespace-insensitive, `#` comments):
//
//   program  := "pram" IDENT item*
//   item     := "procs" INT
//             | "vars" INT                       (total variable count)
//             | "var" IDENT ("[" INT "]")?       (named var / array, allocated
//                                                 sequentially after "vars")
//             | "segment" IDENT "=" ref ":" INT  (gather_dyn segment: base:len)
//             | "step" "{" lane* "}"
//   lane     := INT ":" instr                    (lane = thread index)
//   instr    := "nop"
//             | "const" ref "," INT
//             | "copy" ref "," ref
//             | BINOP ref "," ref "," ref        (add sub mul min max xor and
//                                                 or less eq)
//             | "select" ref "," ref "," ref "," ref     (z, cond, x, y)
//             | "rand_below" ref "," INT
//             | "coin" ref "," INT               (raw 32-bit fixed-point imm)
//             | "gather_dyn" ref "," ref "," ref "," ref "," IDENT
//                                                (z, idx, off, bound, segment)
//   ref      := IDENT ("[" INT "]")?
//
// A ref spelled `v<digits>` that is not shadowed by a declaration is a RAW
// variable index (`v12` = variable 12) — this is the form the emitter
// produces, so machine-generated kernels need no declarations.  Declared
// names may not collide with keywords or the raw `v<digits>` pattern.
//
// The parser pulls tokens from a Lexer and keeps no strings.  Each
// `lane: instr` becomes one fixed-size LaneRec: integers decoded (raw refs
// included), names kept as the byte offset where they are spelled.  A
// declaration may follow the steps that use it, so names are resolved by
// the compiler, which also owns every semantic rule (compile.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "lang/source.h"
#include "pram/ir.h"

namespace apex::lang {

/// A variable reference: where its name is spelled and, in the form the
/// emitter writes (a raw v<digits> with no subscript), the decoded id.
/// Any other ref (a named one, a subscript, an id of 32 bits or more) is
/// kReread: the compiler reads it back from the source once every
/// declaration is known.
struct RefRec {
  static constexpr std::uint32_t kReread = 0xFFFFFFFF;
  std::uint32_t at = 0;
  std::uint32_t id = kReread;
};

/// One `lane: instr` entry inside a step.
struct LaneRec {
  RefRec z, x, y, c;          ///< Used according to the op's arity.
  std::uint64_t lane = 0;
  std::uint64_t imm = 0;      ///< const/rand_below/coin imm.
  std::uint32_t lane_at = 0;
  std::uint32_t imm_at = 0;   ///< The imm, or gather_dyn's segment name.
  pram::OpCode op = pram::OpCode::kNop;
};
static_assert(sizeof(LaneRec) <= 64, "one cache line per lane");

struct VarDeclRec {
  std::uint32_t at = 0;       ///< The name.
  std::uint64_t count = 1;    ///< Array size (1 for scalars).
};

struct SegDeclRec {
  std::uint32_t at = 0;       ///< The name.
  RefRec base;
  std::uint64_t len = 0;
  std::uint32_t len_at = 0;
};

struct ParsedProgram {
  std::uint32_t name_at = 0;
  std::optional<std::uint64_t> procs;
  std::uint32_t procs_at = 0;
  std::optional<std::uint64_t> vars;  ///< Declared total variable count.
  std::uint32_t vars_at = 0;
  std::vector<VarDeclRec> var_decls;
  std::vector<SegDeclRec> seg_decls;
  std::vector<std::vector<LaneRec>> steps;  ///< Each step's lanes, in order.
};

/// The opcode a keyword spells (exactly pram::opcode_name), if any.
std::optional<pram::OpCode> opcode_from_keyword(std::string_view kw);

/// The id of a raw ref `v<digits>` (capped at 2^32), or nullopt when
/// `name` is not one.
std::optional<std::uint64_t> raw_ref_id(std::string_view name);

/// Lex and parse `src`.  Returns nullopt when an error was appended to
/// `diags`: a lexical error anywhere in the file if there is one, else the
/// first syntax error (semantic errors are batched later by the compiler).
std::optional<ParsedProgram> parse(const SourceFile& src,
                                   std::vector<Diagnostic>& diags);

}  // namespace apex::lang
