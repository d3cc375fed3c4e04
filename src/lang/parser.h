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
// The parser pulls tokens from a Lexer and keeps no strings.  It works in
// two parts.  The outline (parse) reads every declaration and where each
// step's body starts, and skips the bodies without lexing them: a step can
// be parsed with no other step at hand, so the compiler parses and lowers
// them one at a time, on several threads (compile.h).  parse_step turns
// one body's `lane: instr`s into fixed-size LaneRecs: integers decoded
// (raw refs included), names kept as the byte offset where they are
// spelled.  A declaration may follow the steps that use it, so names are
// resolved by the compiler, which also owns every semantic rule.
#pragma once

#include <algorithm>
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
  std::uint64_t imm = 0;      ///< const/rand_below/coin imm; gather_dyn's
                              ///< segment name's length.
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

/// What is wrong with the text one parse covered: its first lexical error
/// (lexing stops there), or else its first syntax error.
struct ParseFaults {
  std::optional<Fault> lexical;
  std::optional<Fault> syntax;

  bool any() const { return lexical || syntax; }
};

/// The outline of a file: its declarations and where its steps are.  No
/// lane of any step is kept; parse_step reads a step when it is needed.
struct ParsedProgram {
  std::uint32_t name_at = 0;
  std::optional<std::uint64_t> procs;
  std::uint32_t procs_at = 0;
  std::optional<std::uint64_t> vars;  ///< Declared total variable count.
  std::uint32_t vars_at = 0;
  std::vector<VarDeclRec> var_decls;
  std::vector<SegDeclRec> seg_decls;
  std::vector<std::uint32_t> step_at;  ///< Where each step's '{' is.
  std::size_t step_bytes = 0;          ///< Text inside the bodies, in all.
  std::size_t max_step_bytes = 0;      ///< Text inside the longest body.
  /// In the text the outline lexed: everything but the bodies, and after
  /// a syntax error the rest of the file.
  ParseFaults faults;
};

/// The opcode a keyword spells (exactly pram::opcode_name), if any.
std::optional<pram::OpCode> opcode_from_keyword(std::string_view kw);

/// The id of a raw ref `v<digits>` (capped at 2^32), or nullopt when
/// `name` is not one.
inline std::optional<std::uint64_t> raw_ref_id(std::string_view name) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 32;
  if (name.size() < 2 || name[0] != 'v') return std::nullopt;
  std::uint64_t id = 0;
  for (const char ch : name.substr(1)) {
    const auto d = static_cast<std::uint64_t>(ch) - '0';
    if (d > 9) return std::nullopt;
    id = id < kCap ? id * 10 + d : kCap;  // below 2^36: no wrap
  }
  return std::min(id, kCap);
}

/// The outline of `src`, whose size must fit in 32 bits.  A step's body
/// is skipped to the first '}' outside a comment (Lexer::skip_block), or
/// to the end of the file if it has none.  The outline stops at its first
/// syntax error and lexes on from there to the end of the file, so that a
/// later lexical error is found.  Together with parse_step on each step
/// it found, that lexes every byte the whole file's one pass would.
ParsedProgram parse(const SourceFile& src);

/// Parses the body of the step whose '{' is at `at` (ParsedProgram::step_at)
/// into `lanes`, replacing what they held (their capacity is kept, so one
/// buffer serves many steps).  `lanes` is complete when the body has no
/// fault.  After a syntax error the body is lexed on to its '}'.
ParseFaults parse_step(const SourceFile& src, std::uint32_t at,
                       std::vector<LaneRec>& lanes);

}  // namespace apex::lang
