#include "lang/parser.h"

#include <array>
#include <string>
#include <utility>

#include "lang/lexer.h"

namespace apex::lang {

std::optional<pram::OpCode> opcode_from_keyword(std::string_view kw) {
  using pram::OpCode;
  constexpr int kOps = static_cast<int>(OpCode::kGatherDyn) + 1;
  // The keywords by first byte: a lookup compares three at most.
  static const auto kByFirst = [] {
    std::array<std::vector<std::pair<std::string_view, OpCode>>, 256> by;
    for (int i = 0; i < kOps; ++i) {
      const auto op = static_cast<OpCode>(i);
      const std::string_view name = pram::opcode_name(op);
      by[static_cast<unsigned char>(name[0])].emplace_back(name, op);
    }
    return by;
  }();
  if (kw.empty()) return std::nullopt;
  for (const auto& [name, op] : kByFirst[static_cast<unsigned char>(kw[0])])
    if (kw == name) return op;
  return std::nullopt;
}

namespace {

class Parser {
 public:
  /// Parses from byte `from` of `src`.  A body parser's error search stops
  /// at the body's '}'; the outline's runs to the end of the file.
  Parser(const SourceFile& src, std::size_t from, bool body)
      : lex_(src, from), cur_(lex_.next()), body_(body) {}

  ParsedProgram outline() {
    if (!at(TokKind::kIdent) || lex_.text(cur_) != "pram") {
      fail("expected 'pram', found " + describe(cur_));
    } else {
      advance();
      if (expect(TokKind::kIdent, "program name", &p_.name_at))
        while (!at(TokKind::kEnd) && parse_item()) {}
    }
    p_.faults = faults();
    return std::move(p_);
  }

  /// `'{' lane* '}'`, replacing `lanes`.
  ParseFaults body(std::vector<LaneRec>& lanes) {
    lanes.clear();
    if (expect(TokKind::kLBrace, "'{'"))
      while (!at(TokKind::kRBrace) && parse_lane(lanes.emplace_back())) {}
    return faults();
  }

 private:
  bool at(TokKind k) const { return cur_.kind == k; }
  /// Field by field: assigned whole, the inlined next()'s token is built
  /// on the stack and read back in 16-byte halves, a store-forwarding
  /// stall on every token (GCC 12, x86-64).
  void advance() {
    const Token t = lex_.next();
    cur_.kind = t.kind;
    cur_.offset = t.offset;
    cur_.length = t.length;
    cur_.value = t.value;
  }

  ParseFaults faults() const { return {lex_.fault(), syntax_}; }

  /// Records a syntax error at the current token.  A lexical error takes
  /// precedence, so this first lexes on to the end of what this parser
  /// covers: the file, or the body.
  bool fail(std::string msg) {
    const std::size_t where = cur_.offset;
    while (!at(TokKind::kEnd) && !(body_ && at(TokKind::kRBrace))) advance();
    if (!lex_.failed()) syntax_ = Fault{where, std::move(msg)};
    return false;
  }

  /// Consumes a token of kind `k`, or reports it missing.  `where` gets
  /// its offset and `value` an integer's value.
  bool expect(TokKind k, const char* what, std::uint32_t* where = nullptr,
              std::uint64_t* value = nullptr) {
    if (!at(k)) return missing(what);
    if (where) *where = static_cast<std::uint32_t>(cur_.offset);
    if (value) *value = cur_.value;
    advance();
    return true;
  }

  /// Out of line, so that expect() stays small enough to inline.
  [[gnu::noinline]] bool missing(const char* what) {
    return fail(std::string("expected ") + what + ", found " +
                describe(cur_));
  }

  std::string describe(const Token& t) const {
    switch (t.kind) {
      case TokKind::kIdent:
      case TokKind::kInt:
        return std::string(1, '\'').append(lex_.text(t)) + "'";
      default: return tok_kind_name(t.kind);
    }
  }

  bool parse_item() {
    const std::string_view kw =
        at(TokKind::kIdent) ? lex_.text(cur_) : std::string_view();
    const auto kw_at = static_cast<std::uint32_t>(cur_.offset);
    if (kw == "procs") {
      advance();
      p_.procs_at = kw_at;
      return expect(TokKind::kInt, "processor count", nullptr,
                    &p_.procs.emplace());
    }
    if (kw == "vars") {
      advance();
      p_.vars_at = kw_at;
      return expect(TokKind::kInt, "variable count", nullptr,
                    &p_.vars.emplace());
    }
    if (kw == "var") {
      advance();
      VarDeclRec d;
      if (!expect(TokKind::kIdent, "variable name", &d.at)) return false;
      if (at(TokKind::kLBracket)) {
        advance();
        if (!expect(TokKind::kInt, "array size", nullptr, &d.count) ||
            !expect(TokKind::kRBracket, "']'"))
          return false;
      }
      p_.var_decls.push_back(d);
      return true;
    }
    if (kw == "segment") {
      advance();
      SegDeclRec d;
      if (!expect(TokKind::kIdent, "segment name", &d.at) ||
          !expect(TokKind::kEq, "'='") || !parse_ref(d.base) ||
          !expect(TokKind::kColon, "':'") ||
          !expect(TokKind::kInt, "segment length", &d.len_at, &d.len))
        return false;
      p_.seg_decls.push_back(d);
      return true;
    }
    if (kw == "step") {
      advance();
      if (!at(TokKind::kLBrace)) return missing("'{'");
      p_.step_at.push_back(static_cast<std::uint32_t>(cur_.offset));
      const std::size_t bytes = lex_.skip_block() - cur_.offset;
      p_.step_bytes += bytes;
      p_.max_step_bytes = std::max(p_.max_step_bytes, bytes);
      advance();
      return true;
    }
    return fail("expected a declaration or 'step', found " + describe(cur_));
  }

  bool parse_lane(LaneRec& lane) {
    if (!expect(TokKind::kInt, "lane index", &lane.lane_at, &lane.lane) ||
        !expect(TokKind::kColon, "':'"))
      return false;
    if (!at(TokKind::kIdent))
      return fail("expected an instruction, found " + describe(cur_));
    const auto op = opcode_from_keyword(lex_.text(cur_));
    if (!op)
      return fail("unknown instruction '" + std::string(lex_.text(cur_)) +
                  "'");
    advance();
    lane.op = *op;
    using pram::OpCode;
    switch (*op) {
      case OpCode::kNop:
        return true;
      case OpCode::kConst:
      case OpCode::kRandBelow:
      case OpCode::kCoin:
        return parse_ref(lane.z) && comma() && parse_imm(lane);
      case OpCode::kCopy:
        return parse_ref(lane.z) && comma() && parse_ref(lane.x);
      case OpCode::kSelect:
        // Source order z, cond, x, y mirrors "z = cond ? x : y".
        return parse_ref(lane.z) && comma() && parse_ref(lane.c) && comma() &&
               parse_ref(lane.x) && comma() && parse_ref(lane.y);
      case OpCode::kGatherDyn:
        return parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
               parse_ref(lane.y) && comma() && parse_ref(lane.c) && comma() &&
               parse_segment_use(lane);
      default:  // two-operand ALU ops
        return parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
               parse_ref(lane.y);
    }
  }

  bool comma() { return expect(TokKind::kComma, "','"); }

  bool parse_imm(LaneRec& lane) {
    return expect(TokKind::kInt, "an integer immediate", &lane.imm_at,
                  &lane.imm);
  }

  /// A gather_dyn's segment name: lane.imm_at and lane.imm become where it
  /// is spelled and its length.
  bool parse_segment_use(LaneRec& lane) {
    lane.imm = cur_.length;
    return expect(TokKind::kIdent, "segment name", &lane.imm_at);
  }

  bool parse_ref(RefRec& r) {
    const std::string_view name = lex_.text(cur_);
    if (!expect(TokKind::kIdent, "a variable reference", &r.at)) return false;
    const auto raw = raw_ref_id(name);
    if (raw && *raw < RefRec::kReread) r.id = static_cast<std::uint32_t>(*raw);
    if (!at(TokKind::kLBracket)) return true;
    r.id = RefRec::kReread;
    advance();
    return expect(TokKind::kInt, "a subscript") &&
           expect(TokKind::kRBracket, "']'");
  }

  Lexer lex_;
  Token cur_;
  const bool body_;
  std::optional<Fault> syntax_;
  ParsedProgram p_;
};

}  // namespace

ParsedProgram parse(const SourceFile& src) {
  return Parser(src, 0, false).outline();
}

ParseFaults parse_step(const SourceFile& src, std::uint32_t at,
                       std::vector<LaneRec>& lanes) {
  return Parser(src, at, true).body(lanes);
}

}  // namespace apex::lang
