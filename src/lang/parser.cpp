#include "lang/parser.h"

#include <array>
#include <limits>
#include <string>
#include <unordered_map>
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
  /// Parses from byte `from` of `src`.
  Parser(const SourceFile& src, std::vector<Diagnostic>& diags,
         std::size_t from = 0)
      : src_(src), diags_(diags), lex_(src, diags, from), cur_(lex_.next()) {}

  std::optional<ParsedProgram> run() {
    if (!at(TokKind::kIdent) || lex_.text(cur_) != "pram") {
      fail("expected 'pram', found " + describe(cur_));
      return std::nullopt;
    }
    advance();
    if (!expect(TokKind::kIdent, "program name", &p_.name_at))
      return std::nullopt;
    while (!at(TokKind::kEnd))
      if (!parse_item()) return std::nullopt;
    if (lex_.failed()) return std::nullopt;
    return std::move(p_);
  }

  /// `'{' lane* '}'`, appending each lane to `lanes`.
  bool parse_lanes(std::vector<LaneRec>& lanes) {
    if (!expect(TokKind::kLBrace, "'{'")) return false;
    while (!at(TokKind::kRBrace))
      if (!parse_lane(lanes.emplace_back())) return false;
    advance();  // '}'
    return true;
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

  /// Reports a syntax error at the current token.  A lexical error
  /// anywhere in the file takes precedence, so this lexes to the end first.
  bool fail(const std::string& msg) {
    const std::size_t where = cur_.offset;
    while (!at(TokKind::kEnd)) advance();
    if (!lex_.failed()) diags_.push_back({src_.loc_at(where), msg});
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
      p_.step_at.push_back(static_cast<std::uint32_t>(cur_.offset));
      return parse_lanes(p_.steps.emplace_back());
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

  /// A gather_dyn's segment name: lane.imm becomes its index among the
  /// distinct names lanes use (ParsedProgram::seg_uses).
  bool parse_segment_use(LaneRec& lane) {
    const std::string_view name = lex_.text(cur_);
    if (!expect(TokKind::kIdent, "segment name", &lane.imm_at)) return false;
    if (name != last_use_name_) {  // most lanes name the previous one
      const auto [it, added] = seg_use_.try_emplace(
          name, static_cast<std::uint32_t>(p_.seg_uses.size()));
      if (added) p_.seg_uses.push_back(lane.imm_at);
      last_use_name_ = name;
      last_use_ = it->second;
    }
    lane.imm = last_use_;
    return true;
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

  const SourceFile& src_;
  std::vector<Diagnostic>& diags_;
  Lexer lex_;
  Token cur_;
  ParsedProgram p_;
  std::unordered_map<std::string_view, std::uint32_t> seg_use_;
  std::string_view last_use_name_;
  std::uint32_t last_use_ = 0;
};

}  // namespace

std::optional<ParsedProgram> parse(const SourceFile& src,
                                   std::vector<Diagnostic>& diags) {
  // Records hold 32-bit source offsets.
  if (src.text.size() > std::numeric_limits<std::uint32_t>::max()) {
    diags.push_back({Loc{}, "source file exceeds 4 GiB"});
    return std::nullopt;
  }
  return Parser(src, diags).run();
}

std::vector<LaneRec> parse_step(const SourceFile& src, std::uint32_t at) {
  std::vector<Diagnostic> none;  // the file parsed cleanly once
  std::vector<LaneRec> lanes;
  Parser(src, none, at).parse_lanes(lanes);
  return lanes;
}

}  // namespace apex::lang
