#include "lang/parser.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "lang/lexer.h"

namespace apex::lang {

std::optional<pram::OpCode> opcode_from_keyword(std::string_view kw) {
  using pram::OpCode;
  constexpr int kOps = static_cast<int>(OpCode::kGatherDyn) + 1;
  static const auto kNames = [] {
    std::array<std::string_view, kOps> names;
    for (int i = 0; i < kOps; ++i)
      names[i] = pram::opcode_name(static_cast<OpCode>(i));
    return names;
  }();
  for (int i = 0; i < kOps; ++i)
    if (kw == kNames[i]) return static_cast<OpCode>(i);
  return std::nullopt;
}

std::optional<std::uint64_t> raw_ref_id(std::string_view name) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 32;
  if (name.size() < 2 || name[0] != 'v') return std::nullopt;
  std::uint64_t id = 0;
  for (const char ch : name.substr(1)) {
    if (ch < '0' || ch > '9') return std::nullopt;
    if (id < kCap)
      id = std::min(id * 10 + static_cast<std::uint64_t>(ch - '0'), kCap);
  }
  return id;
}

namespace {

class Parser {
 public:
  Parser(const SourceFile& src, std::vector<Diagnostic>& diags)
      : src_(src), diags_(diags), lex_(src, diags), cur_(lex_.next()) {}

  std::optional<ParsedProgram> run() {
    ParsedProgram p;
    if (!at(TokKind::kIdent) || lex_.text(cur_) != "pram") {
      fail("expected 'pram', found " + describe(cur_));
      return std::nullopt;
    }
    advance();
    if (!expect(TokKind::kIdent, "program name", &p.name_at))
      return std::nullopt;
    while (!at(TokKind::kEnd))
      if (!parse_item(p)) return std::nullopt;
    if (lex_.failed()) return std::nullopt;
    return p;
  }

 private:
  bool at(TokKind k) const { return cur_.kind == k; }
  void advance() { cur_ = lex_.next(); }

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
    if (!at(k))
      return fail(std::string("expected ") + what + ", found " +
                  describe(cur_));
    if (where) *where = static_cast<std::uint32_t>(cur_.offset);
    if (value) *value = cur_.value;
    advance();
    return true;
  }

  std::string describe(const Token& t) const {
    switch (t.kind) {
      case TokKind::kIdent:
      case TokKind::kInt:
        return std::string(1, '\'').append(lex_.text(t)) + "'";
      default: return tok_kind_name(t.kind);
    }
  }

  bool parse_item(ParsedProgram& p) {
    const std::string_view kw =
        at(TokKind::kIdent) ? lex_.text(cur_) : std::string_view();
    const auto kw_at = static_cast<std::uint32_t>(cur_.offset);
    if (kw == "procs") {
      advance();
      p.procs_at = kw_at;
      return expect(TokKind::kInt, "processor count", nullptr,
                    &p.procs.emplace());
    }
    if (kw == "vars") {
      advance();
      p.vars_at = kw_at;
      return expect(TokKind::kInt, "variable count", nullptr,
                    &p.vars.emplace());
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
      p.var_decls.push_back(d);
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
      p.seg_decls.push_back(d);
      return true;
    }
    if (kw == "step") {
      advance();
      if (!expect(TokKind::kLBrace, "'{'")) return false;
      std::vector<LaneRec>& lanes = p.steps.emplace_back();
      while (!at(TokKind::kRBrace)) {
        if (!parse_lane(lanes.emplace_back())) return false;
      }
      advance();  // '}'
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
      case OpCode::kGather:
        return parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
               parse_ref(lane.y) && comma() && parse_imm(lane);
      case OpCode::kGatherDyn:
        return parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
               parse_ref(lane.y) && comma() && parse_ref(lane.c) && comma() &&
               expect(TokKind::kIdent, "segment name", &lane.imm_at);
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

}  // namespace apex::lang
