#include "lang/lexer.h"

namespace apex::lang {

const char* tok_kind_name(TokKind k) noexcept {
  switch (k) {
    case TokKind::kIdent: return "identifier";
    case TokKind::kInt: return "integer";
    case TokKind::kLBrace: return "'{'";
    case TokKind::kRBrace: return "'}'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kComma: return "','";
    case TokKind::kColon: return "':'";
    case TokKind::kEq: return "'='";
    case TokKind::kEnd: return "end of input";
  }
  return "?";
}

Token Lexer::long_integer(std::size_t start, std::size_t end) {
  std::uint64_t v = 0;
  bool overflow = false;
  for (std::size_t i = start; i < end; ++i) {
    const auto d = static_cast<std::uint64_t>(src_.text[i] - '0');
    if (v > (UINT64_MAX - d) / 10) overflow = true;
    if (!overflow) v = v * 10 + d;
  }
  if (!overflow) {
    pos_ = end;
    return {TokKind::kInt, start, end - start, v};
  }
  fail(start, "integer literal '" + src_.text.substr(start, end - start) +
                  "' does not fit in 64 bits");
  return {TokKind::kEnd, pos_};
}

void Lexer::stray(std::size_t at) {
  fail(at, std::string("unexpected character '") + src_.text[at] + "'");
}

void Lexer::fail(std::size_t at, std::string message) {
  diags_.push_back({src_.loc_at(at), std::move(message)});
  failed_ = true;
  pos_ = at;
}

}  // namespace apex::lang
