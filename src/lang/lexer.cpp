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

namespace {

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_ident_char(char c) {
  return is_ident_start(c) || (c >= '0' && c <= '9');
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

Token Lexer::next() {
  const std::string& s = src_.text;
  while (!failed_ && pos_ < s.size()) {
    const std::size_t start = pos_;
    const char c = s[pos_];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++pos_;
      continue;
    }
    if (c == '#') {
      while (pos_ < s.size() && s[pos_] != '\n') ++pos_;
      continue;
    }
    if (is_ident_start(c)) {
      while (++pos_ < s.size() && is_ident_char(s[pos_])) {}
      return {TokKind::kIdent, start, pos_ - start};
    }
    if (is_digit(c)) {
      std::uint64_t v = 0;
      bool overflow = false;
      for (; pos_ < s.size() && is_digit(s[pos_]); ++pos_) {
        const std::uint64_t d = static_cast<std::uint64_t>(s[pos_] - '0');
        if (v > (UINT64_MAX - d) / 10) overflow = true;
        if (!overflow) v = v * 10 + d;
      }
      if (!overflow) return {TokKind::kInt, start, pos_ - start, v};
      fail(start, "integer literal '" + s.substr(start, pos_ - start) +
                      "' does not fit in 64 bits");
      break;
    }
    TokKind k;
    switch (c) {
      case '{': k = TokKind::kLBrace; break;
      case '}': k = TokKind::kRBrace; break;
      case '[': k = TokKind::kLBracket; break;
      case ']': k = TokKind::kRBracket; break;
      case ',': k = TokKind::kComma; break;
      case ':': k = TokKind::kColon; break;
      case '=': k = TokKind::kEq; break;
      default:
        fail(start, std::string("unexpected character '") + c + "'");
        continue;
    }
    ++pos_;
    return {k, start, 1};
  }
  return {TokKind::kEnd, pos_};
}

void Lexer::fail(std::size_t at, std::string message) {
  diags_.push_back({src_.loc_at(at), std::move(message)});
  failed_ = true;
  pos_ = at;
}

}  // namespace apex::lang
