// Pull tokenizer for the .pram kernel language.
//
// The language is whitespace- and newline-insensitive; `#` starts a
// comment that runs to end of line.  Identifiers are [A-Za-z_][A-Za-z0-9_]*
// (keywords are ordinary identifiers resolved by the parser); integer
// literals are strict decimal digits — no sign, no leading whitespace
// baked into the token, no hex.  Punctuation: { } [ ] , : =
//
// A token is a view into SourceFile::text: kind, offset, length and an
// integer's value.  The lexer hands out one per next() and keeps none.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "lang/source.h"

namespace apex::lang {

enum class TokKind : std::uint8_t {
  kIdent,
  kInt,
  kLBrace,   // {
  kRBrace,   // }
  kLBracket, // [
  kRBracket, // ]
  kComma,    // ,
  kColon,    // :
  kEq,       // =
  kEnd,      // end of input
};

const char* tok_kind_name(TokKind k) noexcept;

struct Token {
  TokKind kind = TokKind::kEnd;
  std::size_t offset = 0;    ///< Where the spelling starts in the source.
  std::size_t length = 0;    ///< Spelling length in bytes (0 for kEnd).
  std::uint64_t value = 0;   ///< For kInt.
};

class Lexer {
 public:
  /// Lexes `src` from byte `from`.  `src` must outlive the lexer and the
  /// tokens it hands out.
  Lexer(const SourceFile& src, std::vector<Diagnostic>& diags,
        std::size_t from = 0)
      : src_(src), diags_(diags), pos_(from) {}

  /// The next token; kEnd at the end of input and from a lexical error (a
  /// stray character, an integer over 64 bits, reported once) on.
  Token next();

  /// True once a lexical error has been reported.
  bool failed() const { return failed_; }

  /// The token's spelling, a view into the source text.
  std::string_view text(const Token& t) const {
    return std::string_view(src_.text).substr(t.offset, t.length);
  }

 private:
  void fail(std::size_t at, std::string message);

  const SourceFile& src_;
  std::vector<Diagnostic>& diags_;
  std::size_t pos_;
  bool failed_ = false;
};

}  // namespace apex::lang
