// Pull tokenizer for the .pram kernel language.
//
// The language is whitespace- and newline-insensitive; `#` starts a
// comment that runs to end of line.  Identifiers are [A-Za-z_][A-Za-z0-9_]*
// (keywords are ordinary identifiers resolved by the parser); integer
// literals are strict decimal digits — no sign, no leading whitespace
// baked into the token, no hex.  Punctuation: { } [ ] , : =
//
// A token is a view into SourceFile::text: kind, offset, length and an
// integer's value.  The lexer hands out one per next() and keeps none; it
// keeps its one lexical error as a Fault, located only if it is reported.
//
// next() is inline: one table lookup classifies each byte, and scans stop
// at the NUL every std::string keeps after its last byte instead of
// checking the bound per byte.  A NUL inside the text is a stray
// character like any other.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

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

namespace detail {

/// What a byte starts.  Identifier, integer and punctuation bytes map to
/// their TokKind; the rest to kSpace, kComment or kStray.  An identifier
/// runs on over every byte whose class is at most kInt.
inline constexpr auto kIdent = static_cast<std::uint8_t>(TokKind::kIdent);
inline constexpr auto kInt = static_cast<std::uint8_t>(TokKind::kInt);
inline constexpr std::uint8_t kSpace = 16;
inline constexpr std::uint8_t kComment = 17;
inline constexpr std::uint8_t kStray = 18;

inline constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(kStray);
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdent;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdent;
  t['_'] = kIdent;
  for (int c = '0'; c <= '9'; ++c) t[c] = kInt;
  for (const char c : {' ', '\t', '\r', '\n'})
    t[static_cast<unsigned char>(c)] = kSpace;
  t['#'] = kComment;
  const std::pair<char, TokKind> punct[] = {
      {'{', TokKind::kLBrace}, {'}', TokKind::kRBrace},
      {'[', TokKind::kLBracket}, {']', TokKind::kRBracket},
      {',', TokKind::kComma}, {':', TokKind::kColon}, {'=', TokKind::kEq}};
  for (const auto& [c, k] : punct)
    t[static_cast<unsigned char>(c)] = static_cast<std::uint8_t>(k);
  return t;
}();

inline std::uint8_t byte_class(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

}  // namespace detail

class Lexer {
 public:
  /// Lexes `src` from byte `from` (at most its size).  `src` must outlive
  /// the lexer and the tokens it hands out, unchanged.
  explicit Lexer(const SourceFile& src, std::size_t from = 0)
      : src_(src), pos_(std::min(from, src.text.size())) {}

  /// The next token; kEnd at the end of input and from a lexical error (a
  /// stray character, an integer over 64 bits: fault()) on.
  Token next() {
    using namespace detail;
    if (fault_) return {TokKind::kEnd, pos_};
    const char* const s = src_.text.c_str();  // s[size] is NUL
    std::size_t p = pos_;
    for (;;) {
      const std::size_t start = p;
      const std::uint8_t cls = byte_class(s[p]);
      switch (cls) {
        case kSpace:
          ++p;
          continue;
        case kComment: {
          const void* nl = std::memchr(s + p, '\n', src_.text.size() - p);
          p = nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - s)
                 : src_.text.size();
          continue;
        }
        case kIdent:
          while (byte_class(s[++p]) <= kInt) {}
          pos_ = p;
          return {TokKind::kIdent, start, p - start};
        case kInt: {
          // Up to 19 digits always fit in 64 bits.
          std::uint64_t v = 0;
          for (; byte_class(s[p]) == kInt; ++p)
            v = v * 10 + static_cast<std::uint64_t>(s[p] - '0');
          if (p - start > 19) return long_integer(start, p);
          pos_ = p;
          return {TokKind::kInt, start, p - start, v};
        }
        case kStray:  // the NUL after the text, or a stray byte
          pos_ = p;
          if (p < src_.text.size()) stray(p);
          return {TokKind::kEnd, p};
        default:  // punctuation
          pos_ = p + 1;
          return {static_cast<TokKind>(cls), start, 1};
      }
    }
  }

  /// True once next() has met a lexical error.
  bool failed() const { return fault_.has_value(); }
  /// That error.
  const std::optional<Fault>& fault() const { return fault_; }

  /// Moves past the next '}' outside a '#' comment without lexing what it
  /// passes, and returns that '}''s offset; with none, moves to the end and
  /// returns the text size.  Outside comments every '}' byte is a '}'
  /// token: the language has no strings, and '#' always starts a comment.
  std::size_t skip_block() {
    const char* const s = src_.text.data();
    const std::size_t size = src_.text.size();
    auto find = [&](std::size_t from, std::size_t to, char c) {
      const void* hit = std::memchr(s + from, c, to - from);
      return hit ? static_cast<std::size_t>(static_cast<const char*>(hit) - s)
                 : to;
    };
    std::size_t p = pos_;
    std::size_t close = find(p, size, '}');
    // Each byte is searched once for '#' and once for '}': a comment that
    // hides `close` moves the '}' search past the comment.
    for (std::size_t hash; (hash = find(p, close, '#')) != close;) {
      p = find(hash, size, '\n');
      if (p > close) close = find(p, size, '}');
    }
    pos_ = close < size ? close + 1 : size;
    return close;
  }

  /// The token's spelling, a view into the source text.
  std::string_view text(const Token& t) const {
    return std::string_view(src_.text).substr(t.offset, t.length);
  }

 private:
  /// The digits in [start, end), more than 19 of them: their value, or
  /// the 64-bit overflow error.
  Token long_integer(std::size_t start, std::size_t end);
  void stray(std::size_t at);
  void fail(std::size_t at, std::string message);

  const SourceFile& src_;
  std::size_t pos_;
  std::optional<Fault> fault_;
};

}  // namespace apex::lang
