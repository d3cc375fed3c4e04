#include "lang/lexer.h"

#include <gtest/gtest.h>

namespace apex::lang {
namespace {

/// Pulls tokens up to and including kEnd.
std::vector<Token> pull_all(Lexer& lex) {
  std::vector<Token> toks;
  do toks.push_back(lex.next());
  while (toks.back().kind != TokKind::kEnd);
  return toks;
}

/// Lexes `text` cleanly; each token comes with its spelling and location.
struct Lexed {
  SourceFile src;
  std::vector<Token> toks;
  std::string text(std::size_t i) const {
    return src.text.substr(toks[i].offset, toks[i].length);
  }
  Loc loc(std::size_t i) const { return src.loc_at(toks[i].offset); }
};

Lexed lex_ok(const std::string& text) {
  Lexed out{SourceFile{"<test>", text}, {}};
  std::vector<Diagnostic> diags;
  Lexer lex(out.src, diags);
  out.toks = pull_all(lex);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
  return out;
}

TEST(Lexer, TokenKindsAndValues) {
  const Lexed l = lex_ok("pram demo { } [ ] , : = 42");
  const auto& toks = l.toks;
  ASSERT_EQ(toks.size(), 11u);  // 10 tokens + kEnd
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(l.text(0), "pram");
  EXPECT_EQ(l.text(1), "demo");
  EXPECT_EQ(toks[2].kind, TokKind::kLBrace);
  EXPECT_EQ(toks[3].kind, TokKind::kRBrace);
  EXPECT_EQ(toks[4].kind, TokKind::kLBracket);
  EXPECT_EQ(toks[5].kind, TokKind::kRBracket);
  EXPECT_EQ(toks[6].kind, TokKind::kComma);
  EXPECT_EQ(toks[7].kind, TokKind::kColon);
  EXPECT_EQ(toks[8].kind, TokKind::kEq);
  EXPECT_EQ(toks[9].kind, TokKind::kInt);
  EXPECT_EQ(toks[9].value, 42u);
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);
}

TEST(Lexer, LocationsAreOneBasedLineAndCol) {
  const Lexed l = lex_ok("pram p\n  procs 4\n");
  ASSERT_GE(l.toks.size(), 4u);
  EXPECT_EQ(l.loc(0).line, 1u);
  EXPECT_EQ(l.loc(0).col, 1u);
  EXPECT_EQ(l.loc(1).col, 6u);
  EXPECT_EQ(l.loc(2).line, 2u);
  EXPECT_EQ(l.loc(2).col, 3u);   // after two-space indent
  EXPECT_EQ(l.loc(3).line, 2u);
  EXPECT_EQ(l.loc(3).col, 9u);
}

TEST(Lexer, CommentsRunToEndOfLine) {
  const Lexed l = lex_ok("# whole-line comment\npram x # trailing\n42");
  ASSERT_EQ(l.toks.size(), 4u);
  EXPECT_EQ(l.text(0), "pram");
  EXPECT_EQ(l.text(1), "x");
  EXPECT_EQ(l.toks[2].value, 42u);
}

TEST(Lexer, UnderscoreIdentifiers) {
  const Lexed l = lex_ok("_x gather_dyn a1_b2");
  EXPECT_EQ(l.text(0), "_x");
  EXPECT_EQ(l.text(1), "gather_dyn");
  EXPECT_EQ(l.text(2), "a1_b2");
}

TEST(Lexer, MaxUint64Literal) {
  const Lexed l = lex_ok("18446744073709551615");
  ASSERT_EQ(l.toks.size(), 2u);
  EXPECT_EQ(l.toks[0].value, 18446744073709551615ULL);
}

TEST(Lexer, IntegerOverflowIsDiagnosed) {
  SourceFile src{"<test>", "pram p\n18446744073709551616"};
  std::vector<Diagnostic> diags;
  Lexer lex(src, diags);
  const auto toks = pull_all(lex);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("does not fit in 64 bits"),
            std::string::npos);
  EXPECT_EQ(diags[0].loc.line, 2u);
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);  // stream still terminated
}

TEST(Lexer, StrayCharacterIsDiagnosed) {
  SourceFile src{"<test>", "pram p\n  @bad"};
  std::vector<Diagnostic> diags;
  Lexer lex(src, diags);
  pull_all(lex);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].loc.line, 2u);
  EXPECT_EQ(diags[0].loc.col, 3u);
}

// ---- edges of the buffer ---------------------------------------------------

TEST(Lexer, EmptyAndBlankSourcesEndAtTheirSize) {
  for (const std::string text : {"", " \t\r\n \n"}) {
    const Lexed l = lex_ok(text);
    ASSERT_EQ(l.toks.size(), 1u);
    EXPECT_EQ(l.toks[0].kind, TokKind::kEnd);
    EXPECT_EQ(l.toks[0].offset, text.size());
    EXPECT_EQ(l.toks[0].length, 0u);
  }
}

TEST(Lexer, NulByteInsideTheTextIsAStrayCharacter) {
  const std::string text("pram p\n  ab\0cd 1", 16);
  SourceFile src{"<test>", text};
  std::vector<Diagnostic> diags;
  Lexer lex(src, diags);
  const auto toks = pull_all(lex);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].message, std::string("unexpected character '\0'", 24));
  EXPECT_EQ(diags[0].loc.line, 2u);
  EXPECT_EQ(diags[0].loc.col, 5u);
  ASSERT_EQ(toks.size(), 4u);  // pram p ab, then kEnd at the NUL
  EXPECT_EQ(lex.text(toks[2]), "ab");
  EXPECT_EQ(toks[3].kind, TokKind::kEnd);
  EXPECT_EQ(toks[3].offset, 11u);
  EXPECT_TRUE(lex.failed());
  EXPECT_EQ(lex.next().offset, 11u);  // and stays there
}

TEST(Lexer, CommentRunsToEndOfFileWithoutANewline) {
  const Lexed l = lex_ok("pram # no newline");
  ASSERT_EQ(l.toks.size(), 2u);
  EXPECT_EQ(l.text(0), "pram");
  EXPECT_EQ(l.toks[1].offset, l.src.text.size());
  const std::string nul_inside("x # a\0b", 7);
  const Lexed m = lex_ok(nul_inside);
  ASSERT_EQ(m.toks.size(), 2u);
  EXPECT_EQ(m.toks[1].kind, TokKind::kEnd);
  EXPECT_EQ(m.toks[1].offset, 7u);
}

TEST(Lexer, TokensEndingExactlyAtEndOfFile) {
  const Lexed id = lex_ok("pram abc_9");
  ASSERT_EQ(id.toks.size(), 3u);
  EXPECT_EQ(id.text(1), "abc_9");
  EXPECT_EQ(id.toks[2].offset, 10u);
  const Lexed num = lex_ok("1 42");
  ASSERT_EQ(num.toks.size(), 3u);
  EXPECT_EQ(num.toks[1].value, 42u);
  EXPECT_EQ(num.toks[1].length, 2u);
  EXPECT_EQ(num.toks[2].offset, 4u);
  // More than 19 digits can still fit: leading zeros.
  const Lexed zeros = lex_ok("0000000000000000000000018446744073709551615");
  ASSERT_EQ(zeros.toks.size(), 2u);
  EXPECT_EQ(zeros.toks[0].value, 18446744073709551615ULL);
}

TEST(Lexer, StartsAtAnOffset) {
  SourceFile src{"<test>", "pram hello [7]"};
  std::vector<Diagnostic> diags;
  Lexer at_name(src, diags, 5);
  const Token name = at_name.next();
  EXPECT_EQ(at_name.text(name), "hello");
  EXPECT_EQ(at_name.next().kind, TokKind::kLBracket);
  EXPECT_EQ(at_name.next().value, 7u);
  Lexer inside(src, diags, 7);  // inside "hello"
  const Token tail = inside.next();
  EXPECT_EQ(tail.kind, TokKind::kIdent);
  EXPECT_EQ(tail.offset, 7u);
  EXPECT_EQ(inside.text(tail), "llo");
  Lexer at_end(src, diags, src.text.size());
  const Token end = at_end.next();
  EXPECT_EQ(end.kind, TokKind::kEnd);
  EXPECT_EQ(end.offset, src.text.size());
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, RenderDiagnosticHasCaretUnderColumn) {
  SourceFile src{"bad.pram", "pram p\n  @bad"};
  std::vector<Diagnostic> diags;
  Lexer lex(src, diags);
  pull_all(lex);
  ASSERT_EQ(diags.size(), 1u);
  const std::string out = render_diagnostic(src, diags[0]);
  EXPECT_NE(out.find("bad.pram:2:3: error:"), std::string::npos);
  EXPECT_NE(out.find("  @bad\n"), std::string::npos);
  // Caret line: two-space gutter + (col-1) pad puts the ^ under the @.
  EXPECT_NE(out.find("\n    ^\n"), std::string::npos);
}

}  // namespace
}  // namespace apex::lang
