// Source text, locations, and compiler diagnostics for the PRAM kernel
// language (src/lang/).
//
// Tokens and parsed records carry byte offsets only.  A Diagnostic turns
// its offset into a line and column when it is created (loc_at), so only
// the error path ever counts lines.  Diagnostics render in the classic
// file:line:col style with the offending source line and a caret, so an
// EREW conflict in a .pram file reads like a compiler error, not like the
// runtime std::invalid_argument Program validation would otherwise throw.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace apex::lang {

/// A position inside a SourceFile.  line/col are 1-based (editor style);
/// offset is the 0-based byte index used to recover the source line.
struct Loc {
  std::size_t line = 1;
  std::size_t col = 1;
  std::size_t offset = 0;
};

/// An in-memory source file: the unit the lexer, parser and compiler work
/// on.  `name` is whatever the diagnostics should print (a path, or
/// "<gen>" for fuzzer-generated programs).
struct SourceFile {
  std::string name;
  std::string text;

  /// The location of byte `offset`, counted from `from`: any location
  /// already resolved in this file (by default the start).  Costs the bytes
  /// between the two plus the length of the offset's line.
  Loc loc_at(std::size_t offset, const Loc& from = {}) const;

  /// The full text of the line containing `loc` (no trailing newline).
  std::string line_at(const Loc& loc) const;
};

struct Diagnostic {
  Loc loc;
  std::string message;
};

/// Render one diagnostic in compiler style:
///
///   prefix.pram:12:8: error: EREW violation: variable v9 ...
///     3: copy v9, v0
///        ^
///
/// The caret column preserves tabs from the source line so it stays
/// aligned in any tab-width rendering.
std::string render_diagnostic(const SourceFile& src, const Diagnostic& d);

/// All diagnostics, rendered and concatenated (one per paragraph).
std::string render_diagnostics(const SourceFile& src,
                               const std::vector<Diagnostic>& ds);

}  // namespace apex::lang
