#include "lang/source.h"

#include <algorithm>
#include <sstream>

namespace apex::lang {

Loc SourceFile::loc_at(std::size_t offset, const Loc& from) const {
  offset = std::min(offset, text.size());
  const char* t = text.data();
  std::size_t line = from.line;
  if (offset >= from.offset)
    line += std::count(t + from.offset, t + offset, '\n');
  else
    line -= std::count(t + offset, t + from.offset, '\n');
  std::size_t begin = offset;
  while (begin > 0 && t[begin - 1] != '\n') --begin;
  return {line, offset - begin + 1, offset};
}

std::string SourceFile::line_at(const Loc& loc) const {
  std::size_t begin = loc.offset > text.size() ? text.size() : loc.offset;
  while (begin > 0 && text[begin - 1] != '\n') --begin;
  std::size_t end = begin;
  while (end < text.size() && text[end] != '\n') ++end;
  return text.substr(begin, end - begin);
}

std::string render_diagnostic(const SourceFile& src, const Diagnostic& d) {
  std::ostringstream os;
  os << src.name << ':' << d.loc.line << ':' << d.loc.col << ": error: "
     << d.message << '\n';
  const std::string line = src.line_at(d.loc);
  os << "  " << line << '\n';
  os << "  ";
  // Tabs copied through so the caret lines up at any tab width.
  for (std::size_t i = 0; i + 1 < d.loc.col && i < line.size(); ++i)
    os << (line[i] == '\t' ? '\t' : ' ');
  os << "^\n";
  return os.str();
}

std::string render_diagnostics(const SourceFile& src,
                               const std::vector<Diagnostic>& ds) {
  std::string out;
  for (const Diagnostic& d : ds) out += render_diagnostic(src, d);
  return out;
}

}  // namespace apex::lang
