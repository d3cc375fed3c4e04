#include "util/cliargs.h"

#include <algorithm>

namespace apex::cli {

std::optional<std::uint64_t> parse_u64_strict(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;  // overflow
    v = v * 10 + d;
  }
  return v;
}

ParsedArgs parse_argv(int argc, char** argv, bool subcommand) {
  ParsedArgs a;
  const int first = subcommand ? 2 : 1;
  if (argc >= first) a.cmd = argv[first - 1];
  for (int i = first; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      const auto eq = s.find('=');
      if (eq == std::string::npos)
        a.kv[s.substr(2)] = "1";
      else
        a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

namespace {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = cur;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string validate_args(const ParsedArgs& a,
                          const std::vector<std::string>& allowed,
                          std::size_t max_positional) {
  for (const auto& [key, value] : a.kv) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end())
      continue;
    std::string msg =
        "unknown flag '--" + key + "' for '" + a.cmd + "'";
    // Near-miss hint: the closest declared flag within edit distance 2.
    std::size_t best = 3;
    const std::string* hint = nullptr;
    for (const std::string& f : allowed) {
      const std::size_t d = edit_distance(key, f);
      if (d < best) {
        best = d;
        hint = &f;
      }
    }
    if (hint != nullptr) msg += " (did you mean '--" + *hint + "'?)";
    return msg;
  }
  if (a.positional.size() > max_positional) {
    const std::string& tok = a.positional[max_positional];
    return "unexpected argument '" + tok + "' for '" + a.cmd + "'";
  }
  return "";
}

}  // namespace apex::cli
