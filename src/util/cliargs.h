// Strict command-line parsing for apexcli and the bench drivers.
//
// The original Args::parse silently DROPPED any token that didn't start
// with `--` and silently accepted unknown flags, so a typo like
// `--interelave=rr` ran the command with the default value — the worst
// possible failure mode for a measurement tool.  This layer makes every
// token accountable: flags parse into a key/value map, everything else is
// a positional, and each subcommand validates against its declared flag
// set (with an edit-distance "did you mean" hint).  Usage errors exit 2
// by convention; that policy lives in the caller.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace apex::cli {

/// Strict non-negative integer: decimal digits only.  Rejects empty
/// strings, leading whitespace, '+'/'-' signs, hex, and values over 64
/// bits — everything std::stoull would quietly accept or skip.
std::optional<std::uint64_t> parse_u64_strict(const std::string& s);

struct ParsedArgs {
  /// argv[1] ("" if absent); argv[0] for a program without subcommands.
  std::string cmd;
  std::map<std::string, std::string> kv;     ///< --key=value / --key -> "1".
  std::vector<std::string> positional;       ///< Everything else, in order.
};

/// Split argv into subcommand, flags, and positionals.  No validation —
/// every token is preserved so validate_args can account for all of them.
/// A program without subcommands (a bench driver) passes `subcommand =
/// false`: every token from argv[1] on is then a flag or a positional, and
/// `cmd` holds argv[0], so validate_args' messages name the program.
ParsedArgs parse_argv(int argc, char** argv, bool subcommand = true);

/// Check `a` against a subcommand's declared contract: every flag must be
/// in `allowed`, and at most `max_positional` positional arguments are
/// accepted.  Returns an empty string when valid, otherwise a one-line
/// error message (including a "did you mean" suggestion for near-miss
/// flags) suitable for stderr.
std::string validate_args(const ParsedArgs& a,
                          const std::vector<std::string>& allowed,
                          std::size_t max_positional);

}  // namespace apex::cli
