// The step workers' count changes nothing a compile returns: the same
// Program for a clean source, the same rendered diagnostics for a faulted
// one, at one worker or several.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "lang/compile.h"
#include "lang/emit.h"
#include "pram/workloads.h"

namespace apex::lang {
namespace {

constexpr std::size_t kWorkers[] = {2, 3, 4, 7};

/// The emitted source of a registry kernel.  bfs n=64 has 594 KB of step
/// text and 34,560 instruction slots, spmv n=1000 911 KB and 66,000: both
/// take several step workers and EREW ranges unless the machine has one
/// hardware thread.
SourceFile emitted(const char* name, std::size_t n) {
  return {std::string(name) + ".pram",
          emit_pram(pram::find_workload(name)->make(n), name)};
}

/// 1-based line and column of byte `at`.
std::pair<std::size_t, std::size_t> line_col(const std::string& text,
                                             std::size_t at) {
  const auto line = 1 + static_cast<std::size_t>(
                            std::count(text.begin(), text.begin() + at, '\n'));
  const std::size_t nl = at == 0 ? std::string::npos : text.rfind('\n', at - 1);
  return {line, nl == std::string::npos ? at + 1 : at - nl};
}

/// Where each lane line of each step of an emitted source starts.
std::vector<std::vector<std::size_t>> lane_lines(const std::string& text) {
  std::vector<std::vector<std::size_t>> steps;
  for (std::size_t at = 0;
       (at = text.find("\nstep {\n", at)) != std::string::npos;) {
    at += 8;
    auto& lanes = steps.emplace_back();
    for (; text.compare(at, 2, "  ") == 0; at = text.find('\n', at) + 1)
      lanes.push_back(at);
  }
  return steps;
}

/// The first lane of the last step with two lanes or more, and of the
/// first such step after step 0.
std::size_t late_lane(const std::string& text) {
  const auto steps = lane_lines(text);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it)
    if (it->size() >= 2) return it->front();
  return std::string::npos;
}
std::size_t early_lane(const std::string& text) {
  const auto steps = lane_lines(text);
  for (std::size_t s = 1; s < steps.size(); ++s)
    if (steps[s].size() >= 2) return steps[s].front();
  return std::string::npos;
}

/// Where a lane's destination ref is spelled: after "T: op ".
std::size_t dest_of(const std::string& text, std::size_t lane) {
  return text.find(' ', text.find(": ", lane) + 2) + 1;
}

/// Replaces the destination of the lane after `lane` with `lane`'s, so the
/// two write one variable; returns where the changed ref is.
std::size_t share_dest(std::string& text, std::size_t lane) {
  const std::size_t z = dest_of(text, lane);
  const std::string var = text.substr(z, text.find(',', z) - z);
  const std::size_t next_z = dest_of(text, text.find('\n', lane) + 1);
  text.replace(next_z, text.find(',', next_z) - next_z, var);
  return next_z;
}

/// The compile at one worker and at several: each renders the same, the
/// first diagnostic sits at `at` and says `message`.  Returns the
/// one-worker diagnostics.
std::vector<Diagnostic> expect_same_faults(const std::string& what,
                                           const std::string& text,
                                           std::size_t at,
                                           const std::string& message) {
  const SourceFile src{"bfs.pram", text};
  const CompileResult one = detail::compile_source(src, 1);
  EXPECT_FALSE(one.ok()) << what;
  if (one.ok()) return {};
  const std::string rendered = render_diagnostics(src, one.diagnostics);
  for (const std::size_t k : kWorkers) {
    const CompileResult r = detail::compile_source(src, k);
    EXPECT_EQ(render_diagnostics(src, r.diagnostics), rendered)
        << what << " at " << k << " workers";
  }
  const Diagnostic& first = one.diagnostics.front();
  const auto [line, col] = line_col(text, at);
  EXPECT_EQ(first.message, message) << what;
  EXPECT_EQ(first.loc.line, line) << what;
  EXPECT_EQ(first.loc.col, col) << what;
  return one.diagnostics;
}

TEST(CompileWorkers, CleanSourcesCompileToOneProgram) {
  const std::pair<const char*, std::size_t> cases[] = {{"bfs", 64},
                                                       {"spmv", 1000}};
  for (const auto& [name, n] : cases) {
    const SourceFile src = emitted(name, n);
    const CompileResult one = detail::compile_source(src, 1);
    ASSERT_TRUE(one.ok()) << name;
    const std::string dump = one.program->to_string();
    EXPECT_EQ(dump, pram::find_workload(name)->make(n).to_string()) << name;
    for (const std::size_t k : kWorkers) {
      const CompileResult r = detail::compile_source(src, k);
      ASSERT_TRUE(r.ok()) << name << " at " << k << " workers";
      EXPECT_EQ(r.program->to_string(), dump)
          << name << " at " << k << " workers";
    }
    const CompileResult derived = compile_source(src);
    ASSERT_TRUE(derived.ok()) << name;
    EXPECT_EQ(derived.program->to_string(), dump) << name;
  }
}

TEST(CompileWorkers, OneFaultInALateStep) {
  const std::string clean = emitted("bfs", 64).text;
  const std::size_t lane = late_lane(clean);
  ASSERT_NE(lane, std::string::npos);
  const std::size_t comma = clean.find(',', lane);
  {
    std::string text = clean;
    text[comma] = '$';
    expect_same_faults("stray byte", text, comma,
                       "unexpected character '$'");
  }
  {
    std::string text = clean;
    text.erase(comma, 1);
    const std::size_t next = comma + 1;  // the token after the lost ','
    expect_same_faults("syntax error", text, next,
                       "expected ',', found '" +
                           text.substr(next, text.find_first_of(",\n", next) -
                                                 next) +
                           "'");
  }
  {
    std::string text = clean;
    const std::size_t z = dest_of(text, lane);
    text.replace(z, text.find(',', z) - z, "ghost");
    expect_same_faults("undefined name", text, z,
                       "undefined variable 'ghost'");
  }
  {
    std::string text = clean;
    const std::size_t next = text.find('\n', lane) + 1;
    text.insert(next, text.substr(lane, next - lane));
    const std::string index = text.substr(lane + 2, text.find(':', lane) -
                                                        lane - 2);
    expect_same_faults("duplicate lane", text, next + 2,
                       "duplicate lane " + index + " in step");
  }
}

TEST(CompileWorkers, ErewConflictsInTwoDistantSteps) {
  std::string text = emitted("bfs", 64).text;
  const std::size_t late = late_lane(text);
  const std::size_t early = early_lane(text);
  ASSERT_LT(early, late);
  // The late step first: the early edit then moves it by `shift` bytes.
  const std::size_t late_z = share_dest(text, late);
  const std::size_t before = text.size();
  const std::size_t early_z = share_dest(text, early);
  const std::size_t shift = text.size() - before;
  const std::string var = text.substr(early_z, text.find(',', early_z) -
                                                   early_z);
  const auto diags = expect_same_faults(
      "EREW conflicts", text, early_z,
      "EREW violation: variable " + var +
          " written by more than one thread in this step");
  ASSERT_EQ(diags.size(), 2u);
  const auto [line, col] = line_col(text, late_z + shift);
  EXPECT_EQ(diags[1].loc.line, line);
  EXPECT_EQ(diags[1].loc.col, col);
}

TEST(CompileWorkers, MergeKeepsTheReportOrder) {
  const std::string clean = emitted("bfs", 64).text;
  const std::size_t early = early_lane(clean);
  const std::size_t late = late_lane(clean);
  // A lexical error in a late step beats a syntax error in an early one.
  {
    std::string text = clean;
    const std::size_t stray = clean.find(',', late);
    text[stray] = '$';
    text.erase(clean.find(',', early), 1);
    expect_same_faults("syntax early, stray late", text, stray - 1,
                       "unexpected character '$'");
  }
  // A syntax error in a late step beats a semantic error in an early one.
  {
    std::string text = clean;
    const std::size_t comma = clean.find(',', late);
    text.erase(comma, 1);
    const std::size_t z = dest_of(text, early);
    const std::string old = text.substr(z, text.find(',', z) - z);
    text.replace(z, old.size(), "ghost");
    // The token after the lost ',', moved by the early edit.
    const std::size_t next = comma + 1 + std::string("ghost").size() -
                             old.size();
    expect_same_faults("undefined early, syntax late", text, next,
                       "expected ',', found '" +
                           text.substr(next, text.find_first_of(",\n", next) -
                                                 next) +
                           "'");
  }
  // A lexical error outside the steps beats a syntax error inside one.
  {
    std::string text = clean;
    text.erase(clean.find(',', late), 1);
    text += "var total%\n";
    expect_same_faults("syntax late, stray after the steps", text,
                       text.size() - 2, "unexpected character '%'");
  }
  // The outline stops at a syntax error before the last steps but lexes
  // on: a stray byte in a step it never recorded still wins.
  {
    std::string text = clean;
    const std::size_t stray = clean.find(',', late);
    text[stray] = '$';
    const std::string bad = "\nvars = 1";
    text.insert(clean.rfind("\nstep {", late), bad);
    expect_same_faults("outline stops early, stray late", text,
                       stray + bad.size(), "unexpected character '$'");
  }
  // Semantic errors are batched by step: one in each of the two steps.
  {
    std::string text = clean;
    const std::size_t late_z = dest_of(text, late);
    text.replace(late_z, text.find(',', late_z) - late_z, "late_ghost");
    const std::size_t early_z = dest_of(text, early);
    text.replace(early_z, text.find(',', early_z) - early_z, "early_ghost");
    const auto diags = expect_same_faults("undefined twice", text, early_z,
                                          "undefined variable 'early_ghost'");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[1].message, "undefined variable 'late_ghost'");
  }
}

}  // namespace
}  // namespace apex::lang
