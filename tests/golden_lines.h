// The compare-or-rewrite step of the whole-result golden tests: a test
// renders one line per run and checks the lines against a committed file,
// or rewrites the file when the named environment variable is set (a
// change that alters results on purpose does that and says so).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace apex::test_support {

inline void expect_golden_lines(const std::vector<std::string>& actual,
                                const char* path, const char* update_env) {
  if (std::getenv(update_env) != nullptr) {
    std::ofstream out(path);
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  EXPECT_EQ(actual.size(), expected.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    const std::string& want = k < expected.size() ? expected[k] : "";
    EXPECT_EQ(actual[k], want) << "actual: " << actual[k];
  }
}

}  // namespace apex::test_support
