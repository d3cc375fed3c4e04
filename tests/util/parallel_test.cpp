#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace apex::util {
namespace {

TEST(ParallelFor, EveryIndexRunsOnce) {
  for (const std::size_t threads : {0, 1, 2, 4, 9}) {
    std::vector<std::atomic<int>> runs(1000);
    std::vector<std::atomic<int>> by_thread(std::max<std::size_t>(threads, 1));
    parallel_for(runs.size(), threads, [&](std::size_t i, std::size_t w) {
      runs[i].fetch_add(1);
      by_thread.at(w).fetch_add(1);
    });
    for (std::size_t i = 0; i < runs.size(); ++i)
      EXPECT_EQ(runs[i].load(), 1) << threads << " threads, index " << i;
    int total = 0;
    for (const auto& n : by_thread) total += n.load();
    EXPECT_EQ(total, 1000) << threads << " threads";
  }
}

TEST(ParallelFor, OneThreadRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i, std::size_t w) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(w, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  parallel_for(0, 4, [&](std::size_t, std::size_t) { ADD_FAILURE(); });
}

TEST(ParallelFor, AnExceptionIsRethrownAfterTheJoin) {
  for (const std::size_t threads : {1, 4}) {
    std::atomic<int> running{0};
    std::string thrown;
    try {
      parallel_for(64, threads, [&](std::size_t i, std::size_t) {
        if (i == 5) throw std::runtime_error("index 5");
        running.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        running.fetch_sub(1);
      });
    } catch (const std::runtime_error& e) {
      thrown = e.what();
    }
    EXPECT_EQ(thrown, "index 5") << threads << " threads";
    // The other threads were joined, not left inside f.
    EXPECT_EQ(running.load(), 0) << threads << " threads";
  }
}

}  // namespace
}  // namespace apex::util
