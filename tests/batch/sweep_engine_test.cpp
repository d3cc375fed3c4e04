#include "batch/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "agreement/testbed.h"
#include "tests/address_cap.h"
#include "util/table.h"

namespace apex::batch {
namespace {

// A deterministic trial function: everything derives from the trial index.
TrialResult arithmetic_trial(std::size_t i) {
  TrialResult r;
  r.sample("value", static_cast<double>(i) * 1.5);
  r.sample("square", static_cast<double>(i * i));
  r.count("trials");
  if (i % 3 == 0) r.count("multiples_of_3");
  r.ok = (i % 7 != 6);
  return r;
}

std::string render(const std::vector<GroupStats>& groups) {
  Table t({"group", "n", "mean", "min", "max", "count3", "failed"});
  for (std::size_t g = 0; g < groups.size(); ++g) {
    t.row()
        .cell(static_cast<std::uint64_t>(g))
        .cell(static_cast<std::uint64_t>(groups[g].trials()))
        .cell(groups[g].sample("value").mean(), 6)
        .cell(groups[g].sample("value").min(), 6)
        .cell(groups[g].sample("value").max(), 6)
        .cell(groups[g].count("multiples_of_3"), 0)
        .cell(static_cast<std::uint64_t>(groups[g].failed()));
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

TEST(SweepEngine, SingleVsManyJobsProduceIdenticalTables) {
  SweepSpec spec;
  spec.trials = 96;
  spec.jobs = 1;
  const auto serial =
      SweepEngine().run_grouped(spec, arithmetic_trial, 8);
  spec.jobs = 8;
  const auto parallel =
      SweepEngine().run_grouped(spec, arithmetic_trial, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  // Bit-identical aggregation, not just approximately equal: the merge is
  // performed in trial-index order regardless of which worker ran what.
  EXPECT_EQ(render(serial), render(parallel));
  for (std::size_t g = 0; g < serial.size(); ++g) {
    EXPECT_EQ(serial[g].sample("value").mean(),
              parallel[g].sample("value").mean());
    EXPECT_EQ(serial[g].sample("square").variance(),
              parallel[g].sample("square").variance());
    EXPECT_EQ(serial[g].count("multiples_of_3"),
              parallel[g].count("multiples_of_3"));
    EXPECT_EQ(serial[g].failed(), parallel[g].failed());
  }
}

TEST(SweepEngine, SimulationSweepIsJobCountInvariant) {
  // The real workload shape: one simulator universe per (config, seed).
  const auto trial = [](std::size_t i) {
    TrialResult r;
    agreement::TestbedConfig cfg;
    cfg.n = 8 + 8 * (i / 3);  // two configs x three seeds
    cfg.seed = 100 + (i % 3);
    agreement::AgreementTestbed tb(cfg, agreement::uniform_task(64),
                                   agreement::uniform_support(64));
    const auto res = tb.run_until_agreement(5'000'000);
    r.ok = res.satisfied;
    if (res.satisfied) r.sample("work", static_cast<double>(res.work));
    return r;
  };
  SweepSpec spec;
  spec.trials = 6;
  spec.jobs = 1;
  const auto serial = SweepEngine().run_grouped(spec, trial, 3);
  spec.jobs = 8;
  const auto parallel = SweepEngine().run_grouped(spec, trial, 3);
  ASSERT_EQ(serial.size(), 2u);
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(serial[g].failed(), 0u);
    EXPECT_EQ(serial[g].sample("work").mean(),
              parallel[g].sample("work").mean());
    EXPECT_EQ(serial[g].sample("work").max(),
              parallel[g].sample("work").max());
  }
}

TEST(SweepEngine, ThrowingTrialIsReportedNotSwallowed) {
  SweepSpec spec;
  spec.trials = 16;
  spec.jobs = 4;
  const auto fn = [](std::size_t i) -> TrialResult {
    if (i == 5) throw std::runtime_error("bin array exploded");
    if (i == 11) throw std::runtime_error("schedule underflow");
    return TrialResult{};
  };
  try {
    SweepEngine().run(spec, fn);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    // Both failures surface, in ascending trial order, with messages intact.
    ASSERT_EQ(e.errors().size(), 2u);
    EXPECT_EQ(e.errors()[0].trial, 5u);
    EXPECT_EQ(e.errors()[0].message, "bin array exploded");
    EXPECT_EQ(e.errors()[1].trial, 11u);
    EXPECT_EQ(e.errors()[1].message, "schedule underflow");
    EXPECT_NE(std::string(e.what()).find("trial 5"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bin array exploded"),
              std::string::npos);
  }
}

TEST(SweepEngine, KeepGoingRecordsErrorOnTrialResult) {
  SweepSpec spec;
  spec.trials = 4;
  spec.jobs = 2;
  spec.keep_going = true;
  const auto results = SweepEngine().run(spec, [](std::size_t i) -> TrialResult {
    if (i == 2) throw std::runtime_error("boom");
    TrialResult r;
    r.sample("x", 1.0);
    return r;
  });
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(results[2].error, "boom");
  // The failed trial still merges (as a failure) without poisoning stats.
  GroupStats g;
  for (const auto& r : results) g.merge(r);
  EXPECT_EQ(g.trials(), 4u);
  EXPECT_EQ(g.failed(), 1u);
  EXPECT_EQ(g.sample("x").count(), 3u);
}

TEST(SweepEngine, AllTrialsRunExactlyOnceAcrossWorkers) {
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> per_trial(64);
  SweepSpec spec;
  spec.trials = 64;
  spec.jobs = 8;
  const auto results = SweepEngine().run(spec, [&](std::size_t i) {
    calls.fetch_add(1);
    per_trial[i].fetch_add(1);
    TrialResult r;
    r.sample("i", static_cast<double>(i));
    return r;
  });
  EXPECT_EQ(calls.load(), 64);
  for (auto& c : per_trial) EXPECT_EQ(c.load(), 1);
  // Results land at their own index no matter which worker ran them.
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].samples().size(), 1u);
    EXPECT_EQ(results[i].samples()[0].second, static_cast<double>(i));
  }
}

TEST(SweepEngine, FailedWorkerSpawnStillRunsEveryTrial) {
  // 64 workers need far more than 64 MB of stack, so under the cap some
  // std::thread constructor throws.  Before the fix the pool was destroyed
  // joinable: std::terminate.  Now the sweep stops spawning, the workers
  // that started drain every trial, and the table is byte-identical.
  if (test_support::kSanitized) GTEST_SKIP() << "needs the address space";
  SweepSpec spec;
  spec.trials = 64;
  spec.jobs = 1;
  const std::string serial =
      render(SweepEngine().run_grouped(spec, arithmetic_trial, 8));
  spec.jobs = 64;
  const int status = test_support::exit_status_under_address_cap([&] {
    const auto groups = SweepEngine().run_grouped(spec, arithmetic_trial, 8);
    return render(groups) == serial ? 0 : 1;
  });
  EXPECT_EQ(status, 0) << "1: the table differs; -1: the child died";
}

TEST(SweepEngine, ZeroTrialsAndJobResolution) {
  SweepSpec spec;
  spec.trials = 0;
  EXPECT_TRUE(SweepEngine().run(spec, arithmetic_trial).empty());
  EXPECT_GE(SweepEngine::resolve_jobs(0), 1u);
  EXPECT_EQ(SweepEngine::resolve_jobs(5), 5u);
}

TEST(SweepEngine, RunGroupedRejectsIndivisibleGrid) {
  SweepSpec spec;
  spec.trials = 10;
  EXPECT_THROW(SweepEngine().run_grouped(spec, arithmetic_trial, 3),
               std::invalid_argument);
  EXPECT_THROW(SweepEngine().run_grouped(spec, arithmetic_trial, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace apex::batch
