#include "workloads/swim.h"

#include <gtest/gtest.h>

namespace dyrs::wl {
namespace {

TEST(Swim, GeneratesRequestedJobCount) {
  auto wl = SwimWorkload::generate({});
  EXPECT_EQ(wl.jobs().size(), 200u);
}

TEST(Swim, TotalInputNearTarget) {
  auto wl = SwimWorkload::generate({});
  // Paper: 170GB cumulative input (clamping introduces small error).
  EXPECT_NEAR(to_gib(wl.total_input()), 170.0, 10.0);
}

TEST(Swim, HeavyTailedSizes) {
  auto wl = SwimWorkload::generate({});
  int small = 0;
  Bytes max_input = 0;
  for (const auto& job : wl.jobs()) {
    if (job.input < mib(64)) ++small;
    max_input = std::max(max_input, job.input);
  }
  // Paper: 85% of jobs read less than 64MB; the biggest reads up to 24GB.
  EXPECT_NEAR(static_cast<double>(small) / 200.0, 0.85, 0.06);
  EXPECT_EQ(max_input, gib(24));
}

TEST(Swim, LargeJobsCarryMostData) {
  auto wl = SwimWorkload::generate({});
  Bytes small_bytes = 0, large_bytes = 0;
  for (const auto& job : wl.jobs()) {
    if (job.input < mib(64)) {
      small_bytes += job.input;
    } else {
      large_bytes += job.input;
    }
  }
  EXPECT_GT(large_bytes, small_bytes * 10);
}

TEST(Swim, SubmissionTimesMonotone) {
  auto wl = SwimWorkload::generate({});
  SimTime prev = -1;
  for (const auto& job : wl.jobs()) {
    EXPECT_GE(job.submit_at, prev);
    prev = job.submit_at;
  }
}

TEST(Swim, InterarrivalCompressionShortensSpan) {
  SwimConfig fast;
  SwimConfig slow;
  slow.interarrival_scale = 1.0;
  const auto wf = SwimWorkload::generate(fast);
  const auto ws = SwimWorkload::generate(slow);
  EXPECT_LT(wf.last_submission() * 3, ws.last_submission());
}

TEST(Swim, Deterministic) {
  auto a = SwimWorkload::generate({});
  auto b = SwimWorkload::generate({});
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].input, b.jobs()[i].input);
    EXPECT_EQ(a.jobs()[i].submit_at, b.jobs()[i].submit_at);
  }
}

TEST(Swim, ShuffleNeverExceedsInput) {
  auto wl = SwimWorkload::generate({});
  for (const auto& job : wl.jobs()) {
    EXPECT_LE(job.shuffle, job.input);
    EXPECT_GE(job.reducers, 0);
    if (job.shuffle == 0) {
      EXPECT_EQ(job.reducers, 0);
    }
  }
}

TEST(Swim, SizeBins) {
  EXPECT_EQ(SwimWorkload::bin_of(mib(10)), SwimWorkload::SizeBin::Small);
  EXPECT_EQ(SwimWorkload::bin_of(mib(64)), SwimWorkload::SizeBin::Medium);
  EXPECT_EQ(SwimWorkload::bin_of(mib(800)), SwimWorkload::SizeBin::Medium);
  EXPECT_EQ(SwimWorkload::bin_of(gib(1)), SwimWorkload::SizeBin::Large);
  EXPECT_EQ(SwimWorkload::bin_of(gib(24)), SwimWorkload::SizeBin::Large);
}

TEST(Swim, InstallCreatesFilesAndSubmits) {
  SwimConfig cfg;
  cfg.num_jobs = 10;
  cfg.total_input = gib(4);
  cfg.max_input = gib(2);
  auto wl = SwimWorkload::generate(cfg);

  exec::TestbedConfig tc;
  tc.num_nodes = 4;
  tc.block_size = mib(64);
  tc.scheme = exec::Scheme::Hdfs;
  exec::Testbed tb(tc);
  exec::JobSpec base;
  base.platform_overhead = seconds(2);
  auto ids = wl.install(tb, base);
  EXPECT_EQ(ids.size(), 10u);
  tb.run();
  EXPECT_EQ(tb.metrics().jobs().size(), 10u);
}

}  // namespace
}  // namespace dyrs::wl
