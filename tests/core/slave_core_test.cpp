// SlaveCore: the slave decisions both backends share — admission with
// demotion counting, completion accounting, the retry-or-fail decision,
// and the estimator reset on restart.
#include "core/slave_core.h"

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dyrs::core {
namespace {

constexpr Bytes kBlock = mib(64);

std::map<JobId, EvictionMode> job1() { return {{JobId(1), EvictionMode::Explicit}}; }

struct SlaveCoreFixture : ::testing::Test {
  CountingTier memory{Tier::Memory, 2 * kBlock, gib_per_sec(100)};
  CountingTier ssd{Tier::Ssd, 0, mib_per_sec(500)};
  obs::MetricsRegistry registry;
  obs::MemorySink sink;
  obs::Tracer tracer;

  SlaveCore make(TierPolicy tier, RetryPolicy retry = {}) {
    SlaveCore core(NodeId(3),
                   {.ewma_alpha = 0.5,
                    .reference_block = kBlock,
                    .fallback_rate = mib_per_sec(128),
                    .overdue_correction = true},
                   memory, &ssd, tier, 0, retry);
    tracer.set_sink(&sink);
    core.set_obs(obs::ObsContext(&registry, &tracer));
    return core;
  }
};

TEST_F(SlaveCoreFixture, AdmitCountsForcedDemotionsAndPublishesGauges) {
  TierPolicy tier;
  tier.on_pressure = TierPolicy::OnPressure::EvictColdFirst;
  SlaveCore core = make(tier);
  std::vector<BufferManager::Demotion> demoted;
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(core.admit(BlockId(b), kBlock, job1(), demoted));
    core.complete(BlockId(b), kBlock, 0.5);  // resident: a demotion candidate
  }
  // Two blocks fit in memory; each later admission pushed the coldest one
  // down to the ssd.
  ASSERT_EQ(demoted.size(), 2u);
  EXPECT_EQ(demoted[0].block, BlockId(0));
  EXPECT_EQ(demoted[0].to, Tier::Ssd);
  EXPECT_EQ(core.demotions(), 2);
  EXPECT_EQ(core.completed(), 4);
  EXPECT_EQ(registry.counter("dyrs.migrations.demoted").value(), 2);
  EXPECT_EQ(registry.gauge("node3.tier.memory.used_bytes").value(),
            static_cast<double>(2 * kBlock));
  EXPECT_EQ(registry.gauge("node3.tier.ssd.used_bytes").value(),
            static_cast<double>(2 * kBlock));
}

TEST_F(SlaveCoreFixture, RefusedAdmissionForcesNoDemotion) {
  SlaveCore core = make({});  // default: refuse on pressure
  std::vector<BufferManager::Demotion> demoted;
  EXPECT_TRUE(core.admit(BlockId(1), kBlock, job1(), demoted));
  EXPECT_TRUE(core.admit(BlockId(2), kBlock, job1(), demoted));
  EXPECT_FALSE(core.admit(BlockId(3), kBlock, job1(), demoted));
  EXPECT_TRUE(demoted.empty());
  EXPECT_EQ(core.demotions(), 0);
  EXPECT_FALSE(core.buffers().contains(BlockId(3)));
}

TEST_F(SlaveCoreFixture, FailAttemptBacksOffThenFailsOnceTheBudgetIsSpent) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff = milliseconds(100);
  SlaveCore core = make({}, retry);
  BoundMigration m;
  m.block = BlockId(9);
  m.size = kBlock;
  EXPECT_EQ(core.fail_attempt(seconds(1), m), milliseconds(100));
  EXPECT_EQ(core.fail_attempt(seconds(2), m), milliseconds(200));
  EXPECT_EQ(core.fail_attempt(seconds(3), m), std::nullopt);
  EXPECT_EQ(m.attempts, 3);
  EXPECT_EQ(core.retries(), 2);
  EXPECT_EQ(core.permanent_failures(), 1);
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].type, "mig_transfer_retry");
  EXPECT_EQ(sink.events()[1].type, "mig_transfer_retry");
  EXPECT_EQ(sink.events()[2].type, "mig_transfer_failed");
}

TEST_F(SlaveCoreFixture, CompleteFeedsTheEstimateAndResetForgetsIt) {
  SlaveCore core = make({});
  const double fallback = core.estimator().seconds_per_block();
  EXPECT_DOUBLE_EQ(fallback, 0.5);  // 64 MiB at 128 MiB/s
  core.complete(BlockId(1), kBlock, 2.0);
  EXPECT_DOUBLE_EQ(core.estimator().seconds_per_block(), 2.0);
  core.reset_estimator();
  EXPECT_DOUBLE_EQ(core.estimator().seconds_per_block(), fallback);
  EXPECT_EQ(core.completed(), 1);  // counters survive; only history resets
}

}  // namespace
}  // namespace dyrs::core
