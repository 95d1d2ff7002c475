#include "core/estimator.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace dyrs::core {
namespace {

MigrationEstimator::Options opts() {
  return {.ewma_alpha = 0.3,
          .reference_block = mib(256),
          .fallback_rate = mib_per_sec(160),
          .overdue_correction = true};
}

TEST(MigrationEstimator, FallbackBeforeSamples) {
  MigrationEstimator e(opts());
  // 256MiB at 160MiB/s = 1.6s.
  EXPECT_NEAR(e.seconds_per_block(), 1.6, 1e-9);
  EXPECT_EQ(e.completed_samples(), 0);
}

TEST(MigrationEstimator, LearnsFromCompletedMigrations) {
  MigrationEstimator e(opts());
  for (int i = 0; i < 50; ++i) e.on_complete(mib(256), 3.2);
  EXPECT_NEAR(e.seconds_per_block(), 3.2, 0.05);
}

TEST(MigrationEstimator, ScalesWithSize) {
  MigrationEstimator e(opts());
  for (int i = 0; i < 50; ++i) e.on_complete(mib(256), 1.6);
  EXPECT_NEAR(e.seconds_for(mib(128)), 0.8, 0.05);
  EXPECT_NEAR(e.seconds_for(mib(512)), 3.2, 0.1);
}

TEST(MigrationEstimator, ShortBlocksDontSkewPerByteRate) {
  MigrationEstimator e(opts());
  // A short last-block migrated proportionally faster leaves the per-byte
  // estimate unchanged.
  e.on_complete(mib(256), 1.6);
  e.on_complete(mib(16), 0.1);
  EXPECT_NEAR(e.seconds_per_block(), 1.6, 0.05);
}

TEST(MigrationEstimator, OverdueRaisesEstimate) {
  MigrationEstimator e(opts());
  e.on_complete(mib(256), 1.6);
  // Migration has been running 5s — way past the 1.6s estimate.
  EXPECT_TRUE(e.on_overdue(mib(256), 5.0));
  EXPECT_GT(e.seconds_per_block(), 1.6);
}

TEST(MigrationEstimator, NotOverdueIsIgnored) {
  MigrationEstimator e(opts());
  e.on_complete(mib(256), 1.6);
  EXPECT_FALSE(e.on_overdue(mib(256), 1.0));
  EXPECT_NEAR(e.seconds_per_block(), 1.6, 1e-9);
}

TEST(MigrationEstimator, OverdueCorrectionCanBeDisabled) {
  auto o = opts();
  o.overdue_correction = false;
  MigrationEstimator e(o);
  e.on_complete(mib(256), 1.6);
  EXPECT_FALSE(e.on_overdue(mib(256), 50.0));
  EXPECT_NEAR(e.seconds_per_block(), 1.6, 1e-9);
}

TEST(MigrationEstimator, RepeatedOverdueConverges) {
  // Paper §IV-A: the estimate is updated every heartbeat while the active
  // migration runs long, so it tracks the slowdown *before* completion.
  MigrationEstimator e(opts());
  e.on_complete(mib(256), 1.6);
  for (double elapsed = 2.0; elapsed <= 20.0; elapsed += 1.0) {
    e.on_overdue(mib(256), elapsed);
  }
  EXPECT_GT(e.seconds_per_block(), 10.0);
}

TEST(MigrationEstimator, RecoversAfterInterferenceEnds) {
  MigrationEstimator e(opts());
  for (int i = 0; i < 10; ++i) e.on_complete(mib(256), 8.0);  // slow period
  for (int i = 0; i < 20; ++i) e.on_complete(mib(256), 1.6);  // recovered
  EXPECT_NEAR(e.seconds_per_block(), 1.6, 0.1);
}

TEST(MigrationEstimator, InvalidInputsThrow) {
  MigrationEstimator e(opts());
  EXPECT_THROW(e.on_complete(0, 1.0), CheckError);
  EXPECT_THROW(e.on_complete(mib(1), -1.0), CheckError);
  EXPECT_THROW(MigrationEstimator({.ewma_alpha = 0.3,
                                   .reference_block = 0,
                                   .fallback_rate = mib_per_sec(1),
                                   .overdue_correction = true}),
               CheckError);
}

}  // namespace
}  // namespace dyrs::core
