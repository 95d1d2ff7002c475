// TierStore: the unified capacity/admission surface Disk, Ssd and Memory
// share, plus the clock-free CountingTier the rt backend accounts with.
// The buffer manager makes tier decisions purely through this interface,
// so its contract (admit-or-refuse with no partial state, release symmetry,
// the read-time ordering memory < ssd < disk) is what keeps both backends'
// decisions identical.
#include "core/tier_store.h"

#include <gtest/gtest.h>

#include "cluster/disk.h"
#include "cluster/memory.h"
#include "cluster/ssd.h"
#include "common/check.h"
#include "sim/simulator.h"

namespace dyrs::cluster {
namespace {

using core::CountingTier;
using core::TierStore;

TEST(CountingTier, AdmitsUpToCapacityAndRefusesBeyond) {
  CountingTier t(Tier::Memory, gib(1), gib_per_sec(25));
  EXPECT_EQ(t.tier(), Tier::Memory);
  EXPECT_TRUE(t.admit(mib(768)));
  EXPECT_EQ(t.used(), mib(768));
  EXPECT_EQ(t.available(), gib(1) - mib(768));
  // A refused admission changes nothing.
  EXPECT_FALSE(t.admit(mib(512)));
  EXPECT_EQ(t.used(), mib(768));
  EXPECT_TRUE(t.admit(mib(256)));
  EXPECT_EQ(t.used(), gib(1));
  t.release(gib(1));
  EXPECT_EQ(t.used(), 0);
}

TEST(CountingTier, ZeroCapacityMeansUnbounded) {
  CountingTier t(Tier::Ssd, 0, mib_per_sec(500));
  EXPECT_TRUE(t.admit(gib(1024)));
  EXPECT_TRUE(t.admit(gib(1024)));
  EXPECT_EQ(t.used(), gib(2048));
}

TEST(CountingTier, OverReleaseThrows) {
  CountingTier t(Tier::Memory, gib(1), gib_per_sec(25));
  ASSERT_TRUE(t.admit(mib(64)));
  EXPECT_THROW(t.release(mib(128)), CheckError);
}

TEST(CountingTier, ReadSecondsFollowsBandwidth) {
  CountingTier t(Tier::Ssd, gib(1), mib_per_sec(500));
  EXPECT_DOUBLE_EQ(t.read_seconds(mib(500)), 1.0);
}

TEST(TierStore, SimTiersImplementTheSharedSurface) {
  sim::Simulator sim;
  Disk disk(sim, {.name = "disk", .bandwidth = mib_per_sec(160)});
  Ssd ssd(sim, {.capacity = gib(4), .read_bandwidth = mib_per_sec(500)});
  Memory memory(sim, {.capacity = gib(8), .read_bandwidth = gib_per_sec(25)});

  TierStore* tiers[] = {&disk, &ssd, &memory};
  EXPECT_EQ(tiers[0]->tier(), Tier::Disk);
  EXPECT_EQ(tiers[1]->tier(), Tier::Ssd);
  EXPECT_EQ(tiers[2]->tier(), Tier::Memory);

  // The read-time model orders the hierarchy: memory < ssd < disk.
  const Bytes probe = mib(256);
  EXPECT_LT(tiers[2]->read_seconds(probe), tiers[1]->read_seconds(probe));
  EXPECT_LT(tiers[1]->read_seconds(probe), tiers[0]->read_seconds(probe));
}

TEST(TierStore, SsdTracksOccupancyAndRefusesOverflow) {
  sim::Simulator sim;
  Ssd ssd(sim, {.capacity = gib(1), .read_bandwidth = mib_per_sec(500)});
  EXPECT_TRUE(ssd.admit(mib(768)));
  EXPECT_FALSE(ssd.admit(mib(512)));
  EXPECT_EQ(ssd.used(), mib(768));
  ssd.release(mib(256));
  EXPECT_EQ(ssd.used(), mib(512));
  EXPECT_TRUE(ssd.admit(mib(512)));
  // Occupancy is recorded as a step series for the capacity-sweep figures.
  EXPECT_GT(ssd.usage_series().step_max(0, 1), 0.0);
}

TEST(TierStore, MemoryAdmitIsPinning) {
  sim::Simulator sim;
  Memory memory(sim, {.capacity = gib(1), .read_bandwidth = gib_per_sec(25)});
  TierStore& tier = memory;
  EXPECT_TRUE(tier.admit(mib(512)));
  EXPECT_EQ(memory.pinned(), mib(512));
  tier.release(mib(512));
  EXPECT_EQ(memory.pinned(), 0);
}

TEST(TierStore, DiskIsTheUnboundedBottom) {
  sim::Simulator sim;
  Disk disk(sim, {.name = "disk", .bandwidth = mib_per_sec(160)});
  // The home of every replica: demoting "to disk" frees the upper tiers
  // and tracks nothing here.
  EXPECT_TRUE(disk.admit(gib(100000)));
  EXPECT_EQ(disk.used(), 0);
  disk.release(gib(100000));
  EXPECT_EQ(disk.used(), 0);
}

}  // namespace
}  // namespace dyrs::cluster
