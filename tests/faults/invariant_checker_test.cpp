#include "exec/invariant_checker.h"

#include <gtest/gtest.h>

#include "exec/testbed.h"
#include "workloads/sort.h"

namespace dyrs::faults {
namespace {

exec::TestbedConfig small_config(exec::Scheme scheme) {
  exec::TestbedConfig c;
  c.num_nodes = 5;
  c.disk_bandwidth = mib_per_sec(128);
  c.seek_alpha = 0.0;
  c.block_size = mib(128);
  c.replication = 3;
  c.scheme = scheme;
  c.master.slave.reference_block = mib(128);
  return c;
}

TEST(InvariantChecker, CleanRunHasNoViolations) {
  exec::Testbed tb(small_config(exec::Scheme::Dyrs));
  auto& checker = tb.enable_invariant_checks();
  tb.load_file("/in", gib(1));
  wl::SortConfig sort;
  sort.input = gib(1);
  sort.platform_overhead = seconds(8);
  tb.submit(wl::sort_job("/in", sort));
  tb.run();
  EXPECT_GE(checker.checks_run(), 10);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantChecker, CleanRunUnderCrashAndFailoverHasNoViolations) {
  // Correctly-handled failures must not trip the checker: crash cleanup,
  // restart, and master failover all keep the layers consistent.
  exec::Testbed tb(small_config(exec::Scheme::Dyrs));
  auto& checker = tb.enable_invariant_checks();
  tb.load_file("/in", gib(1));
  wl::SortConfig sort;
  sort.input = gib(1);
  sort.platform_overhead = seconds(10);
  tb.submit(wl::sort_job("/in", sort));
  tb.simulator().schedule_at(seconds(2),
                             [&]() { tb.namenode().datanode(NodeId(1))->crash_process(); });
  tb.simulator().schedule_at(seconds(4),
                             [&]() { tb.namenode().datanode(NodeId(1))->restart_process(); });
  tb.simulator().schedule_at(seconds(5), [&]() { tb.master()->master_failover(); });
  tb.run();
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantChecker, DetectsGhostMemoryReplica) {
  // A registry entry with no backing buffer is exactly the inconsistency
  // the checker exists to catch.
  exec::Testbed tb(small_config(exec::Scheme::Dyrs));
  auto& checker = tb.enable_invariant_checks();
  const auto& f = tb.load_file("/in", mib(256));
  tb.simulator().schedule_at(seconds(1), [&]() {
    tb.namenode().register_memory_replica(f.blocks[0], NodeId(0));
  });
  tb.simulator().run_until(seconds(3));
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].invariant, "memory-replica-buffered");
}

TEST(InvariantChecker, DetectsLostCrashNotification) {
  // Simulate a buggy deployment where the slave's crash hook never reaches
  // the master: bound migrations keep pointing at a dead process and the
  // registry keeps replicas the OS already reclaimed.
  exec::TestbedConfig config = small_config(exec::Scheme::Dyrs);
  exec::Testbed tb(config);
  auto& checker = tb.enable_invariant_checks();
  tb.load_file("/in", gib(1));
  tb.master()->migrate_files(JobId(1), {"/in"}, core::EvictionMode::Explicit);
  tb.simulator().schedule_at(seconds(2), [&]() {
    dfs::DataNode* dn = tb.namenode().datanode(NodeId(1));
    dn->on_process_crash = nullptr;  // the notification is lost
    dn->crash_process();
  });
  tb.simulator().run_until(seconds(6));
  bool saw_dead_target = false;
  for (const auto& v : checker.violations()) {
    if (v.invariant == "bound-target-process-alive" ||
        v.invariant == "memory-replica-process-alive") {
      saw_dead_target = true;
    }
  }
  EXPECT_TRUE(saw_dead_target);
}

TEST(InvariantChecker, MasterlessSchemesRunMinimalChecks) {
  exec::Testbed tb(small_config(exec::Scheme::InputsInRam));
  auto& checker = tb.enable_invariant_checks();
  tb.load_file("/in", mib(512));
  wl::SortConfig sort;
  sort.input = mib(512);
  sort.platform_overhead = seconds(4);
  tb.submit(wl::sort_job("/in", sort));
  tb.run();
  EXPECT_GT(checker.checks_run(), 0);
  EXPECT_TRUE(checker.violations().empty());
}

}  // namespace
}  // namespace dyrs::faults
