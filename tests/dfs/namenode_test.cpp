#include "dfs/namenode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "testing/fixture.h"

namespace dyrs::dfs {
namespace {

using dyrs::testing::MiniDfs;

TEST(NameNode, CreateFilePlacesReplicasOnDistinctNodes) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(256));
  ASSERT_EQ(f.blocks.size(), 4u);
  for (BlockId b : f.blocks) {
    auto locs = t.namenode->block_locations(b);
    EXPECT_EQ(locs.size(), 3u);
    std::sort(locs.begin(), locs.end());
    EXPECT_EQ(std::unique(locs.begin(), locs.end()), locs.end());
  }
}

TEST(NameNode, DatanodesStoreTheirReplicas) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  for (NodeId n : t.namenode->block_locations(b)) {
    EXPECT_TRUE(t.namenode->datanode(n)->has_block(b));
  }
}

TEST(NameNode, HeartbeatKeepsNodeAvailable) {
  MiniDfs t;
  t.sim.run_until(minutes(2));
  for (NodeId n : t.cluster->node_ids()) {
    EXPECT_TRUE(t.namenode->available(n));
  }
}

TEST(NameNode, MissedHeartbeatsMarkNodeDead) {
  MiniDfs t;
  t.namenode->create_file("/input", mib(64));
  t.sim.run_until(seconds(5));
  // Kill node 0's server: it stops heartbeating.
  t.cluster->node(NodeId(0)).set_alive(false);
  t.sim.run_until(seconds(5) + seconds(3) * 3 + seconds(2));
  EXPECT_FALSE(t.namenode->available(NodeId(0)));
  EXPECT_TRUE(t.namenode->available(NodeId(1)));
}

TEST(NameNode, BlockLocationsFilterDeadNodes) {
  MiniDfs t({.num_nodes = 3, .replication = 3});
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  ASSERT_EQ(t.namenode->block_locations(b).size(), 3u);
  t.cluster->node(NodeId(1)).set_alive(false);
  t.sim.run_until(seconds(15));
  auto locs = t.namenode->block_locations(b);
  EXPECT_EQ(locs.size(), 2u);
  EXPECT_EQ(std::count(locs.begin(), locs.end(), NodeId(1)), 0);
  // Raw replicas still remember the dead holder (needed for recovery).
  EXPECT_EQ(t.namenode->raw_replicas(b).size(), 3u);
}

TEST(NameNode, ProcessCrashRemovesFromService) {
  MiniDfs t({.num_nodes = 3, .replication = 3});
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  t.datanodes[0]->crash_process();
  EXPECT_FALSE(t.datanodes[0]->serving());
  auto locs = t.namenode->block_locations(b);
  EXPECT_EQ(std::count(locs.begin(), locs.end(), NodeId(0)), 0);
  t.datanodes[0]->restart_process();
  EXPECT_TRUE(t.datanodes[0]->serving());
  EXPECT_EQ(t.namenode->block_locations(b).size(), 3u);
}

TEST(NameNode, MemoryReplicaRegistry) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(128));
  const BlockId b = f.blocks[0];
  EXPECT_FALSE(t.namenode->in_memory(b));
  t.namenode->register_memory_replica(b, NodeId(2));
  EXPECT_TRUE(t.namenode->in_memory(b));
  EXPECT_EQ(t.namenode->memory_locations(b), std::vector<NodeId>{NodeId(2)});
  t.namenode->unregister_memory_replica(b, NodeId(2));
  EXPECT_FALSE(t.namenode->in_memory(b));
}

TEST(NameNode, MemoryLocationsFilterUnavailableNodes) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  t.namenode->register_memory_replica(b, NodeId(0));
  t.cluster->node(NodeId(0)).set_alive(false);
  t.sim.run_until(seconds(15));
  EXPECT_FALSE(t.namenode->in_memory(b));
}

TEST(NameNode, DropMemoryReplicasOnNode) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(192));
  t.namenode->register_memory_replica(f.blocks[0], NodeId(1));
  t.namenode->register_memory_replica(f.blocks[1], NodeId(1));
  t.namenode->register_memory_replica(f.blocks[2], NodeId(2));
  t.namenode->drop_memory_replicas_on(NodeId(1));
  EXPECT_FALSE(t.namenode->in_memory(f.blocks[0]));
  EXPECT_FALSE(t.namenode->in_memory(f.blocks[1]));
  EXPECT_TRUE(t.namenode->in_memory(f.blocks[2]));
  EXPECT_EQ(t.namenode->memory_replica_count(), 1u);
}

// is_local must be exactly "node is in memory_locations() or in
// block_locations()" — checked over every (block, node) pair as the memory
// registry and node liveness change underneath it.
struct LocalityCounts {
  int memory_only = 0;  // local through a memory replica alone
  int disk = 0;
  int remote = 0;
};

void expect_is_local_agrees(const NameNode& nn, const std::vector<BlockId>& blocks, int nodes,
                            LocalityCounts& counts) {
  auto has = [](const std::vector<NodeId>& v, NodeId n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  for (BlockId b : blocks) {
    const auto memory = nn.memory_locations(b);
    const auto disk = nn.block_locations(b);
    for (int i = 0; i < nodes; ++i) {
      const NodeId n(i);
      const bool expected = has(memory, n) || has(disk, n);
      EXPECT_EQ(nn.is_local(b, n), expected) << "block " << b << " node " << n;
      if (has(disk, n)) {
        ++counts.disk;
      } else if (expected) {
        ++counts.memory_only;
      } else {
        ++counts.remote;
      }
    }
  }
}

TEST(NameNode, IsLocalAgreesWithLocationListsThroughChurn) {
  MiniDfs::Options options;
  options.num_nodes = 5;
  options.replication = 2;
  MiniDfs t(std::move(options));
  const auto& f = t.namenode->create_file("/input", mib(64) * 12);
  const std::vector<BlockId> blocks = f.blocks;
  LocalityCounts counts;
  auto check = [&] { expect_is_local_agrees(*t.namenode, blocks, 5, counts); };
  check();

  // Memory replicas on holders and on non-holders (remote migrations).
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    t.namenode->register_memory_replica(blocks[i], NodeId(static_cast<int>(i % 5)));
    t.namenode->register_memory_replica(blocks[i], NodeId(static_cast<int>((i * 3 + 1) % 5)));
  }
  check();
  for (std::size_t i = 0; i < blocks.size(); i += 3) {
    t.namenode->unregister_memory_replica(blocks[i], NodeId(static_cast<int>(i % 5)));
  }
  check();

  // Process crash: node 1 stops serving at once.
  t.datanodes[1]->crash_process();
  check();
  // Partition: node 2 keeps serving but its heartbeats stop reaching the
  // namenode until it is declared unavailable.
  t.datanodes[2]->set_partitioned(true);
  t.sim.run_until(seconds(10));
  ASSERT_FALSE(t.namenode->available(NodeId(2)));
  check();

  // Rejoin: restart and heal, then let heartbeats land.
  t.datanodes[1]->restart_process();
  t.datanodes[2]->set_partitioned(false);
  t.sim.run_until(seconds(13));
  ASSERT_TRUE(t.namenode->available(NodeId(1)));
  ASSERT_TRUE(t.namenode->available(NodeId(2)));
  check();

  t.namenode->drop_memory_replicas_on(NodeId(3));
  check();
  // A node id the namenode never registered is never local.
  EXPECT_FALSE(t.namenode->is_local(blocks[0], NodeId(7)));

  EXPECT_GT(counts.memory_only, 0);
  EXPECT_GT(counts.disk, 0);
  EXPECT_GT(counts.remote, 0);
}

TEST(NameNode, PlacementDeterministicAcrossRuns) {
  MiniDfs a({.placement_seed = 77});
  MiniDfs b({.placement_seed = 77});
  const auto& fa = a.namenode->create_file("/input", mib(640));
  const auto& fb = b.namenode->create_file("/input", mib(640));
  for (std::size_t i = 0; i < fa.blocks.size(); ++i) {
    EXPECT_EQ(a.namenode->raw_replicas(fa.blocks[i]), b.namenode->raw_replicas(fb.blocks[i]));
  }
}

}  // namespace
}  // namespace dyrs::dfs
