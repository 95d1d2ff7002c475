// Pins the slot scheduler's exact decisions: which task ran where and when,
// for a small multi-job, multi-wave DYRS scenario with a straggler node and
// speculative execution on. Scheduler optimisations must keep this sequence
// bit-identical — pass 1 (data-local, FIFO across jobs) and pass 2 (any
// task) have to pick the same task for the same free slot.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <tuple>
#include <vector>

#include "exec/testbed.h"

namespace dyrs::exec {
namespace {

struct Placement {
  std::int64_t task;
  std::int64_t node;
  SimTime started;
  bool operator==(const Placement& o) const {
    return std::tie(task, node, started) == std::tie(o.task, o.node, o.started);
  }
};

std::ostream& operator<<(std::ostream& os, const Placement& p) {
  return os << "{" << p.task << ", " << p.node << ", " << p.started << "}";
}

struct Outcome {
  std::vector<Placement> placements;  // completed attempts, in finish order
  std::vector<SimTime> job_finished;  // in completion order
  long speculative_launches = 0;
  long speculative_wins = 0;
};

Outcome run_scenario() {
  TestbedConfig c;
  c.num_nodes = 5;
  c.disk_bandwidth = mib_per_sec(64);
  c.seek_alpha = 0.0;
  c.block_size = mib(64);
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 1;
  c.speculative_execution = true;
  c.scheme = Scheme::Dyrs;
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = mib(64);
  Testbed tb(c);
  // Node 0's disk is nearly dead: its local reads straggle and get
  // speculated elsewhere.
  for (int i = 0; i < 9; ++i) tb.cluster().node(NodeId(0)).disk().start_interference();
  tb.load_file("/a", mib(64) * 14);
  tb.load_file("/b", mib(64) * 8);
  tb.load_file("/c", mib(64) * 10);

  auto job = [](const std::string& file, int reducers, SimDuration lead) {
    JobSpec spec;
    spec.name = file;
    spec.input_files = {file};
    spec.selectivity = 0.1;
    spec.num_reducers = reducers;
    spec.platform_overhead = seconds(1);
    spec.extra_lead_time = lead;
    spec.task_overhead = milliseconds(100);
    return spec;
  };
  // 32 maps over 10 map slots: several waves, three jobs interleaving in
  // FIFO order, the later ones with enough lead time to migrate some input
  // (so memory replicas take part in the locality check).
  tb.submit(job("/a", 2, 0));
  tb.submit_at(job("/b", 0, seconds(4)), seconds(1));
  tb.submit_at(job("/c", 1, seconds(2)), seconds(3));
  tb.run();

  Outcome out;
  for (const TaskRecord& t : tb.metrics().tasks()) {
    out.placements.push_back({t.id.value(), t.node.value(), t.started});
  }
  for (const JobRecord& j : tb.metrics().jobs()) out.job_finished.push_back(j.finished);
  out.speculative_launches = tb.engine().speculative_launches();
  out.speculative_wins = tb.engine().speculative_wins();
  return out;
}

// The expected values were captured from a scheduler that rescanned every
// job's whole map vector for each free slot; any cheaper scan must
// reproduce them exactly.
TEST(EnginePlacement, PlacementSequenceIsPinned) {
  const Outcome o = run_scenario();
  const std::vector<Placement> expected = {
      {4, 4, 1000000}, {8, 4, 1000000}, {3, 3, 1000000}, {9, 3, 1000000},
      {1, 2, 1000000}, {5, 2, 1000000}, {2, 1, 1000000}, {6, 1, 1000000},
      {19, 1, 6000000}, {18, 2, 6000000}, {23, 1, 6182500}, {22, 2, 6182500},
      {10, 3, 3730001}, {13, 3, 3730001}, {11, 4, 3730001}, {12, 4, 3730001},
      {20, 3, 6825002}, {26, 3, 7058690}, {16, 2, 6000000}, {21, 1, 6000000},
      {30, 4, 6910001}, {31, 4, 6910001}, {25, 2, 6365000}, {17, 3, 6825002},
      {24, 1, 6365000}, {27, 3, 7241190}, {28, 2, 8730001}, {32, 4, 9090001},
      {0, 1, 10000000}, {7, 2, 10000000}, {29, 1, 8997501}, {33, 4, 9090001},
      {15, 1, 11180000}, {34, 2, 11300835}, {14, 0, 11180000},
  };
  EXPECT_EQ(o.placements, expected);
  EXPECT_EQ(o.job_finished, (std::vector<SimTime>{9401669, 12534523, 18580278}));
  // Node 0's first-wave maps (tasks 0 and 7) straggled and were rescued.
  EXPECT_EQ(o.speculative_launches, 2);
  EXPECT_EQ(o.speculative_wins, 2);
}

}  // namespace
}  // namespace dyrs::exec
