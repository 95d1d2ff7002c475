// ControlPlane policy-engine tests: merged-enqueue tracing and avoid-list
// binding eligibility.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/control_plane.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"

namespace dyrs::core {
namespace {

SlaveSnapshot snap(int node, double sec_per_byte, Bytes queued = 0) {
  return {NodeId(node), sec_per_byte, queued};
}

std::vector<NodeId> nodes(std::initializer_list<int> ids) {
  std::vector<NodeId> out;
  for (int id : ids) out.emplace_back(id);
  return out;
}

/// A ControlPlane wired to an in-memory trace sink.
struct TracedPlane {
  explicit TracedPlane(ControlPlaneConfig config = {}) : plane(config) {
    tracer.set_sink(&sink);
    plane.set_emitter(LifecycleEmitter(obs::ObsContext(&registry, &tracer)));
  }

  ControlPlane::Enqueued add(int job, int block, Bytes size, std::initializer_list<int> replicas,
                             SimTime now, std::initializer_list<int> avoid = {}) {
    return plane.enqueue(JobId(job), EvictionMode::Explicit, BlockId(block), size, nodes(replicas),
                         nodes(avoid), now);
  }

  std::vector<obs::TraceEvent> of_type(const std::string& type) const {
    std::vector<obs::TraceEvent> out;
    for (const auto& e : sink.events()) {
      if (e.type == type) out.push_back(e);
    }
    return out;
  }

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;
  ControlPlane plane;
};

// ---------------------------------------------------------------------------
// Satellite: the enqueue merge path must emit a marked mig_enqueue so trace
// consumers see multi-job demand, and the oracle must accept it mid-lifecycle.

TEST(ControlPlaneTrace, MergedEnqueueEmitsMarkedEvent) {
  TracedPlane t;
  ASSERT_TRUE(t.add(1, 7, mib(2), {0, 1}, 10).created);
  ASSERT_FALSE(t.add(2, 7, mib(2), {0, 1}, 20).created);  // merges into the open entry

  const auto enqueues = t.of_type("mig_enqueue");
  ASSERT_EQ(enqueues.size(), 2u);
  EXPECT_EQ(enqueues[0].i64("merged", 0), 0);
  EXPECT_EQ(enqueues[0].i64("size"), static_cast<std::int64_t>(mib(2)));
  EXPECT_EQ(enqueues[1].i64("merged", 0), 1);
  EXPECT_EQ(enqueues[1].i64("block"), 7);
  EXPECT_EQ(enqueues[1].i64("job"), 2);
  // Size and replicas ride on the original enqueue only.
  EXPECT_EQ(enqueues[1].find("size"), nullptr);
  EXPECT_EQ(enqueues[1].find("replicas"), nullptr);

  // Drive the lifecycle to a terminal; the oracle must count the merge, not
  // flag it, and measure the bind wait from the *original* enqueue.
  t.plane.retarget({snap(0, 1e-6), snap(1, 2e-6)}, 30);
  auto bound = t.plane.bind_for(NodeId(0), 1, 1e-6, 40);
  ASSERT_EQ(bound.size(), 1u);
  t.plane.emitter().transfer_start(45, BlockId(7), NodeId(0), mib(2), 1);
  t.plane.emitter().complete(50, BlockId(7), NodeId(0), mib(2), 0.5);

  obs::TraceInvariants oracle;
  oracle.flag_open_lifecycles = true;
  const auto report = oracle.check(obs::TraceReader(t.sink.events()));
  EXPECT_TRUE(report.ok()) << report.summary()
                           << (report.violations.empty() ? "" : ": " + report.violations[0].detail);
  EXPECT_EQ(report.merged_enqueues, 1u);
  EXPECT_EQ(report.lifecycles_closed, 1u);
  const auto binds = t.of_type("mig_bind");
  ASSERT_EQ(binds.size(), 1u);
  EXPECT_EQ(binds[0].i64("wait_us"), 30);  // 40 - 10, not 40 - 20
}

TEST(ControlPlaneTrace, MergedEnqueueWithoutOpenLifecycleIsViolation) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent e(5, "mig_enqueue");
  e.with("block", 3).with("job", 1).with("merged", std::int64_t{1});
  events.push_back(e);

  obs::TraceInvariants oracle;
  const auto report = oracle.check(obs::TraceReader(events));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "order");
  EXPECT_EQ(report.merged_enqueues, 1u);
}

// ---------------------------------------------------------------------------
// Satellite: bind_for must honour the avoid list in LateTargeted mode — a
// stale target (assigned before a failure joined the avoid list) must not
// bind the block back to the node that failed it.

TEST(ControlPlaneBind, AvoidGatesStaleLateTargetedBinding) {
  TracedPlane t;
  t.add(1, 0, mib(1), {0, 1}, 0);
  // Node 0 is faster: Algorithm 1 targets the block there.
  t.plane.retarget({snap(0, 1e-6), snap(1, 2e-6)}, 1);
  ASSERT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(0));

  // A second job joins and carries node 0 in its avoid history (the replica
  // failed it elsewhere). The merge grows the avoid list but the stale
  // target still points at node 0.
  t.add(2, 0, mib(1), {0, 1}, 2, /*avoid=*/{0});
  ASSERT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(0));

  // Pre-fix this bound the block straight back to node 0.
  EXPECT_TRUE(t.plane.bind_for(NodeId(0), 1, 1e-6, 3).empty());
  EXPECT_EQ(t.plane.queue().size(), 1u);

  // The next pass re-targets away from the avoided node and node 1 binds.
  t.plane.retarget({snap(0, 1e-6), snap(1, 2e-6)}, 4);
  EXPECT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(1));
  const auto bound = t.plane.bind_for(NodeId(1), 1, 2e-6, 5);
  ASSERT_EQ(bound.size(), 1u);
  EXPECT_EQ(bound[0].block, BlockId(0));
}

TEST(ControlPlaneBind, AvoidStillGatesAnyReplicaBinding) {
  ControlPlaneConfig cfg;
  cfg.binding = Binding::LateAnyReplica;
  TracedPlane t(cfg);
  t.add(1, 0, mib(1), {0, 1}, 0, /*avoid=*/{0});
  EXPECT_TRUE(t.plane.bind_for(NodeId(0), 1, 1e-6, 1).empty());
  EXPECT_EQ(t.plane.bind_for(NodeId(1), 1, 1e-6, 2).size(), 1u);
}

}  // namespace
}  // namespace dyrs::core
