// Property test for the control plane's per-node bind lists: over 200
// seeded random schedules — enqueue, merge with avoid growth, external
// erase, in-place job drops, requeue, failover clears and retarget passes
// from every engine — bind_for must bind exactly what the full-scan oracle
// picks: walk the whole queue in consideration order and keep the first
// entries eligible for the pulling node. Every schedule runs under both
// orderings and both late-binding modes; each exact pass must also match
// assign_targets, the reference formulation of Algorithm 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "core/control_plane.h"

namespace dyrs::core {
namespace {

constexpr int kNodes = 6;

/// The oracle: a copy of the whole queue in consideration order, scanned
/// for the entries eligible for the node.
std::vector<BlockId> full_scan_bind(PendingQueue& queue, Binding binding, Ordering ordering,
                                    NodeId node, int free_slots) {
  std::vector<BlockId> out;
  for (auto it : queue.in_order(ordering)) {
    if (static_cast<int>(out.size()) >= free_slots) break;
    if (std::find(it->avoid.begin(), it->avoid.end(), node) != it->avoid.end()) continue;
    const bool eligible =
        binding == Binding::LateTargeted
            ? it->target == node
            : std::find(it->replicas.begin(), it->replicas.end(), node) != it->replicas.end();
    if (eligible) out.push_back(it->block);
  }
  return out;
}

enum class Engine { Reference, IncrementalExact, IncrementalDrift, IncrementalSharded };

ControlPlaneConfig config_for(Engine engine, Binding binding, Ordering ordering) {
  ControlPlaneConfig cfg;
  cfg.binding = binding;
  cfg.ordering = ordering;
  if (engine != Engine::Reference) cfg.retarget.mode = RetargetConfig::Mode::Incremental;
  if (engine == Engine::IncrementalDrift) {
    // Held basis: targets may go stale, bind lists must follow them anyway.
    cfg.retarget.estimate_threshold = 0.25;
    cfg.retarget.queued_threshold = 0.5;
  }
  if (engine == Engine::IncrementalSharded) cfg.retarget.shards = 2;
  return cfg;
}

struct Trial {
  Trial(std::uint64_t seed, Engine engine, const ControlPlaneConfig& cfg)
      : rng(seed), engine(engine), cfg(cfg), plane(cfg) {}

  std::mt19937_64 rng;
  Engine engine;
  ControlPlaneConfig cfg;
  ControlPlane plane;
  std::vector<BoundMigration> bound;  // requeue candidates
  std::vector<SlaveSnapshot> snaps;
  int next_block = 0;
  SimTime now = 0;
  long bound_total = 0;

  int pick(int n) { return static_cast<int>(rng() % static_cast<std::uint64_t>(n)); }

  PendingMigration* random_entry() {
    PendingQueue& q = plane.queue();
    if (q.empty()) return nullptr;
    auto it = q.begin();
    std::advance(it, pick(static_cast<int>(q.size())));
    return &*it;
  }

  void enqueue_new() {
    std::vector<NodeId> replicas;
    const int count = 1 + pick(3);
    while (static_cast<int>(replicas.size()) < count) {
      const NodeId n(pick(kNodes));
      if (std::find(replicas.begin(), replicas.end(), n) == replicas.end()) replicas.push_back(n);
    }
    plane.enqueue(JobId(1 + pick(4)), EvictionMode::Explicit, BlockId(next_block++),
                  mib(1 + pick(4)), replicas, {}, now);
  }

  void merge_with_avoid() {
    const PendingMigration* pm = random_entry();
    if (pm == nullptr) return;
    std::vector<NodeId> avoid;
    if (pick(2) == 0) {
      avoid.push_back(pick(3) == 0 ? NodeId(pick(kNodes))
                                   : pm->replicas[static_cast<std::size_t>(
                                         pick(static_cast<int>(pm->replicas.size())))]);
    }
    plane.enqueue(JobId(1 + pick(4)), EvictionMode::Explicit, pm->block, 0, {}, avoid, now);
  }

  void fresh_snapshots() {
    snaps.clear();
    for (int n = 0; n < kNodes; ++n) {
      if (pick(4) == 0) continue;  // declared dead this pass
      snaps.push_back({.node = NodeId(n),
                       .sec_per_byte = (1 + pick(8)) * 1e-7,
                       .queued_bytes = static_cast<Bytes>(pick(4)) * mib(1)});
    }
    if (snaps.empty()) snaps.push_back({.node = NodeId(0), .sec_per_byte = 1e-7, .queued_bytes = 0});
  }

  void retarget() {
    if (snaps.empty() || pick(3) != 0) fresh_snapshots();
    const bool exact = engine == Engine::Reference || engine == Engine::IncrementalExact;
    std::vector<PendingMigration> copies;
    for (auto it : plane.queue().in_order(cfg.ordering)) copies.push_back(*it);
    std::vector<PendingMigration*> ptrs;
    for (PendingMigration& pm : copies) ptrs.push_back(&pm);
    const TargetingStats want = assign_targets(ptrs, snaps);
    const TargetingStats got = plane.retarget(snaps, now);
    if (!exact || copies.empty()) return;
    EXPECT_EQ(got.assigned, want.assigned);
    EXPECT_EQ(got.untargetable, want.untargetable);
    for (const PendingMigration& pm : copies) {
      ASSERT_EQ(plane.queue().lookup(pm.block)->target, pm.target) << "block " << pm.block;
    }
  }

  void bind(NodeId node, int slots) {
    const std::vector<BlockId> want =
        full_scan_bind(plane.queue(), cfg.binding, cfg.ordering, node, slots);
    std::vector<BlockId> got;
    for (BoundMigration& m : plane.bind_for(node, slots, 1e-7, now)) {
      got.push_back(m.block);
      bound.push_back(std::move(m));
    }
    ASSERT_EQ(got, want) << "node " << node << " slots " << slots;
    bound_total += static_cast<long>(got.size());
  }

  void external_erase() {
    if (const PendingMigration* pm = random_entry()) plane.queue().erase(pm->block);
  }

  /// A job stops wanting a pending block in place (missed read, job end),
  /// which moves the SmallestJobFirst keys without any queue mutation.
  void drop_job() {
    PendingMigration* pm = random_entry();
    if (pm == nullptr) return;
    pm->jobs.erase(JobId(1 + pick(4)));
    if (pm->jobs.empty()) plane.queue().erase(pm->block);
  }

  void requeue() {
    if (bound.empty()) return;
    const auto i = static_cast<std::size_t>(pick(static_cast<int>(bound.size())));
    BoundMigration m = bound[i];
    bound.erase(bound.begin() + static_cast<std::ptrdiff_t>(i));
    if (plane.queue().contains(m.block)) return;
    std::vector<NodeId> avoid = m.avoid;
    merge_avoid(avoid, m.replicas[static_cast<std::size_t>(
                           pick(static_cast<int>(m.replicas.size())))]);
    plane.enqueue(m.jobs.begin()->first, m.jobs.begin()->second, m.block, m.size, m.replicas,
                  avoid, now);
  }

  void step() {
    ++now;
    switch (pick(20)) {
      case 0: case 1: case 2: case 3: case 4: enqueue_new(); break;
      case 5: case 6: merge_with_avoid(); break;
      case 7: case 8: case 9: retarget(); break;
      case 10: case 11: case 12: case 13: bind(NodeId(pick(kNodes)), 1 + pick(3)); break;
      case 14: external_erase(); break;
      case 15: drop_job(); break;
      case 16: case 17: requeue(); break;
      case 18: if (pick(10) == 0) plane.queue().clear(); break;
      default: bind(NodeId(pick(kNodes)), 8); break;
    }
  }
};

TEST(BindIndexProperty, IndexedBindMatchesFullScanOracle) {
  const Engine engines[] = {Engine::Reference, Engine::IncrementalExact,
                            Engine::IncrementalDrift, Engine::IncrementalSharded};
  long bound_total = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Engine engine = engines[seed % 4];
    for (Binding binding : {Binding::LateTargeted, Binding::LateAnyReplica}) {
      for (Ordering ordering : {Ordering::Fifo, Ordering::SmallestJobFirst}) {
        Trial run(seed, engine, config_for(engine, binding, ordering));
        for (int op = 0; op < 80; ++op) {
          run.step();
          if (::testing::Test::HasFatalFailure()) {
            FAIL() << "seed " << seed << " op " << op << " binding " << to_string(binding)
                   << " ordering " << to_string(ordering);
          }
        }
        // Drain: every node binds all it can; lists and oracle must agree
        // to the last entry.
        run.retarget();
        for (int n = 0; n < kNodes; ++n) run.bind(NodeId(n), 1000);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed << " drain";
        bound_total += run.bound_total;
      }
    }
  }
  // The schedules must actually bind (about 13.8k bindings over the 800 runs).
  EXPECT_GT(bound_total, 10000);
}

}  // namespace
}  // namespace dyrs::core
