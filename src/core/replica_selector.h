// Algorithm 1 — greedy earliest-finish replica targeting (paper §III-A2).
//
// For each pending block, choose as its migration target the replica node
// on which it is expected to *finish* soonest given everything already
// queued or previously targeted there. This both balances load by residual
// bandwidth and avoids handing the last migrations of a job to a slow node
// (the straggler pathology of naive balancing, Fig 10).
//
// This implementation is byte-exact: loads are tracked in bytes and each
// block contributes its own size, which reduces to the paper's per-block
// formulation (finishTime[n] = migTime[n] * (numQueued[n]+1)) when all
// blocks have equal size.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "core/types.h"

namespace dyrs::core {

/// One slave's state as reported on its last heartbeat.
struct SlaveSnapshot {
  NodeId node;
  double sec_per_byte = 0.0;  // current migration-time estimate
  Bytes queued_bytes = 0;     // bytes bound locally (queued + in flight)
};

struct TargetingStats {
  std::size_t assigned = 0;    // blocks that received a target
  std::size_t untargetable = 0;  // no replica on any reporting slave
};

/// Runs Algorithm 1 over `pending` (FIFO order), setting each entry's
/// `target`. Entries whose replicas include no node in `slaves` get an
/// invalid target and are skipped at assignment time. This is the
/// reference formulation; tests and benches hold TargetScorer to it.
TargetingStats assign_targets(std::vector<PendingMigration*>& pending,
                              const std::vector<SlaveSnapshot>& slaves);

/// Algorithm 1 for the control plane's periodic pass: assign_targets'
/// arithmetic and fold order, scored one entry at a time against
/// node-indexed estimate and load vectors that are reused across passes —
/// no hash lookup per replica and no allocation once the vectors have grown
/// to the node range.
class TargetScorer {
 public:
  /// Starts a pass over `slaves` (later snapshots of a node win, as in
  /// assign_targets); forgets the previous pass's nodes.
  void begin(const std::vector<SlaveSnapshot>& slaves);
  /// Sets `pm.target` to the reporting, non-avoided replica that finishes
  /// it soonest (invalid when none) and charges the block to that node.
  /// Inline: the pass calls it once per pending entry.
  void score(PendingMigration& pm, TargetingStats& stats) {
    NodeId best = NodeId::invalid();
    double best_finish = 0.0;
    for (NodeId loc : pm.replicas) {
      if (std::find(pm.avoid.begin(), pm.avoid.end(), loc) != pm.avoid.end()) {
        continue;  // replica returned persistent I/O errors or is unreachable
      }
      const double rate = sec_per_byte(loc);
      if (rate == 0.0) continue;  // replica host not reporting
      const double finish =
          load_seconds_[static_cast<std::size_t>(loc.value())] + rate * static_cast<double>(pm.size);
      if (!best.valid() || finish < best_finish) {
        best = loc;
        best_finish = finish;
      }
    }
    pm.target = best;
    if (best.valid()) {
      load_seconds_[static_cast<std::size_t>(best.value())] = best_finish;
      ++stats.assigned;
    } else {
      ++stats.untargetable;
    }
  }
  /// `node`'s estimate in the current pass; 0 when it is not reporting.
  double sec_per_byte(NodeId node) const {
    const auto n = static_cast<std::size_t>(node.value());
    return node.valid() && n < sec_per_byte_.size() ? sec_per_byte_[n] : 0.0;
  }

 private:
  std::vector<double> sec_per_byte_;  // by node value; 0 = not reporting
  std::vector<double> load_seconds_;  // finish seconds so far this pass
  std::vector<std::size_t> reporting_;  // node values set by begin()
};

}  // namespace dyrs::core
