#include "core/replica_selector.h"

#include <algorithm>

#include "common/check.h"

namespace dyrs::core {

TargetingStats assign_targets(std::vector<PendingMigration*>& pending,
                              const std::vector<SlaveSnapshot>& slaves) {
  TargetingStats stats;

  // finish-time state per node: expected seconds until the node drains all
  // work queued on it plus work targeted to it so far in this pass.
  std::unordered_map<NodeId, double> sec_per_byte;
  std::unordered_map<NodeId, double> load_seconds;
  sec_per_byte.reserve(slaves.size());
  load_seconds.reserve(slaves.size());
  for (const auto& s : slaves) {
    DYRS_CHECK_MSG(s.sec_per_byte > 0.0, "slave " << s.node << " reported non-positive rate");
    sec_per_byte[s.node] = s.sec_per_byte;
    load_seconds[s.node] = s.sec_per_byte * static_cast<double>(s.queued_bytes);
  }

  for (PendingMigration* block : pending) {
    DYRS_CHECK(block != nullptr);
    NodeId best = NodeId::invalid();
    double best_finish = 0.0;
    for (NodeId loc : block->replicas) {
      if (std::find(block->avoid.begin(), block->avoid.end(), loc) != block->avoid.end()) {
        continue;  // replica returned persistent I/O errors or is unreachable
      }
      auto it = sec_per_byte.find(loc);
      if (it == sec_per_byte.end()) continue;  // replica host not reporting
      const double finish =
          load_seconds[loc] + it->second * static_cast<double>(block->size);
      if (!best.valid() || finish < best_finish) {
        best = loc;
        best_finish = finish;
      }
    }
    block->target = best;
    if (best.valid()) {
      load_seconds[best] = best_finish;
      ++stats.assigned;
    } else {
      ++stats.untargetable;
    }
  }
  return stats;
}

void TargetScorer::begin(const std::vector<SlaveSnapshot>& slaves) {
  for (std::size_t n : reporting_) sec_per_byte_[n] = 0.0;
  reporting_.clear();
  for (const auto& s : slaves) {
    DYRS_CHECK_MSG(s.sec_per_byte > 0.0, "slave " << s.node << " reported non-positive rate");
    DYRS_CHECK_MSG(s.node.valid(), "snapshot for an invalid node");
    const auto n = static_cast<std::size_t>(s.node.value());
    if (n >= sec_per_byte_.size()) {
      sec_per_byte_.resize(n + 1, 0.0);
      load_seconds_.resize(n + 1, 0.0);
    }
    sec_per_byte_[n] = s.sec_per_byte;
    load_seconds_[n] = s.sec_per_byte * static_cast<double>(s.queued_bytes);
    reporting_.push_back(n);
  }
}

}  // namespace dyrs::core
