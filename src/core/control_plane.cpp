#include "core/control_plane.h"

#include <algorithm>

namespace dyrs::core {

ControlPlane::Enqueued ControlPlane::enqueue(JobId job, EvictionMode mode, BlockId block,
                                             Bytes size, std::vector<NodeId> replicas,
                                             const std::vector<NodeId>& avoid, SimTime now) {
  if (PendingMigration* pm = queue_.lookup(block)) {
    pm->jobs[job] = mode;
    merge_avoid(pm->avoid, avoid);
    emitter_.enqueue_merged(now, block, job);
    return {pm, false};
  }
  PendingMigration pm;
  pm.block = block;
  pm.size = size;
  pm.jobs[job] = mode;
  pm.replicas = std::move(replicas);
  pm.avoid = avoid;
  pm.requested_at = now;
  PendingMigration& entry = queue_.push(std::move(pm));
  if (config_.binding == Binding::LateAnyReplica) {
    for (auto r = entry.replicas.begin(); r != entry.replicas.end(); ++r) {
      if (!r->valid() || std::find(entry.replicas.begin(), r, *r) != r) continue;
      BindList& list = bind_list(*r);
      list.entries.push_back({block, entry.seq});
      // A node that stops pulling would pile up stale candidates: compact
      // its list once it outgrows the queue.
      if (list.entries.size() - list.head > 2 * queue_.size() + 64) {
        std::erase_if(list.entries, [&](const Candidate& c) {
          return eligible(*r, c) == queue_.end();
        });
        list.head = 0;
      }
    }
  }
  emitter_.enqueue(now, block, job, entry.size, entry.replicas);
  return {&entry, true};
}

TargetingStats ControlPlane::retarget(const std::vector<SlaveSnapshot>& snapshots, SimTime now) {
  TargetingStats stats;
  if (queue_.empty() || snapshots.empty()) return stats;
  const bool trace = emitter_.tracing() &&
                     config_.target_trace == ControlPlaneConfig::TargetTrace::AtRetarget;
  const bool targeted = config_.binding == Binding::LateTargeted;
  // Target in the same order binding will consider entries, so the greedy
  // finish-time accounting matches the eventual assignment order.
  scorer_.begin(snapshots);
  auto score = [&](PendingMigration& pm) {
    const NodeId before = pm.target;
    scorer_.score(pm, stats);
    if (trace && pm.target.valid() && pm.target != before) {
      emitter_.target(now, pm.block, pm.target, scorer_.sec_per_byte(pm.target));
    }
  };
  if (config_.ordering == Ordering::Fifo) {
    // Pass order is queue order: record the bind lists in the same walk.
    if (targeted) clear_bind_lists();
    for (PendingMigration& pm : queue_) {
      score(pm);
      if (targeted) list_target(pm);
    }
  } else {
    for (auto it : queue_.in_order(config_.ordering)) score(*it);
    if (targeted) rebuild_target_lists();
  }
  return stats;
}

void ControlPlane::clear_bind_lists() {
  for (BindList& list : bind_lists_) {
    list.entries.clear();
    list.head = 0;
  }
}

void ControlPlane::list_target(const PendingMigration& pm) {
  if (pm.target.valid()) bind_list(pm.target).entries.push_back({pm.block, pm.seq});
}

void ControlPlane::rebuild_target_lists() {
  clear_bind_lists();
  for (const PendingMigration& pm : queue_) list_target(pm);
}

PendingQueue::iterator ControlPlane::eligible(NodeId node, const Candidate& c) {
  // A matching seq also means an unchanged target: only a pass retargets,
  // and every pass rebuilds the LateTargeted lists.
  const auto it = queue_.find(c.block);
  if (it == queue_.end() || it->seq != c.seq) return queue_.end();
  // The avoid list gates both modes: a LateTargeted entry can carry a
  // stale target pointing at a node that has since failed on it (the
  // target was assigned before a job merge grew the avoid list) — binding
  // there anyway would hand the block back to the replica that just
  // proved unable to serve it.
  if (std::find(it->avoid.begin(), it->avoid.end(), node) != it->avoid.end()) {
    return queue_.end();
  }
  return it;
}

BoundMigration ControlPlane::bind_entry(PendingQueue::iterator it, NodeId node,
                                        double sec_per_byte, SimTime now) {
  BoundMigration bm;
  bm.block = it->block;
  bm.size = it->size;
  bm.jobs = std::move(it->jobs);
  bm.replicas = std::move(it->replicas);
  bm.requested_at = it->requested_at;
  bm.bound_at = now;
  bm.avoid = std::move(it->avoid);
  if (config_.target_trace == ControlPlaneConfig::TargetTrace::AtBind) {
    emitter_.target(now, bm.block, node, sec_per_byte);
  }
  emitter_.bind(now, bm.block, node, now - bm.requested_at);
  binding_log_.emplace_back(bm.block, node);
  queue_.erase(it);
  return bm;
}

std::vector<BoundMigration> ControlPlane::bind_for(NodeId node, int free_slots,
                                                   double sec_per_byte, SimTime now) {
  std::vector<BoundMigration> out;
  if (free_slots <= 0 || queue_.empty() || config_.binding == Binding::EagerRandom) return out;
  if (!node.valid() || static_cast<std::size_t>(node.value()) >= bind_lists_.size()) return out;
  BindList& list = bind_lists_[static_cast<std::size_t>(node.value())];
  const auto want = static_cast<std::size_t>(free_slots);
  const bool fifo = config_.ordering == Ordering::Fifo;
  // Eligible candidates in queue order, dropping stale ones. FIFO binds the
  // first `want` and stops; SJF ranks them all, compacting the list as it
  // goes.
  std::vector<PendingQueue::iterator> picks;
  std::size_t keep = 0;
  std::size_t i = list.head;
  for (; i < list.entries.size() && (!fifo || picks.size() < want); ++i) {
    const Candidate c = list.entries[i];
    const auto it = eligible(node, c);
    if (it == queue_.end()) continue;
    picks.push_back(it);
    if (!fifo) list.entries[keep++] = c;
  }
  if (fifo) {
    list.head = i;  // everything before `i` is stale or binds below
    if (list.head * 2 >= list.entries.size()) {
      list.entries.erase(list.entries.begin(),
                         list.entries.begin() + static_cast<std::ptrdiff_t>(list.head));
      list.head = 0;
    }
  } else {
    list.entries.resize(keep);
    list.head = 0;
    queue_.rank_smallest_job_first(picks);
    if (picks.size() > want) picks.resize(want);
  }
  out.reserve(picks.size());
  for (auto it : picks) out.push_back(bind_entry(it, node, sec_per_byte, now));
  return out;
}

int ControlPlane::requeue(std::vector<BoundMigration> lost, NodeId avoid,
                          const std::function<bool(JobId)>& job_active, const AddPending& add,
                          SimTime now) {
  int count = 0;
  for (BoundMigration& m : lost) {
    // The node that just failed joins the history carried through binding,
    // so repeated requeues steadily narrow the candidate set.
    if (avoid.valid()) merge_avoid(m.avoid, avoid);
    bool requeued = false;
    for (const auto& [job, mode] : m.jobs) {
      if (job_active && !job_active(job)) continue;  // job finished meanwhile
      add(job, mode, m);
      requeued = true;
    }
    if (!requeued) continue;
    ++count;
    emitter_.requeue(now, m.block, avoid);
  }
  return count;
}

}  // namespace dyrs::core
