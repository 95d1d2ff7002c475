// ControlPlane — the backend-agnostic migration policy engine.
//
// Owns the *pending* half of the master's soft state (the indexed queue of
// not-yet-bound migrations) and every policy decision over it: merge-or-
// create on enqueue, Algorithm 1 earliest-finish targeting, binding-order
// selection (FIFO / SmallestJobFirst), eligibility under the configured
// binding mode, and requeue-with-avoid-list semantics after failures. It
// also owns the lifecycle trace vocabulary via its LifecycleEmitter.
//
// Backends stay thin drivers that supply mechanism, not policy:
//   * the sim master (src/dyrs) supplies SimTime, event-handle timers, the
//     namenode (replica lookup, memory-replica registry) and owns the
//     *bound* state (block -> node map, slave queues);
//   * the rt master (src/rt) supplies steady_clock microseconds, a mutex
//     and worker threads, and owns bound state as the slaves' local queues.
//
// All calls assume external synchronization (the sim event loop or the rt
// master mutex); the core itself is single-threaded by design.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/binding.h"
#include "core/failure_detection.h"
#include "core/lifecycle.h"
#include "core/pending_queue.h"
#include "core/queue_depth.h"
#include "core/replica_selector.h"
#include "core/retry_policy.h"
#include "core/tier_policy.h"
#include "core/types.h"

namespace dyrs::core {

struct ControlPlaneConfig {
  Binding binding = Binding::LateTargeted;
  Ordering ordering = Ordering::Fifo;
  /// When `mig_target` is emitted: at every retarget pass that changes an
  /// entry's target (sim profile — the full decision history), or once at
  /// bind time for the decision that stuck (rt profile — intermediate
  /// passes are timing-dependent and would make event counts
  /// nondeterministic across runs).
  enum class TargetTrace { AtRetarget, AtBind };
  TargetTrace target_trace = TargetTrace::AtRetarget;
  /// Slave local-queue depth (§III-B). The control plane itself never
  /// binds more than a slave's advertised free slots; both backend drivers
  /// derive those slots from this shared policy.
  QueueDepthPolicy queue_depth;
  /// Slave-local retry budget for transient read failures. Like
  /// queue_depth, both backend drivers forward it to slaves that left
  /// their own retry at the default — one knob drives both.
  RetryPolicy retry;
  /// Failure-detector cadence (heartbeat age -> Suspect -> Dead). The rt
  /// master's monitor thread applies it directly; the sim backend's
  /// equivalent windows ride on the dfs heartbeat machinery.
  FailureDetection failure_detection;
  /// Storage-tier admission policy (admit tier, watermark pair, pressure
  /// response). Both backend buffer managers evaluate it with the same
  /// core::BufferManager code, so tier decisions are identical across
  /// backends given the same admission sequence.
  TierPolicy tier;
};

class ControlPlane {
 public:
  explicit ControlPlane(ControlPlaneConfig config = {}) : config_(config) {}

  void set_emitter(LifecycleEmitter emitter) { emitter_ = std::move(emitter); }
  LifecycleEmitter& emitter() { return emitter_; }
  PendingQueue& queue() { return queue_; }
  const PendingQueue& queue() const { return queue_; }
  const ControlPlaneConfig& config() const { return config_; }

  struct Enqueued {
    PendingMigration* entry = nullptr;
    bool created = false;
  };
  /// Adds `block` to the pending queue, or merges the job (and avoid
  /// history) into an existing entry — in which case `size` and `replicas`
  /// are ignored. Emits `mig_enqueue` per call: with the full entry fields
  /// for created entries, and a `merged=1` marker when the job joined an
  /// already-open entry (so trace consumers see multi-job demand).
  Enqueued enqueue(JobId job, EvictionMode mode, BlockId block, Bytes size,
                   std::vector<NodeId> replicas, const std::vector<NodeId>& avoid, SimTime now);

  /// Algorithm 1 pass: sets each pending entry's earliest-finish target.
  /// `snapshots` must be in the backend's deterministic node order (both
  /// drivers precompute a sorted order at construction — the slave set is
  /// fixed, so no per-pass sort is needed). Under LateTargeted the pass
  /// also rebuilds the per-node bind lists.
  TargetingStats retarget(const std::vector<SlaveSnapshot>& snapshots, SimTime now);

  /// Binds up to `free_slots` pending entries eligible for `node` under
  /// the configured binding mode (target match for LateTargeted; replica
  /// holder not on the avoid list for LateAnyReplica; nothing for
  /// EagerRandom — eager strategies pick nodes themselves via bind_entry),
  /// in the configured order. Walks only `node`'s bind list, so a pull
  /// costs what it binds plus the stale candidates it drops, not the queue.
  /// Emits `mig_bind` (and `mig_target` in AtBind mode) per binding.
  std::vector<BoundMigration> bind_for(NodeId node, int free_slots, double sec_per_byte,
                                       SimTime now);

  /// Binds one specific entry to `node` and removes it from the queue.
  BoundMigration bind_entry(PendingQueue::iterator it, NodeId node, double sec_per_byte,
                            SimTime now);

  /// Re-queues lost migrations for their still-active jobs. `avoid` (when
  /// valid) joins each migration's carried avoid history before `add` is
  /// invoked per (job, migration) — the driver supplies insertion because
  /// it may resolve replicas or short-circuit (block already in memory).
  /// Emits `mig_requeue` per migration that was re-added for at least one
  /// job; returns how many were.
  using AddPending = std::function<void(JobId, EvictionMode, const BoundMigration&)>;
  int requeue(std::vector<BoundMigration> lost, NodeId avoid,
              const std::function<bool(JobId)>& job_active, const AddPending& add, SimTime now);

  /// (block, node) pairs in bind order. Per-node projections of this log
  /// are deterministic on both backends; the sim-vs-rt differential test
  /// compares them directly.
  const std::vector<std::pair<BlockId, NodeId>>& binding_log() const { return binding_log_; }

 private:
  /// A bind candidate: the entry pushed for `block` with push stamp `seq`.
  struct Candidate {
    BlockId block;
    std::uint64_t seq = 0;
  };
  /// One node's candidates in queue order. LateTargeted lists hold the
  /// entries the last pass targeted at the node; LateAnyReplica lists the
  /// entries the node holds a replica of, appended at enqueue. Entries
  /// before `head` are spent. A candidate goes stale when its entry is
  /// erased or re-pushed (seq mismatch), retargeted (only a pass can, and
  /// the pass rebuilds the lists), or comes to avoid the node — each
  /// permanent, so stale candidates are dropped on sight.
  struct BindList {
    std::vector<Candidate> entries;
    std::size_t head = 0;
  };

  BindList& bind_list(NodeId node) {
    DYRS_CHECK_MSG(node.valid(), "bind list for an invalid node");
    const auto n = static_cast<std::size_t>(node.value());
    if (n >= bind_lists_.size()) bind_lists_.resize(n + 1);
    return bind_lists_[n];
  }
  void clear_bind_lists();
  /// Appends `pm` to its target's list (if it has a target).
  void list_target(const PendingMigration& pm);
  /// Refills every bind list from the entries' targets, in queue order.
  void rebuild_target_lists();
  /// The live queue entry behind `c` if it may still bind to `node`, else end().
  PendingQueue::iterator eligible(NodeId node, const Candidate& c);

  ControlPlaneConfig config_;
  PendingQueue queue_;
  TargetScorer scorer_;
  std::vector<BindList> bind_lists_;  // by node value
  LifecycleEmitter emitter_;
  std::vector<std::pair<BlockId, NodeId>> binding_log_;
};

}  // namespace dyrs::core
