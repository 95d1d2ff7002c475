// DYRS slave — the migration worker inside each DataNode (paper §III, §IV),
// sim backend.
//
// The decisions every slave shares (estimate, buffer admission and
// demotion counting, retry-or-fail, slave-side lifecycle events) live in
// core::SlaveCore. This wrapper adds the simulator's clock and I/O:
//  * a bounded local FIFO queue of bound migrations, deep enough that the
//    disk never idles between master pulls, shallow enough that binding
//    stays late (depth = ceil(heartbeat / unloaded block read time), §III-B);
//  * migrations run as disk flows — serialized by default, to avoid
//    seek-thrashing the disk (Ignem-style concurrent execution is a config
//    switch) — with retry backoff on simulator timers;
//  * the overdue estimator correction applied every heartbeat (§IV-A);
//  * buffer memory reserved before the read starts, stalling the queue
//    while admission is refused; implicit/explicit eviction and scavenging
//    of dead jobs' references.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>

#include "core/queue_depth.h"
#include "core/retry_policy.h"
#include "core/slave_core.h"
#include "core/tier_policy.h"
#include "core/types.h"
#include "dfs/datanode.h"
#include "obs/obs_context.h"
#include "sim/simulator.h"

namespace dyrs::core {

struct SlaveConfig {
  SimDuration heartbeat_interval = seconds(1);
  bool serialize_migrations = true;   // DYRS: true; Ignem: false
  /// Concurrency cap when serialize_migrations is false; 0 = unlimited.
  int max_concurrent_migrations = 0;
  double ewma_alpha = 0.3;
  bool overdue_correction = true;
  Bytes reference_block = 256 * kMiB;
  Bytes memory_limit = 0;             // cap for migrated data; 0 = node RAM
  double scavenge_threshold = 0.9;    // buffer fraction that triggers scavenge
  /// Local queue depth (§III-B) — shared with the rt backend via
  /// core::ControlPlaneConfig so one knob drives both.
  QueueDepthPolicy queue_depth;

  /// Transient-failure handling: a migration whose read hits an (injected)
  /// I/O error is retried locally with capped exponential backoff; after
  /// `retry.max_attempts` total tries the slave reports a permanent
  /// failure and the master re-targets the block at another replica.
  RetryPolicy retry;

  /// Tier admission/eviction policy for the node's buffer manager — shared
  /// with the rt backend via core::ControlPlaneConfig. Defaults preserve
  /// the single-tier behaviour (admit to memory, refuse on pressure).
  TierPolicy tier;
};

class MigrationSlave {
 public:
  struct Callbacks {
    /// A migration finished; the master registers the in-memory replica.
    std::function<void(const MigrationRecord&)> on_complete;
    /// Blocks were evicted from this slave's buffer; the master
    /// unregisters their in-memory replicas.
    std::function<void(NodeId, const std::vector<BlockId>&)> on_evicted;
    /// A migration exhausted its retry budget on this slave (persistent
    /// I/O errors); the master returns it to pending and re-targets it at
    /// a surviving replica instead of silently dropping it.
    std::function<void(NodeId, BoundMigration)> on_failed;
  };

  MigrationSlave(sim::Simulator& sim, dfs::DataNode& datanode, SlaveConfig config,
                 Callbacks callbacks);

  NodeId id() const { return datanode_.id(); }

  // --- queue ------------------------------------------------------------
  /// Local queue depth (excluding the in-flight migration), §III-B.
  int queue_capacity() const;
  int queued_count() const { return static_cast<int>(queue_.size()); }
  int in_flight_count() const { return static_cast<int>(active_.size()); }
  /// Slots the master may fill on the next pull.
  int free_slots() const;
  /// Bytes bound locally and not yet migrated (queued, in flight or in
  /// retry backoff); a running total kept on every transition.
  Bytes bound_bytes() const { return bound_bytes_; }

  /// Binds a migration to this slave (final, §III-A). Respects nothing —
  /// capacity discipline is the *master's* job on the pull path; eager
  /// strategies (Ignem) push without limit. Returns false when the block
  /// is already buffered here (only references were added and no local
  /// migration exists) so the master can keep its bound set consistent.
  bool enqueue(BoundMigration m);

  /// Cancels a queued or in-flight migration of `block`. Returns true if
  /// one was found. Reserved memory is released.
  bool cancel_block(BlockId block);

  bool has_local_migration(BlockId block) const { return local_migration(block) != nullptr; }

  /// Merges additional job references into a queued/in-flight migration of
  /// `block` (a later job requested a block already being migrated here).
  /// Returns false if the block is not bound locally.
  bool add_refs_if_local(BlockId block, const std::map<JobId, EvictionMode>& jobs);

  /// Drops `job`'s interest in a local migration of `block`; cancels the
  /// migration outright when no other job still wants it. Returns true if
  /// the migration was fully cancelled.
  bool cancel_for_job(BlockId block, JobId job);

  // --- heartbeat --------------------------------------------------------
  /// Periodic work: overdue estimator update, stalled-queue retry,
  /// threshold-triggered scavenging.
  void heartbeat();

  // --- eviction entry points (routed via master) ------------------------
  std::vector<BlockId> release_job(JobId job);
  std::vector<BlockId> on_block_read(BlockId block, JobId job);

  // --- failure ----------------------------------------------------------
  struct CrashReport {
    /// Migrations (queued, in flight, or awaiting retry) that died with
    /// the process — the master re-queues the ones whose jobs still live.
    std::vector<BoundMigration> lost;
    /// Blocks that had completed into the buffer (the master may have
    /// registered them as in-memory replicas; it must drop those now).
    std::vector<BlockId> buffered;
  };
  /// Process crash: queue, in-flight and backing-off migrations die,
  /// buffers are reclaimed.
  CrashReport crash();

  /// Migration of `block` bound here, wherever it currently sits (queued,
  /// in flight, or in retry backoff); nullptr when not bound locally.
  const BoundMigration* local_migration(BlockId block) const {
    return const_cast<MigrationSlave*>(this)->find_local(block);
  }

  MigrationEstimator& estimator() { return core_.estimator(); }
  const MigrationEstimator& estimator() const { return core_.estimator(); }
  BufferManager& buffers() { return core_.buffers(); }
  const BufferManager& buffers() const { return core_.buffers(); }
  const SlaveConfig& config() const { return config_; }
  dfs::DataNode& datanode() { return datanode_; }
  const dfs::DataNode& datanode() const { return datanode_; }

  /// Cluster-scheduler liveness oracle used by the scavenger. Unset means
  /// "assume every referencing job is still active".
  std::function<bool(JobId)> job_active_query;

  long migrations_completed() const { return core_.completed(); }
  bool stalled() const { return stalled_; }

  /// Transfer-phase trace events (mig_transfer_start/retry/failed) go
  /// through this context; the default no-op context disables them at the
  /// cost of one flag check per site.
  void set_obs(const obs::ObsContext& obs) { core_.set_obs(obs); }

  /// Blocks demoted downward by capacity pressure (memory -> ssd -> disk).
  long demotions() const { return core_.demotions(); }

  // --- retry statistics -------------------------------------------------
  /// Migrations currently waiting out a retry backoff.
  int backoff_count() const { return static_cast<int>(backoff_.size()); }
  /// Transient I/O errors absorbed by a local retry.
  long retries() const { return core_.retries(); }
  /// Migrations that exhausted the retry budget and were reported failed.
  long permanent_failures() const { return core_.permanent_failures(); }

 private:
  struct Active {
    BoundMigration m;
    SimTime started_at = 0;
    cluster::Disk::FlowId flow = 0;
  };
  struct Backoff {
    BoundMigration m;
    sim::EventHandle timer;
  };

  BoundMigration* find_local(BlockId block);
  void maybe_start();
  bool start_migration(BoundMigration m);
  /// Emits mig_demote events and reports tier-bottom (disk) demotions as
  /// evictions to the master.
  void process_demotions(const std::vector<BufferManager::Demotion>& demoted);
  void finish_migration(BlockId block, SimTime finished);
  void fail_migration(BlockId block);
  void retry_now(BlockId block);
  void report_evicted(const std::vector<BlockId>& evicted);

  sim::Simulator& sim_;
  dfs::DataNode& datanode_;
  SlaveConfig config_;
  Callbacks callbacks_;
  SlaveCore core_;

  std::deque<BoundMigration> queue_;
  std::unordered_map<BlockId, Active> active_;
  std::unordered_map<BlockId, Backoff> backoff_;
  Bytes bound_bytes_ = 0;  // sizes across queue_, active_ and backoff_
  bool stalled_ = false;
};

}  // namespace dyrs::core
