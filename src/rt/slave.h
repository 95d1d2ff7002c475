// Real-threaded DYRS slave.
//
// One worker thread per slave serializes migrations exactly like the
// simulated slave: take from the local FIFO queue, read the block from the
// throttled disk into a freshly allocated pinned buffer, hand the token
// service time to the shared core::SlaveCore, report completion. The
// local queue is bounded; the worker pulls from the master on every loop
// iteration that finds queue space — the late-binding protocol of §III-A1
// with real threads and condition variables.
//
// The worker has one drain routine. Each cycle it takes up to
// `drain_batch` queued migrations (one by default), submits their reads to
// the token bucket together (ThrottledDisk::read_batch — sleeps amortized
// across the batch, completions as tokens arrive), and reports one
// coalesced `on_complete` vector for the cycle. Cancellation, injected
// faults and crashes act on individual batch members; per-block trace
// emission does not depend on the batch size, so merged span sequences are
// identical at every `drain_batch`.
//
// The decisions are core::SlaveCore's, the same ones the sim slave makes;
// every call into it is under mu_ except the transfer-start and demote
// emissions, which only the worker makes. A read that faults (the
// FaultSurface read-fault hook) backs off on the worker thread,
// interruptible by cancel/stop, and re-enters the drain routine as a batch
// of one; a spent retry budget goes back to the master via `on_failed`.
// Settled blocks are admitted over two counting tiers (memory, ssd);
// memory -> ssd spills are paced on a second ThrottledDisk (the flash
// device), and ssd -> disk demotions drop the buffer.
//
// The slave also exposes the rt failure surface: the worker publishes a
// wall-clock heartbeat every loop iteration and every disk slice;
// partitions silence it, crash() tears the worker down abandoning
// in-flight work, and restart() brings a fresh daemon back. The master's
// failure detector turns silent heartbeats into declared-dead reclaims.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "core/queue_depth.h"
#include "core/retry_policy.h"
#include "core/slave_core.h"
#include "core/tier_policy.h"
#include "core/tier_store.h"
#include "core/types.h"
#include "obs/obs_context.h"
#include "rt/throttled_disk.h"

namespace dyrs::rt {

struct RtMigration {
  /// The control plane's binding (jobs, replicas, avoid history, attempt
  /// count all ride along so requeues preserve them).
  core::BoundMigration m;
  /// Per-block migration-cycle number assigned by the master; trace events
  /// for this lifecycle derive their merge key (`lseq`) from it.
  std::uint64_t cycle = 1;
};

struct RtMigrationDone {
  BlockId block;
  NodeId node;
  Bytes size = 0;
  double duration_s = 0;
  std::uint64_t cycle = 1;
  /// Jobs that referenced the migration, for per-job accounting.
  std::map<JobId, core::EvictionMode> jobs;
};

class RtSlave {
  /// Runs `read` on the slave core under mu_ (the thread-safe accessors).
  template <typename F>
  auto locked(F read) const {
    std::lock_guard lock(mu_);
    return read(core_);
  }

 public:
  struct Options {
    NodeId node;
    Rate disk_bandwidth = mib_per_sec(100);
    /// Flash-tier spill bandwidth: paces memory -> ssd demotion writes.
    Rate ssd_bandwidth = mib_per_sec(500);
    /// Buffered-tier capacities for the node's buffer manager. 0 (the
    /// default) means unbounded, which preserves the single-tier
    /// behaviour: every admission succeeds and nothing is demoted.
    Bytes memory_capacity = 0;
    Bytes ssd_capacity = 0;
    /// Tier admission/eviction policy — shared with the sim backend via
    /// core::ControlPlaneConfig so one knob drives both.
    core::TierPolicy tier;
    /// Local queue depth. 0 (the default) derives it from `queue_depth`,
    /// `heartbeat_interval` and the unloaded reference-block read time —
    /// the same §III-B heuristic the sim slave applies.
    int queue_capacity = 0;
    /// Shared depth policy, forwarded by RtMaster from its
    /// ControlPlaneConfig when `queue_capacity` is 0.
    core::QueueDepthPolicy queue_depth;
    /// Migrations drained (and read) per worker cycle as one token-bucket
    /// submission with one coalesced completion report; values below 1
    /// mean 1, the per-block cadence. Forwarded by RtMaster from its
    /// ExchangeConfig. A derived queue capacity
    /// (`queue_capacity == 0`) widens to hold two batches so the disk
    /// never idles between batched pulls.
    int drain_batch = 1;
    /// How often the worker publishes a wall-clock heartbeat (also the
    /// pull cadence the derived queue depth assumes).
    std::chrono::milliseconds heartbeat_interval{25};
    double ewma_alpha = 0.3;
    Bytes reference_block = mib(8);
    /// Local retry budget for transient read failures (shared policy core).
    core::RetryPolicy retry;
    /// Observability handle shared with the master. Counter bumps are safe
    /// from the worker thread; tracing additionally requires a thread-safe
    /// sink (ThreadLocalBufferSink) — events are stamped with the rt merge
    /// key, not emission order.
    obs::ObsContext obs;
    /// Timestamp origin for trace events (shared with the master so all
    /// emitters agree); the slave's construction time when left default.
    std::chrono::steady_clock::time_point trace_epoch{};
  };

  /// `on_complete` and `on_failed` run on the slave's worker thread.
  /// `on_complete` receives every settlement the current drain cycle
  /// produced — at most `drain_batch` elements.
  /// `pull` is invoked (also on the worker thread) whenever there is queue
  /// space; it should return the migrations the master binds to this slave.
  /// `on_failed` reports a migration that exhausted the retry budget.
  RtSlave(Options options, std::function<void(std::vector<RtMigrationDone>)> on_complete,
          std::function<std::vector<RtMigration>(NodeId, int)> pull,
          std::function<void(NodeId, RtMigration)> on_failed = nullptr);
  ~RtSlave();
  RtSlave(const RtSlave&) = delete;
  RtSlave& operator=(const RtSlave&) = delete;

  NodeId id() const { return options_.node; }
  ThrottledDisk& disk() { return disk_; }

  /// Thread-safe: current migration-time estimate in sec/byte.
  double sec_per_byte() const {
    return locked([](auto& c) { return c.estimator().per_byte_estimate(); });
  }
  /// Estimator reference block size (for est_s_per_block samples).
  Bytes reference_block() const { return options_.reference_block; }
  /// Bytes bound locally (queued + in flight).
  Bytes bound_bytes() const;

  /// Wakes the worker to pull for work (e.g. after new pending arrived).
  void poke();

  /// Cancels a local migration of `block` (missed read): removes it from
  /// the queue, or interrupts it before or during its read or mid-backoff
  /// if it belongs to the cycle being drained. Returns true if anything
  /// was cancelled. Thread-safe.
  bool cancel(BlockId block);

  /// Read-fault hook (the FaultSurface; tests and RtFaultInjector):
  /// consulted after every finished read; returning true fails the read as
  /// if the device surfaced an I/O error, exercising the local retry path.
  /// Thread-safe; pass nullptr to clear.
  void set_read_fault_hook(std::function<bool(BlockId)> hook);

  // --- failure surface (driven by RtFaultInjector / RtMaster) -----------
  /// Wall-clock microseconds (on the shared trace epoch) of the last
  /// published heartbeat. The worker beats every loop iteration and every
  /// disk slice; a partitioned or crashed slave goes silent.
  std::int64_t last_heartbeat_us() const {
    return last_beat_us_.load(std::memory_order_relaxed);
  }

  /// Heartbeat partition: the daemon keeps working but its heartbeats no
  /// longer reach the master. Healing publishes a beat immediately.
  void set_partitioned(bool on);
  bool partitioned() const { return partitioned_.load(std::memory_order_relaxed); }

  /// Process crash: tears the worker thread down, abandoning in-flight
  /// work without reporting it (queued migrations, buffers and injected
  /// faults die with the process). The master's failure detector is
  /// responsible for reclaiming what was bound here. Idempotent.
  void crash();

  /// Restarts a crashed daemon: fresh worker thread, estimator reset to
  /// the unloaded-disk fallback (a restarted process has no history), and
  /// an immediate heartbeat so the master re-admits the node.
  void restart();

  /// False between crash() and restart().
  bool running() const;

  /// Drops `job`'s references: from queued migrations (they still run for
  /// the remaining jobs, or unreferenced if none remain) and from buffered
  /// blocks, freeing buffers nobody references anymore. Thread-safe.
  void drop_job(JobId job);

  // --- thread-safe reads of the slave core ------------------------------
  /// Buffered blocks migrated so far (copies real bytes into real memory).
  std::size_t buffered_count() const {
    return locked([](auto& c) { return c.buffers().buffered_count(); });
  }
  Bytes buffered_bytes() const {
    return locked([](auto& c) { return c.buffers().used() + c.buffers().ssd_used(); });
  }
  /// Per-tier occupancy of the buffer manager.
  Bytes memory_tier_bytes() const { return locked([](auto& c) { return c.buffers().used(); }); }
  Bytes ssd_tier_bytes() const { return locked([](auto& c) { return c.buffers().ssd_used(); }); }
  /// Blocks demoted downward by capacity pressure (memory -> ssd -> disk).
  long demotions() const { return locked([](auto& c) { return c.demotions(); }); }
  /// Copy of the buffer manager's admission/demotion decision log — the
  /// sim-vs-rt differential test compares per-node projections of this.
  std::vector<core::BufferManager::TierDecision> tier_log() const {
    return locked([](auto& c) { return c.buffers().tier_log(); });
  }
  long completed() const { return locked([](auto& c) { return c.completed(); }); }
  /// Transient failures absorbed by a local retry.
  long retries() const { return locked([](auto& c) { return c.retries(); }); }
  /// Migrations that exhausted the retry budget and were reported failed.
  long permanent_failures() const { return locked([](auto& c) { return c.permanent_failures(); }); }

  /// Asks the worker to stop after the current slice and joins it.
  void stop();

 private:
  /// Applies the derived queue capacity (§III-B) when the caller left it
  /// 0 — resolved before the worker starts, so no synchronization needed.
  static Options resolve(Options options);

  /// State of one member of the drain cycle being read, guarded by mu_ so
  /// cancel() can act on individual members mid-cycle.
  enum class MemberState : std::uint8_t {
    Queued,     // waiting for its first token, or sleeping out a backoff
    Active,     // consuming tokens now
    Done,       // read finished; completion pending flush
    Cancelled,  // cancelled before or during its read
  };
  struct Member {
    BlockId block;
    MemberState state = MemberState::Queued;
  };

  void worker_loop(std::stop_token st);
  /// The drain routine: submits the cycle's reads (members_ mirrors
  /// `batch`) to the token bucket together, flushes one coalesced
  /// completion report, then backs off each member that surfaced a
  /// transient fault and re-runs it as a batch of one.
  void drain(std::vector<RtMigration> batch, const std::stop_token& st);
  /// Takes the core's retry-or-fail decision for a faulted read of `f`:
  /// reports a permanent failure once the retry budget is spent, else
  /// sleeps out the backoff with `f` as the one queued member. True means
  /// re-read it (members_ is then its batch of one); false means it
  /// settled (failed, cancelled, or stopped).
  bool back_off(RtMigration& f, const std::stop_token& st);
  /// Admits a settled migration through the core (or folds new refs into
  /// an already-buffered block) and keeps its real bytes while it is in
  /// memory, appending any demotions it forced to `demoted`. Caller holds
  /// mu_ and processes `demoted` after releasing it.
  void admit_settled_locked(const RtMigration& next,
                            std::vector<core::BufferManager::Demotion>& demoted);
  /// Paces memory -> ssd spills on the flash device and emits the
  /// mig_demote lifecycle events. Worker thread, outside mu_.
  void process_demotions(const std::vector<core::BufferManager::Demotion>& demoted);
  /// Publishes a heartbeat unless partitioned.
  void beat();

  std::int64_t now_us() const;

  Options options_;
  const std::chrono::steady_clock::time_point epoch_;
  ThrottledDisk disk_;
  /// The flash spill device: demotion writes are paced here, outside mu_.
  ThrottledDisk ssd_;
  std::function<void(std::vector<RtMigrationDone>)> on_complete_;
  std::function<std::vector<RtMigration>(NodeId, int)> pull_;
  std::function<void(NodeId, RtMigration)> on_failed_;
  /// Wall-clock latency of each master pull, recorded by the worker thread
  /// only (histograms are single-writer); null when metrics are off.
  obs::Histogram* pull_latency_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<RtMigration> queue_;
  Bytes queued_bytes_ = 0;  // sizes across queue_
  Bytes in_flight_bytes_ = 0;
  /// Members of the cycle being drained (empty between cycles); under mu_.
  std::vector<Member> members_;
  /// Capacity accounting for the buffered tiers (mutated under mu_ through
  /// the core's buffer manager); capacity 0 reads as unbounded.
  core::CountingTier mem_tier_;
  core::CountingTier ssd_tier_;
  /// Estimator, buffer manager, counters and emitter; under mu_ except
  /// for the worker's emission-only calls (see the header comment).
  core::SlaveCore core_;
  /// Real bytes for *memory-resident* blocks (under mu_). A demotion spills
  /// or drops the in-memory copy, so ssd-tier blocks carry no bytes here.
  std::unordered_map<BlockId, std::vector<std::byte>> data_;
  std::function<bool(BlockId)> read_fault_hook_;  // under mu_
  bool crashed_ = false;                          // under mu_
  std::atomic<bool> partitioned_{false};
  std::atomic<std::int64_t> last_beat_us_{0};
  bool poked_ = false;
  std::uint64_t tseq_ = 0;        // trace merge-key sequence; worker thread only
  std::uint64_t emit_cycle_ = 1;  // cycle the core's emitter stamps with; worker thread only

  std::jthread worker_;  // last member: joins before the rest is destroyed
};

}  // namespace dyrs::rt
