// SlaveCore — the DYRS slave's decisions, shared by both backends
// (paper §III-B, §IV-A): the per-node EWMA migration-time estimate and its
// reset on restart, buffer admission with the count of demotions it
// forces, the retry-or-fail decision for a faulted read, the slave-side
// lifecycle events, the tier gauges and the demotion counter.
//
// Single-threaded. Each backend keeps only its clock, its I/O, its local
// queue and its locking: the sim MigrationSlave runs disk flows and timers
// and stalls its queue on a refused admission; the rt RtSlave reads on a
// worker thread and calls the core under its mutex, except for the
// emission-only calls (transfer_start, demote), which only that worker makes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "core/buffer_manager.h"
#include "core/estimator.h"
#include "core/lifecycle.h"
#include "core/retry_policy.h"
#include "core/tier_policy.h"
#include "core/tier_store.h"
#include "core/types.h"
#include "obs/obs_context.h"

namespace dyrs::core {

class SlaveCore {
 public:
  /// `memory` and `ssd` (may be null) are the node's buffered tiers;
  /// `memory_limit` caps migrated data in memory (0: the tier's capacity).
  SlaveCore(NodeId node, const MigrationEstimator::Options& estimator, TierStore& memory,
            TierStore* ssd, const TierPolicy& tier, Bytes memory_limit,
            const RetryPolicy& retry)
      : node_(node), retry_(retry), estimator_(estimator),
        buffers_(memory, ssd, tier, memory_limit) {}

  /// Installs the tier gauges, the demotion counter and the lifecycle
  /// emitter, with the backend's merge-key stamper (none for the sim).
  void set_obs(const obs::ObsContext& obs, LifecycleEmitter::Stamper stamper = nullptr) {
    emitter_ = LifecycleEmitter(obs, std::move(stamper));
    const std::string prefix = "node" + std::to_string(node_.value()) + ".tier.";
    gauge_memory_used_ = obs.gauge(prefix + "memory.used_bytes");
    gauge_ssd_used_ = obs.gauge(prefix + "ssd.used_bytes");
    ctr_demotions_ = obs.counter("dyrs.migrations.demoted");
  }

  MigrationEstimator& estimator() { return estimator_; }
  const MigrationEstimator& estimator() const { return estimator_; }
  BufferManager& buffers() { return buffers_; }
  const BufferManager& buffers() const { return buffers_; }

  /// A restarted daemon has no history: estimates fall back to the
  /// unloaded-disk rate until migrations complete again.
  void reset_estimator() { estimator_.reset(); }

  /// Admits `block` to the policy's tier, counting the demotions it forced
  /// and appending them to `demoted` (to process even when refused).
  /// `cookie` is echoed in any later demotion of the block.
  bool admit(BlockId block, Bytes size, const std::map<JobId, EvictionMode>& jobs,
             std::vector<BufferManager::Demotion>& demoted, std::uint64_t cookie = 0) {
    const std::size_t before = demoted.size();
    const bool admitted = buffers_.try_add(block, size, jobs, &demoted, cookie);
    const auto forced = static_cast<long>(demoted.size() - before);
    demotions_ += forced;
    if (ctr_demotions_ != nullptr) ctr_demotions_->add(forced);
    refresh_gauges();
    return admitted;
  }

  /// A read finished in `transfer_s`: the estimator learns it, the block
  /// (if buffered) becomes a demotion candidate, the completion counts.
  void complete(BlockId block, Bytes size, double transfer_s) {
    estimator_.on_complete(size, transfer_s);
    buffers_.mark_resident(block);
    ++completed_;
  }

  /// A read of `m` failed: consumes an attempt and returns the backoff
  /// before the local retry (mig_transfer_retry), or nullopt once the
  /// budget is spent (mig_transfer_failed; the caller tells the master).
  std::optional<SimDuration> fail_attempt(SimTime at, BoundMigration& m) {
    ++m.attempts;
    if (retry_.exhausted(m.attempts)) {
      ++permanent_failures_;
      DYRS_LOG(Debug, "slave") << "node " << node_ << " giving up on block " << m.block
                               << " after " << m.attempts << " attempts";
      emitter_.transfer_failed(at, m.block, node_, m.attempts);
      return std::nullopt;
    }
    ++retries_;
    const SimDuration delay = retry_.backoff_for(m.attempts);
    emitter_.transfer_retry(at, m.block, node_, m.attempts, delay);
    return delay;
  }

  void transfer_start(SimTime at, const BoundMigration& m) {
    emitter_.transfer_start(at, m.block, node_, m.size, m.attempts + 1);
  }
  void demote(SimTime at, const BufferManager::Demotion& d) {
    emitter_.demote(at, d.block, node_, d.from, d.to, d.size);
  }

  /// Publishes the buffer's per-tier occupancy to the gauges.
  void refresh_gauges() {
    if (gauge_memory_used_ == nullptr) return;
    gauge_memory_used_->set(static_cast<double>(buffers_.used()));
    gauge_ssd_used_->set(static_cast<double>(buffers_.ssd_used()));
  }

  long completed() const { return completed_; }
  long retries() const { return retries_; }
  long permanent_failures() const { return permanent_failures_; }
  /// Blocks demoted downward by capacity pressure (memory -> ssd -> disk).
  long demotions() const { return demotions_; }

 private:
  NodeId node_;
  RetryPolicy retry_;
  MigrationEstimator estimator_;
  BufferManager buffers_;
  LifecycleEmitter emitter_;
  obs::Gauge* gauge_memory_used_ = nullptr;
  obs::Gauge* gauge_ssd_used_ = nullptr;
  obs::Counter* ctr_demotions_ = nullptr;
  long completed_ = 0;
  long retries_ = 0;
  long permanent_failures_ = 0;
  long demotions_ = 0;
};

}  // namespace dyrs::core
