#include "rt/slave.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "rt/rt_trace.h"

namespace dyrs::rt {

RtSlave::Options RtSlave::resolve(Options options) {
  if (options.queue_capacity == 0) {
    // §III-B depth: block reads per heartbeat at the unloaded disk rate —
    // the same heuristic the sim slave applies, via the shared policy. A
    // batching slave widens to hold two drain batches (see QueueDepthPolicy).
    const auto heartbeat = std::chrono::duration_cast<std::chrono::microseconds>(
        options.heartbeat_interval);
    const auto block_time = static_cast<SimDuration>(
        static_cast<double>(options.reference_block) / options.disk_bandwidth * 1e6);
    options.queue_capacity = options.queue_depth.depth_for(
        static_cast<SimDuration>(heartbeat.count()), block_time, options.drain_batch);
  }
  return options;
}

RtSlave::RtSlave(Options options, std::function<void(std::vector<RtMigrationDone>)> on_complete,
                 std::function<std::vector<RtMigration>(NodeId, int)> pull,
                 std::function<void(NodeId, RtMigration)> on_failed)
    : options_(resolve(std::move(options))),
      epoch_(options_.trace_epoch == std::chrono::steady_clock::time_point{}
                 ? std::chrono::steady_clock::now()
                 : options_.trace_epoch),
      disk_(options_.disk_bandwidth),
      ssd_(options_.ssd_bandwidth),
      on_complete_(std::move(on_complete)),
      pull_(std::move(pull)),
      on_failed_(std::move(on_failed)),
      pull_latency_(options_.obs.histogram(
          "node" + std::to_string(options_.node.value()) + ".rt.pull_us")),
      gauge_memory_used_(options_.obs.gauge(
          "node" + std::to_string(options_.node.value()) + ".tier.memory.used_bytes")),
      gauge_ssd_used_(options_.obs.gauge(
          "node" + std::to_string(options_.node.value()) + ".tier.ssd.used_bytes")),
      ctr_demotions_(options_.obs.counter("dyrs.migrations.demoted")),
      estimator_({.ewma_alpha = options_.ewma_alpha,
                  .reference_block = options_.reference_block,
                  .fallback_rate = options_.disk_bandwidth,
                  .overdue_correction = true}),
      mem_tier_(Tier::Memory, options_.memory_capacity, gib_per_sec(100)),
      ssd_tier_(Tier::Ssd, options_.ssd_capacity, options_.ssd_bandwidth),
      buffers_(mem_tier_, &ssd_tier_, options_.tier,
               options_.memory_capacity == 0 ? mem_tier_.capacity()
                                             : options_.memory_capacity),
      emitter_(options_.obs,
               [this](obs::LifecycleRecord& r, int rank) {
                 // Worker-thread merge key: lseq from the lifecycle's cycle,
                 // tid node+1, per-thread monotonic tseq. Only the worker
                 // emits through this emitter, so no locking is needed.
                 r.stamp(rt_lseq(emit_cycle_, rank), options_.node.value() + 1,
                         static_cast<std::int64_t>(++tseq_));
               }),
      worker_([this](std::stop_token st) { worker_loop(st); }) {
  DYRS_CHECK(options_.queue_capacity >= 1);
  DYRS_CHECK(pull_ != nullptr);
  beat();
}

RtSlave::~RtSlave() { stop(); }

std::int64_t RtSlave::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void RtSlave::stop() {
  worker_.request_stop();
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void RtSlave::poke() {
  {
    std::lock_guard lock(mu_);
    poked_ = true;
  }
  cv_.notify_all();
}

bool RtSlave::cancel(BlockId block) {
  bool found = false;
  {
    std::lock_guard lock(mu_);
    if (active_block_ == block) {
      active_cancelled_.store(true, std::memory_order_relaxed);
      // Mark the batch member too (no-op on the per-block cadence) so the
      // post-drain flush skips it even if the read's final slice races.
      for (std::size_t i = 0; i < batch_blocks_.size(); ++i) {
        if (batch_blocks_[i] == block && batch_state_[i] == kBatchActive) {
          batch_state_[i] = kBatchCancelled;
        }
      }
      found = true;
    } else {
      // A batch member that has not consumed its first token yet can still
      // be cancelled individually; one that already finished its read
      // (kBatchDone, completion pending flush) cannot — reporting it
      // cancelled *and* completed would settle it twice at the master.
      for (std::size_t i = 0; i < batch_blocks_.size(); ++i) {
        if (batch_blocks_[i] == block && batch_state_[i] == kBatchQueued) {
          batch_state_[i] = kBatchCancelled;
          found = true;
          break;
        }
      }
      if (!found) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if (it->m.block == block) {
            queued_bytes_ -= it->m.size;
            queue_.erase(it);
            found = true;
            break;
          }
        }
      }
    }
  }
  // A cancel can land while the worker sleeps out a retry backoff; wake it
  // so the migration settles immediately instead of after the delay.
  if (found) cv_.notify_all();
  return found;
}

void RtSlave::set_read_fault_hook(std::function<bool(BlockId)> hook) {
  std::lock_guard lock(mu_);
  read_fault_hook_ = std::move(hook);
}

void RtSlave::beat() {
  if (!partitioned_.load(std::memory_order_relaxed)) {
    last_beat_us_.store(now_us(), std::memory_order_relaxed);
  }
}

void RtSlave::set_partitioned(bool on) {
  partitioned_.store(on, std::memory_order_relaxed);
  // Healing publishes a beat immediately so the master re-admits the node
  // without waiting for the worker's next loop iteration.
  if (!on) last_beat_us_.store(now_us(), std::memory_order_relaxed);
}

bool RtSlave::running() const {
  std::lock_guard lock(mu_);
  return !crashed_;
}

void RtSlave::crash() {
  {
    std::lock_guard lock(mu_);
    if (crashed_) return;
    crashed_ = true;
    // Interrupt the active read under the same lock that guards the
    // worker's pop (which resets the flag): either the worker already
    // popped — the store lands after its reset and cancels the read — or
    // it has not, and it will see `crashed_` before starting anything.
    active_cancelled_.store(true, std::memory_order_relaxed);
  }
  worker_.request_stop();
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // The process is gone: local queue and buffers die with it. Nothing is
  // reported back — reclaiming what the master bound here is the failure
  // detector's job, exactly as with a real machine.
  std::lock_guard lock(mu_);
  queue_.clear();
  queued_bytes_ = 0;
  buffers_.clear_all();
  data_.clear();
  batch_blocks_.clear();
  batch_state_.clear();
  in_flight_bytes_ = 0;
  active_block_ = BlockId::invalid();
}

void RtSlave::restart() {
  {
    std::lock_guard lock(mu_);
    if (!crashed_) return;
    crashed_ = false;
    // A restarted daemon has no history: estimate from the unloaded-disk
    // fallback until migrations complete again.
    estimator_ = core::MigrationEstimator({.ewma_alpha = options_.ewma_alpha,
                                           .reference_block = options_.reference_block,
                                           .fallback_rate = options_.disk_bandwidth,
                                           .overdue_correction = true});
    poked_ = false;
  }
  active_cancelled_.store(false, std::memory_order_relaxed);
  beat();
  worker_ = std::jthread([this](std::stop_token st) { worker_loop(st); });
}

void RtSlave::admit_settled_locked(const RtMigration& next,
                                   std::vector<core::BufferManager::Demotion>& demoted) {
  const BlockId block = next.m.block;
  const auto size = static_cast<std::size_t>(next.m.size);
  if (buffers_.contains(block)) {
    // A re-migrated block: fold the new references in; refresh the real
    // bytes only if the block still lives in the memory tier.
    buffers_.add_refs(block, next.m.jobs);
    if (buffers_.tier_of(block) == Tier::Memory) data_[block].assign(size, std::byte{});
    return;
  }
  const std::size_t before = demoted.size();
  if (buffers_.try_add(block, next.m.size, next.m.jobs, &demoted, next.cycle)) {
    // "Pin" the block: allocate and fill a real buffer, retained only
    // while some job references it. Residency makes it a demotion victim.
    buffers_.mark_resident(block);
    data_[block] = std::vector<std::byte>(size);
  }
  // A refused admission (pressure + RefuseAdmission) still settles the
  // migration — the block just is not buffered — and the attempt may still
  // have forced demotions out of the ssd cascade, so process them anyway.
  demotions_ += static_cast<long>(demoted.size() - before);
  if (ctr_demotions_) ctr_demotions_->add(static_cast<long>(demoted.size() - before));
  for (std::size_t i = before; i < demoted.size(); ++i) data_.erase(demoted[i].block);
  if (gauge_memory_used_) gauge_memory_used_->set(static_cast<double>(buffers_.used()));
  if (gauge_ssd_used_) gauge_ssd_used_->set(static_cast<double>(buffers_.ssd_used()));
}

void RtSlave::process_demotions(const std::vector<core::BufferManager::Demotion>& demoted) {
  for (const auto& d : demoted) {
    if (d.to == Tier::Ssd) {
      // Pace the spill onto the flash device; beats keep the node alive.
      ssd_.read(d.size, nullptr, [this] { beat(); });
    }
    // Demote events merge under the victim's own lifecycle (its admission
    // cycle): kRankDemote sorts strictly after that cycle's terminal event.
    emit_cycle_ = d.cookie != 0 ? d.cookie : 1;
    emitter_.demote(now_us(), d.block, options_.node, d.from, d.to, d.size);
  }
}

void RtSlave::drop_job(JobId job) {
  std::lock_guard lock(mu_);
  for (auto& m : queue_) m.m.jobs.erase(job);
  // Implicit eviction: buffers nobody references anymore are freed.
  for (BlockId block : buffers_.release_job(job)) data_.erase(block);
}

double RtSlave::sec_per_byte() const {
  std::lock_guard lock(mu_);
  return estimator_.per_byte_estimate();
}

Bytes RtSlave::bound_bytes() const {
  std::lock_guard lock(mu_);
  return in_flight_bytes_ + queued_bytes_;
}

std::size_t RtSlave::buffered_count() const {
  std::lock_guard lock(mu_);
  return buffers_.buffered_count();
}

Bytes RtSlave::buffered_bytes() const {
  std::lock_guard lock(mu_);
  return buffers_.used() + buffers_.ssd_used();
}

Bytes RtSlave::memory_tier_bytes() const {
  std::lock_guard lock(mu_);
  return buffers_.used();
}

Bytes RtSlave::ssd_tier_bytes() const {
  std::lock_guard lock(mu_);
  return buffers_.ssd_used();
}

long RtSlave::demotions() const {
  std::lock_guard lock(mu_);
  return demotions_;
}

std::vector<core::BufferManager::TierDecision> RtSlave::tier_log() const {
  std::lock_guard lock(mu_);
  return buffers_.tier_log();
}

long RtSlave::completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

long RtSlave::retries() const {
  std::lock_guard lock(mu_);
  return retries_;
}

long RtSlave::permanent_failures() const {
  std::lock_guard lock(mu_);
  return permanent_failures_;
}

void RtSlave::worker_loop(std::stop_token st) {
  while (!st.stop_requested()) {
    beat();
    RtMigration next{};
    std::vector<RtMigration> batch;
    {
      std::unique_lock lock(mu_);
      if (crashed_) return;
      // Refill the local queue from the master while there is space.
      const int space = options_.queue_capacity - static_cast<int>(queue_.size());
      if (space > 0) {
        lock.unlock();
        const auto pull_started = std::chrono::steady_clock::now();
        auto pulled = pull_(options_.node, space);
        if (pull_latency_) {
          pull_latency_->add(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - pull_started)
                                 .count());
        }
        lock.lock();
        if (crashed_) return;
        for (auto& m : pulled) {
          queued_bytes_ += m.m.size;
          queue_.push_back(std::move(m));
        }
      }
      if (queue_.empty()) {
        // Nothing to do: sleep until poked or stopped. Short timeout keeps
        // the pull loop responsive even if a poke races the wait.
        poked_ = false;
        cv_.wait_for(lock, std::chrono::milliseconds(2),
                     [&] { return poked_ || st.stop_requested(); });
        continue;
      }
      if (options_.drain_batch > 1) {
        // Throughput cadence: drain up to a batch and read it as one
        // token-bucket submission. Members stay individually cancellable
        // through batch_blocks_/batch_state_.
        const auto take = std::min<std::size_t>(
            static_cast<std::size_t>(options_.drain_batch), queue_.size());
        batch.reserve(take);
        Bytes total = 0;
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          queued_bytes_ -= batch.back().m.size;
          batch_blocks_.push_back(batch.back().m.block);
          batch_state_.push_back(kBatchQueued);
          total += batch.back().m.size;
        }
        in_flight_bytes_ = total;
        active_block_ = BlockId::invalid();
        active_cancelled_.store(false, std::memory_order_relaxed);
      } else {
        next = std::move(queue_.front());
        queue_.pop_front();
        queued_bytes_ -= next.m.size;
        in_flight_bytes_ = next.m.size;
        active_block_ = next.m.block;
        active_cancelled_.store(false, std::memory_order_relaxed);
      }
    }
    if (!batch.empty()) {
      drain_batch_run(std::move(batch), st);
    } else {
      run_migration(std::move(next), st);
    }
  }
}

void RtSlave::run_migration(RtMigration next, const std::stop_token& st) {
  emit_cycle_ = next.cycle;
  const BlockId block = next.m.block;
  const Bytes size = next.m.size;
  while (true) {
    emitter_.transfer_start(now_us(), block, options_.node, size, next.m.attempts + 1);

    const auto started = std::chrono::steady_clock::now();
    // Beat every disk slice: a long read must not look like a dead node.
    const bool finished = disk_.read(size, &active_cancelled_, [this] { beat(); });
    const double duration_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

    bool failed = false;
    std::vector<core::BufferManager::Demotion> demoted;
    {
      std::lock_guard lock(mu_);
      // The cancelled flag is re-checked even after a finished read: a
      // cancel that lands between the read completing and this lock being
      // reacquired has already returned true to the caller — the master
      // settled the migration as cancelled — so reporting a completion too
      // would settle it twice (and drive `outstanding_` negative).
      if (!finished || active_cancelled_.load(std::memory_order_relaxed)) {
        in_flight_bytes_ = 0;
        active_block_ = BlockId::invalid();
        return;  // missed read: learn nothing from it
      }
      if (read_fault_hook_ && read_fault_hook_(block)) {
        failed = true;  // time was spent but no usable data arrived
      } else {
        estimator_.on_complete(size, duration_s);
        if (!next.m.jobs.empty()) admit_settled_locked(next, demoted);
        ++completed_;
        in_flight_bytes_ = 0;
        active_block_ = BlockId::invalid();
      }
    }
    if (!demoted.empty()) {
      process_demotions(demoted);
      emit_cycle_ = next.cycle;
    }

    if (!failed) {
      RtMigrationDone done;
      done.block = block;
      done.node = options_.node;
      done.size = size;
      done.duration_s = duration_s;
      done.cycle = next.cycle;
      done.jobs = next.m.jobs;
      if (on_complete_) {
        std::vector<RtMigrationDone> report;
        report.push_back(std::move(done));
        on_complete_(std::move(report));
      }
      return;
    }

    ++next.m.attempts;
    if (options_.retry.exhausted(next.m.attempts)) {
      {
        std::lock_guard lock(mu_);
        ++permanent_failures_;
        in_flight_bytes_ = 0;
        active_block_ = BlockId::invalid();
      }
      emitter_.transfer_failed(now_us(), block, options_.node, next.m.attempts);
      if (on_failed_) on_failed_(options_.node, std::move(next));
      return;
    }

    // Capped exponential backoff on the worker thread, interruptible by
    // cancel (the migration then settles as cancelled) and by stop. The
    // block stays "active" so cancel() finds it mid-backoff.
    const SimDuration delay = options_.retry.backoff_for(next.m.attempts);
    {
      std::lock_guard lock(mu_);
      ++retries_;
    }
    emitter_.transfer_retry(now_us(), block, options_.node, next.m.attempts, delay);
    {
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, std::chrono::microseconds(delay), [&] {
        return st.stop_requested() || active_cancelled_.load(std::memory_order_relaxed);
      });
      if (st.stop_requested() || active_cancelled_.load(std::memory_order_relaxed)) {
        in_flight_bytes_ = 0;
        active_block_ = BlockId::invalid();
        return;
      }
    }
  }
}

void RtSlave::drain_batch_run(std::vector<RtMigration> batch, const std::stop_token& st) {
  const std::size_t n = batch.size();
  std::vector<Bytes> sizes(n);
  for (std::size_t i = 0; i < n; ++i) sizes[i] = batch[i].m.size;
  std::vector<double> durations(n, 0.0);

  disk_.read_batch(
      sizes, /*aborted=*/[&st] { return st.stop_requested(); },
      // Beat every disk slice: a long batch must not look like a dead node.
      /*on_slice=*/[this] { beat(); },
      /*on_start=*/
      [&](std::size_t i) {
        {
          std::lock_guard lock(mu_);
          if (batch_state_[i] == kBatchCancelled) return false;
          batch_state_[i] = kBatchActive;
          active_block_ = batch[i].m.block;
          active_cancelled_.store(false, std::memory_order_relaxed);
        }
        emit_cycle_ = batch[i].cycle;
        emitter_.transfer_start(now_us(), batch[i].m.block, options_.node, batch[i].m.size,
                                batch[i].m.attempts + 1);
        return true;
      },
      /*item_cancelled=*/
      [this] { return active_cancelled_.load(std::memory_order_relaxed); },
      /*on_done=*/
      [&](std::size_t i, double service_s) {
        std::lock_guard lock(mu_);
        // Same double-settle protection as the per-block path: a cancel
        // that raced the final slice already returned true to the caller,
        // so the member must settle as cancelled, not completed.
        if (active_cancelled_.load(std::memory_order_relaxed) ||
            batch_state_[i] == kBatchCancelled) {
          batch_state_[i] = kBatchCancelled;
        } else {
          batch_state_[i] = kBatchDone;
          durations[i] = service_s;
        }
        active_block_ = BlockId::invalid();
      });

  std::vector<RtMigrationDone> dones;
  std::vector<RtMigration> faulted;
  std::vector<core::BufferManager::Demotion> demoted;
  {
    std::lock_guard lock(mu_);
    if (crashed_) return;  // crash() already cleared the batch bookkeeping
    for (std::size_t i = 0; i < n; ++i) {
      if (batch_state_[i] != kBatchDone) continue;  // cancelled or abandoned
      const BlockId block = batch[i].m.block;
      if (read_fault_hook_ && read_fault_hook_(block)) {
        faulted.push_back(std::move(batch[i]));
        continue;
      }
      estimator_.on_complete(batch[i].m.size, durations[i]);
      if (!batch[i].m.jobs.empty()) admit_settled_locked(batch[i], demoted);
      ++completed_;
      RtMigrationDone done;
      done.block = block;
      done.node = options_.node;
      done.size = batch[i].m.size;
      done.duration_s = durations[i];
      done.cycle = batch[i].cycle;
      done.jobs = batch[i].m.jobs;
      dones.push_back(std::move(done));
    }
    batch_blocks_.clear();
    batch_state_.clear();
    in_flight_bytes_ = 0;
    active_block_ = BlockId::invalid();
  }

  // Spill pacing and demote events happen outside mu_, before the cycle's
  // coalesced report (mirroring the sim slave, which demotes at admission
  // time, ahead of the new block's completion record).
  if (!demoted.empty()) process_demotions(demoted);

  // One coalesced report for the whole drain cycle.
  if (!dones.empty() && on_complete_) on_complete_(std::move(dones));

  // Members that surfaced a transient fault leave the batch and retry on
  // the classic per-block path, reproducing the reference event sequence
  // (transfer_retry, backoff, fresh transfer_start) exactly. They retry
  // sequentially, so — as on the per-block cadence — at most one migration
  // is in the transfer phase and findable by cancel() at a time.
  for (RtMigration& f : faulted) {
    if (st.stop_requested()) return;
    ++f.m.attempts;
    if (options_.retry.exhausted(f.m.attempts)) {
      {
        std::lock_guard lock(mu_);
        if (crashed_) return;
        ++permanent_failures_;
      }
      emit_cycle_ = f.cycle;
      emitter_.transfer_failed(now_us(), f.m.block, options_.node, f.m.attempts);
      if (on_failed_) on_failed_(options_.node, std::move(f));
      continue;
    }
    const SimDuration delay = options_.retry.backoff_for(f.m.attempts);
    {
      std::lock_guard lock(mu_);
      if (crashed_) return;
      ++retries_;
      in_flight_bytes_ = f.m.size;
      active_block_ = f.m.block;
      active_cancelled_.store(false, std::memory_order_relaxed);
    }
    emit_cycle_ = f.cycle;
    emitter_.transfer_retry(now_us(), f.m.block, options_.node, f.m.attempts, delay);
    bool settled = false;
    {
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, std::chrono::microseconds(delay), [&] {
        return st.stop_requested() || active_cancelled_.load(std::memory_order_relaxed);
      });
      if (st.stop_requested() || active_cancelled_.load(std::memory_order_relaxed)) {
        in_flight_bytes_ = 0;
        active_block_ = BlockId::invalid();
        settled = true;  // cancelled/stopped mid-backoff
      }
    }
    if (!settled) run_migration(std::move(f), st);
  }
}

}  // namespace dyrs::rt
