#include "rt/slave.h"

#include <algorithm>
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
    // A member of the cycle being drained is cancellable until its read
    // finishes: queued (no token yet, or sleeping out a retry backoff) or
    // active (dropped at its next slice). One that already finished (Done,
    // completion pending flush) is not — reporting it cancelled *and*
    // completed would settle it twice at the master.
    for (Member& m : members_) {
      if (m.block == block &&
          (m.state == MemberState::Queued || m.state == MemberState::Active)) {
        m.state = MemberState::Cancelled;
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
  }
  // The stop request interrupts the active read at its next slice (the
  // token bucket polls it) and any retry backoff (its wait predicate).
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
  members_.clear();
  in_flight_bytes_ = 0;
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
  const auto batch_cap = static_cast<std::size_t>(std::max(1, options_.drain_batch));
  while (!st.stop_requested()) {
    beat();
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
      // Drain up to a batch and read it as one token-bucket submission.
      // Members stay individually cancellable through members_.
      const std::size_t take = std::min(batch_cap, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        queued_bytes_ -= batch.back().m.size;
        in_flight_bytes_ += batch.back().m.size;
        members_.push_back({batch.back().m.block, MemberState::Queued});
      }
    }
    drain(std::move(batch), st);
  }
}

void RtSlave::drain(std::vector<RtMigration> batch, const std::stop_token& st) {
  const std::size_t n = batch.size();
  std::vector<Bytes> sizes(n);
  for (std::size_t i = 0; i < n; ++i) sizes[i] = batch[i].m.size;
  std::vector<double> service_s(n, 0.0);

  disk_.read_batch(
      sizes, /*aborted=*/[&st] { return st.stop_requested(); },
      // Beat every disk slice: a long read must not look like a dead node.
      /*on_slice=*/[this] { beat(); },
      /*on_start=*/
      [&](std::size_t i) {
        {
          std::lock_guard lock(mu_);
          if (members_[i].state == MemberState::Cancelled) return false;
          members_[i].state = MemberState::Active;
        }
        emit_cycle_ = batch[i].cycle;
        emitter_.transfer_start(now_us(), batch[i].m.block, options_.node, batch[i].m.size,
                                batch[i].m.attempts + 1);
        return true;
      },
      /*item_cancelled=*/
      [this](std::size_t i) {
        std::lock_guard lock(mu_);
        return members_[i].state == MemberState::Cancelled;
      },
      /*on_done=*/
      [&](std::size_t i, double s) {
        std::lock_guard lock(mu_);
        // A cancel that raced the final slice already returned true to the
        // caller — the master settled the migration as cancelled — so the
        // member must not also report a completion.
        if (members_[i].state != MemberState::Active) return;
        members_[i].state = MemberState::Done;
        service_s[i] = s;
      });

  std::vector<RtMigrationDone> dones;
  std::vector<RtMigration> faulted;
  std::vector<core::BufferManager::Demotion> demoted;
  {
    std::lock_guard lock(mu_);
    if (crashed_) return;  // crash() clears the bookkeeping once joined
    for (std::size_t i = 0; i < n; ++i) {
      if (members_[i].state != MemberState::Done) continue;  // cancelled or abandoned
      const BlockId block = batch[i].m.block;
      if (read_fault_hook_ && read_fault_hook_(block)) {
        faulted.push_back(std::move(batch[i]));  // time spent, no usable data
        continue;
      }
      // The estimator learns token-bucket service time, not wall time.
      estimator_.on_complete(batch[i].m.size, service_s[i]);
      if (!batch[i].m.jobs.empty()) admit_settled_locked(batch[i], demoted);
      ++completed_;
      RtMigrationDone done;
      done.block = block;
      done.node = options_.node;
      done.size = batch[i].m.size;
      done.duration_s = service_s[i];
      done.cycle = batch[i].cycle;
      done.jobs = batch[i].m.jobs;
      dones.push_back(std::move(done));
    }
    members_.clear();
    in_flight_bytes_ = 0;
  }

  // Spill pacing and demote events happen outside mu_, before the cycle's
  // coalesced report (mirroring the sim slave, which demotes at admission
  // time, ahead of the new block's completion record).
  if (!demoted.empty()) process_demotions(demoted);

  // One coalesced report for the whole drain cycle.
  if (!dones.empty() && on_complete_) on_complete_(std::move(dones));

  // Members that surfaced a transient fault back off one at a time and
  // re-enter this routine as a batch of one: transfer_retry, backoff, then
  // a fresh transfer_start. The recursion is bounded by the retry budget.
  for (RtMigration& f : faulted) {
    if (st.stop_requested()) return;
    if (back_off(f, st)) drain({std::move(f)}, st);
  }
}

bool RtSlave::back_off(RtMigration& f, const std::stop_token& st) {
  ++f.m.attempts;
  emit_cycle_ = f.cycle;
  if (options_.retry.exhausted(f.m.attempts)) {
    {
      std::lock_guard lock(mu_);
      if (crashed_) return false;
      ++permanent_failures_;
    }
    emitter_.transfer_failed(now_us(), f.m.block, options_.node, f.m.attempts);
    if (on_failed_) on_failed_(options_.node, std::move(f));
    return false;
  }
  // Capped exponential backoff on the worker thread. The block waits as a
  // queued member, so cancel() finds it and wakes the wait, and the
  // migration then settles as cancelled; stop interrupts it too.
  const SimDuration delay = options_.retry.backoff_for(f.m.attempts);
  {
    std::lock_guard lock(mu_);
    if (crashed_) return false;
    ++retries_;
    members_.push_back({f.m.block, MemberState::Queued});
    in_flight_bytes_ = f.m.size;
  }
  emitter_.transfer_retry(now_us(), f.m.block, options_.node, f.m.attempts, delay);
  std::unique_lock lock(mu_);
  const auto interrupted = [&] {
    return st.stop_requested() || members_.front().state == MemberState::Cancelled;
  };
  cv_.wait_for(lock, std::chrono::microseconds(delay), interrupted);
  if (!interrupted()) return true;  // members_ is the re-read's batch of one
  members_.clear();
  in_flight_bytes_ = 0;
  return false;
}

}  // namespace dyrs::rt
