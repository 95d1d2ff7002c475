#include "dyrs/slave.h"

#include <algorithm>

#include "common/check.h"

namespace dyrs::core {

MigrationSlave::MigrationSlave(sim::Simulator& sim, dfs::DataNode& datanode,
                               SlaveConfig config, Callbacks callbacks)
    : sim_(sim),
      datanode_(datanode),
      config_(config),
      callbacks_(std::move(callbacks)),
      core_(datanode.id(),
            {.ewma_alpha = config.ewma_alpha,
             .reference_block = config.reference_block,
             .fallback_rate = datanode.node().disk().bandwidth(),
             .overdue_correction = config.overdue_correction},
            datanode.node().memory(), &datanode.node().ssd(), config.tier, config.memory_limit,
            config.retry) {
  DYRS_CHECK(config_.heartbeat_interval > 0);
}

int MigrationSlave::queue_capacity() const {
  // Depth that keeps the disk busy across one pull interval: how many
  // block reads fit in a heartbeat at full disk speed (§III-B). At least 1.
  const SimDuration block_time =
      datanode_.node().disk().unloaded_read_time(config_.reference_block);
  return config_.queue_depth.depth_for(config_.heartbeat_interval, block_time);
}

int MigrationSlave::free_slots() const {
  // Backing-off migrations re-enter the queue when their timer fires, so
  // they count against the binding capacity too.
  return std::max(0, queue_capacity() - queued_count() - backoff_count());
}

bool MigrationSlave::enqueue(BoundMigration m) {
  DYRS_CHECK_MSG(datanode_.has_block(m.block),
                 "slave " << id() << " asked to migrate non-local block " << m.block);
  DYRS_CHECK_MSG(!has_local_migration(m.block),
                 "block " << m.block << " already bound to slave " << id());
  if (buffers().contains(m.block)) {
    // Already in memory (another job migrated it earlier): just reference.
    buffers().add_refs(m.block, m.jobs);
    return false;
  }
  bound_bytes_ += m.size;
  queue_.push_back(std::move(m));
  maybe_start();
  return true;
}

BoundMigration* MigrationSlave::find_local(BlockId block) {
  if (auto it = active_.find(block); it != active_.end()) return &it->second.m;
  if (auto it = backoff_.find(block); it != backoff_.end()) return &it->second.m;
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [block](const BoundMigration& m) { return m.block == block; });
  return it == queue_.end() ? nullptr : &*it;
}

bool MigrationSlave::add_refs_if_local(BlockId block, const std::map<JobId, EvictionMode>& jobs) {
  BoundMigration* m = find_local(block);
  if (m == nullptr) return false;
  for (const auto& [job, mode] : jobs) m->jobs[job] = mode;
  // An in-flight migration's reservation already installed its refs.
  if (active_.count(block) != 0) buffers().add_refs(block, jobs);
  return true;
}

bool MigrationSlave::cancel_for_job(BlockId block, JobId job) {
  BoundMigration* m = find_local(block);
  if (m == nullptr) return false;
  m->jobs.erase(job);
  // Cancelled outright only when no other job still wants it.
  return m->jobs.empty() && cancel_block(block);
}

void MigrationSlave::maybe_start() {
  if (!datanode_.serving()) return;
  if (config_.serialize_migrations) {
    while (active_.empty() && !queue_.empty()) {
      BoundMigration next = std::move(queue_.front());
      queue_.pop_front();
      if (!start_migration(std::move(next))) break;  // stalled: requeued at front
    }
  } else {
    // Ignem-style: launch queued work concurrently, up to the cap.
    while (!queue_.empty() &&
           (config_.max_concurrent_migrations <= 0 ||
            static_cast<int>(active_.size()) < config_.max_concurrent_migrations)) {
      BoundMigration next = std::move(queue_.front());
      queue_.pop_front();
      if (!start_migration(std::move(next))) break;
    }
  }
}

bool MigrationSlave::start_migration(BoundMigration m) {
  // Reserve memory up front: mlock consumes pages as it reads. Under
  // EvictColdFirst (or past the high watermark) the reservation may demote
  // cold resident blocks downward; with the default refuse policy a full
  // buffer stalls the queue until an eviction or a missed-read
  // cancellation makes room (§IV-A1).
  std::vector<BufferManager::Demotion> demoted;
  const bool admitted = core_.admit(m.block, m.size, m.jobs, demoted);
  process_demotions(demoted);
  if (!admitted) {
    stalled_ = true;
    queue_.push_front(std::move(m));
    return false;
  }
  stalled_ = false;
  const BlockId block = m.block;
  Active active;
  active.started_at = sim_.now();
  active.flow = datanode_.node().disk().start_io(
      cluster::IoClass::MigrationRead, m.size,
      [this, block](SimTime t) { finish_migration(block, t); });
  active.m = std::move(m);
  core_.transfer_start(sim_.now(), active_.emplace(block, std::move(active)).first->second.m);
  return true;
}

void MigrationSlave::finish_migration(BlockId block, SimTime finished) {
  auto it = active_.find(block);
  DYRS_CHECK(it != active_.end());
  // Fault injection: the read may have hit a transient I/O error, in which
  // case the time was spent but no usable data arrived.
  if (datanode_.migration_read_fault && datanode_.migration_read_fault()) {
    fail_migration(block);
    return;
  }
  const Active& a = it->second;
  // Data fully arrived: the estimator learns the read, and the block is
  // demotable from now on.
  core_.complete(block, a.m.size, to_seconds(finished - a.started_at));

  MigrationRecord record;
  record.block = block;
  record.node = id();
  record.size = a.m.size;
  record.bound_at = a.m.bound_at;
  record.started_at = a.started_at;
  record.finished_at = finished;
  bound_bytes_ -= a.m.size;
  active_.erase(it);
  if (callbacks_.on_complete) callbacks_.on_complete(record);
  maybe_start();
}

void MigrationSlave::fail_migration(BlockId block) {
  auto it = active_.find(block);
  DYRS_CHECK(it != active_.end());
  BoundMigration m = std::move(it->second.m);
  active_.erase(it);
  buffers().force_evict(block);  // drop the partially-read pages
  if (const auto delay = core_.fail_attempt(sim_.now(), m)) {
    Backoff b;
    b.m = std::move(m);
    b.timer = sim_.schedule_after(*delay, [this, block]() { retry_now(block); });
    backoff_.emplace(block, std::move(b));
  } else {
    bound_bytes_ -= m.size;
    if (callbacks_.on_failed) callbacks_.on_failed(id(), std::move(m));
  }
  maybe_start();
}

void MigrationSlave::retry_now(BlockId block) {
  auto it = backoff_.find(block);
  if (it == backoff_.end()) return;  // cancelled meanwhile
  queue_.push_back(std::move(it->second.m));
  backoff_.erase(it);
  maybe_start();
}

bool MigrationSlave::cancel_block(BlockId block) {
  auto it = active_.find(block);
  if (it != active_.end()) {
    datanode_.node().disk().cancel(it->second.flow);
    bound_bytes_ -= it->second.m.size;
    active_.erase(it);
    buffers().force_evict(block);  // releases the reserved pages
    maybe_start();
    return true;
  }
  auto bit = backoff_.find(block);
  if (bit != backoff_.end()) {
    bit->second.timer.cancel();
    bound_bytes_ -= bit->second.m.size;
    backoff_.erase(bit);  // no buffer held: it was evicted on failure
    return true;
  }
  auto qit = std::find_if(queue_.begin(), queue_.end(),
                          [block](const BoundMigration& m) { return m.block == block; });
  if (qit != queue_.end()) {
    bound_bytes_ -= qit->size;
    queue_.erase(qit);
    // Dropping a queued entry can unstall admission for the new head.
    maybe_start();
    return true;
  }
  return false;
}

void MigrationSlave::heartbeat() {
  if (!datanode_.serving()) return;
  // Overdue correction: fold in the elapsed time of in-flight migrations
  // that have outlived their estimate (§IV-A).
  for (const auto& [block, a] : active_) {
    estimator().on_overdue(a.m.size, to_seconds(sim_.now() - a.started_at));
  }
  // Threshold-triggered scavenge of references held by dead jobs.
  if (job_active_query && buffers().over_threshold(config_.scavenge_threshold)) {
    report_evicted(buffers().scavenge(job_active_query));
  }
  core_.refresh_gauges();
  if (stalled_ || (!queue_.empty() && (!config_.serialize_migrations || active_.empty()))) {
    maybe_start();
  }
}

void MigrationSlave::process_demotions(const std::vector<BufferManager::Demotion>& demoted) {
  std::vector<BlockId> evicted;
  for (const auto& d : demoted) {
    core_.demote(sim_.now(), d);
    if (d.to == Tier::Disk) evicted.push_back(d.block);
  }
  // Disk demotions fell off the hierarchy entirely: the master must
  // unregister their replicas. Call the callback directly — demotions run
  // inside an admission attempt, so no unstall kick (report_evicted's job)
  // is needed or safe here.
  if (!evicted.empty() && callbacks_.on_evicted) callbacks_.on_evicted(id(), evicted);
}

void MigrationSlave::report_evicted(const std::vector<BlockId>& evicted) {
  if (evicted.empty()) return;
  if (callbacks_.on_evicted) callbacks_.on_evicted(id(), evicted);
  // Freed memory may unstall the queue.
  if (stalled_) maybe_start();
}

std::vector<BlockId> MigrationSlave::release_job(JobId job) {
  auto evicted = buffers().release_job(job);
  report_evicted(evicted);
  return evicted;
}

std::vector<BlockId> MigrationSlave::on_block_read(BlockId block, JobId job) {
  auto evicted = buffers().on_block_read(block, job);
  report_evicted(evicted);
  return evicted;
}

MigrationSlave::CrashReport MigrationSlave::crash() {
  CrashReport report;
  // Abort in-flight migrations and drop their partial buffers first, so
  // the buffered list names only *completed* blocks the master may have
  // registered as in-memory replicas.
  for (auto& [block, a] : active_) {
    datanode_.node().disk().cancel(a.flow);
    buffers().force_evict(block);
    report.lost.push_back(std::move(a.m));
  }
  active_.clear();
  for (auto& [block, b] : backoff_) {
    b.timer.cancel();
    report.lost.push_back(std::move(b.m));
  }
  backoff_.clear();
  for (auto& m : queue_) report.lost.push_back(std::move(m));
  queue_.clear();
  bound_bytes_ = 0;
  stalled_ = false;
  report.buffered = buffers().clear_all();
  return report;
}

}  // namespace dyrs::core
