#include "core/pending_queue.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dyrs::core {

PendingQueue::iterator PendingQueue::find(BlockId block) {
  auto it = index_.find(block);
  return it == index_.end() ? list_.end() : it->second;
}

PendingMigration* PendingQueue::lookup(BlockId block) {
  auto it = index_.find(block);
  return it == index_.end() ? nullptr : &*it->second;
}

PendingMigration& PendingQueue::push(PendingMigration pm) {
  DYRS_CHECK_MSG(!contains(pm.block), "block " << pm.block << " already pending");
  pm.seq = ++pushes_;
  list_.push_back(std::move(pm));
  auto it = std::prev(list_.end());
  index_[it->block] = it;
  return *it;
}

PendingQueue::iterator PendingQueue::erase(iterator it) {
  index_.erase(it->block);
  return list_.erase(it);
}

bool PendingQueue::erase(BlockId block) {
  auto it = index_.find(block);
  if (it == index_.end()) return false;
  list_.erase(it->second);
  index_.erase(it);
  return true;
}

void PendingQueue::clear() {
  list_.clear();
  index_.clear();
}

std::vector<PendingQueue::iterator> PendingQueue::in_order(Ordering ordering) {
  std::vector<iterator> order;
  order.reserve(list_.size());
  for (auto it = list_.begin(); it != list_.end(); ++it) order.push_back(it);
  if (ordering == Ordering::SmallestJobFirst) rank_smallest_job_first(order);
  return order;
}

void PendingQueue::rank_smallest_job_first(std::vector<iterator>& entries) const {
  if (entries.size() <= 1) return;
  std::unordered_map<JobId, Bytes> outstanding;
  for (const auto& pm : list_) {
    for (const auto& [job, mode] : pm.jobs) outstanding[job] += pm.size;
  }
  auto key = [&outstanding](const PendingMigration& pm) {
    Bytes best = std::numeric_limits<Bytes>::max();
    for (const auto& [job, mode] : pm.jobs) best = std::min(best, outstanding[job]);
    return best;
  };
  std::stable_sort(entries.begin(), entries.end(),
                   [&key](const auto& a, const auto& b) { return key(*a) < key(*b); });
}

}  // namespace dyrs::core
