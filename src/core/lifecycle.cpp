#include "core/lifecycle.h"

#include <cstdint>
#include <string>
#include <utility>

namespace dyrs::core {

void LifecycleEmitter::emit(obs::LifecycleRecord& r, int rank) {
  if (stamper_) stamper_(r, rank);
  obs_.emit_record(r);
}

void LifecycleEmitter::enqueue(SimTime at, BlockId block, JobId job, Bytes size,
                               const std::vector<NodeId>& replicas) {
  if (!tracing()) return;
  // The replica set rides along so trace consumers (the policy oracle)
  // know which nodes Algorithm 1 could have chosen.
  obs::LifecycleRecord r(at, "mig_enqueue", block.value());
  r.with("job", job.value()).with("size", size);
  if (r.with_replicas("replicas", replicas)) {
    emit(r, kRankEnqueue);
    return;
  }
  // More replicas than a record holds inline: emit the equivalent
  // TraceEvent, whose replicas field carries the whole list.
  r.with("replicas", "");
  if (stamper_) stamper_(r, kRankEnqueue);
  obs::TraceEvent e = obs::to_event(r);
  std::string csv;
  for (NodeId n : replicas) {
    if (!csv.empty()) csv += ',';
    csv += std::to_string(n.value());
  }
  for (obs::TraceEvent::Field& f : e.fields) {
    if (f.key == "replicas") f.str = std::move(csv);
  }
  obs_.emit(e);
}

void LifecycleEmitter::enqueue_merged(SimTime at, BlockId block, JobId job) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_enqueue", block.value());
  r.with("job", job.value()).with("merged", 1);
  emit(r, kRankEnqueue);
}

void LifecycleEmitter::target(SimTime at, BlockId block, NodeId node, double sec_per_byte) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_target", block.value());
  r.with("node", node.value()).with("sec_per_byte", sec_per_byte);
  emit(r, kRankTarget);
}

void LifecycleEmitter::bind(SimTime at, BlockId block, NodeId node, SimDuration wait) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_bind", block.value());
  r.with("node", node.value()).with("wait_us", wait);
  emit(r, kRankBind);
}

void LifecycleEmitter::transfer_start(SimTime at, BlockId block, NodeId node, Bytes size,
                                      int attempt) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_transfer_start", block.value());
  r.with("node", node.value()).with("size", size).with("attempt", attempt);
  emit(r, kRankTransfer);
}

void LifecycleEmitter::transfer_retry(SimTime at, BlockId block, NodeId node, int attempt,
                                      SimDuration delay) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_transfer_retry", block.value());
  r.with("node", node.value()).with("attempt", attempt).with("delay_us", delay);
  emit(r, kRankTransfer);
}

void LifecycleEmitter::transfer_failed(SimTime at, BlockId block, NodeId node, int attempts) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_transfer_failed", block.value());
  r.with("node", node.value()).with("attempts", attempts);
  emit(r, kRankTransfer);
}

void LifecycleEmitter::complete(SimTime at, BlockId block, NodeId node, Bytes size,
                                double transfer_s) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_complete", block.value());
  r.with("node", node.value()).with("size", size).with("transfer_s", transfer_s);
  emit(r, kRankTerminal);
}

void LifecycleEmitter::complete_batch(
    const std::vector<CompletionRecord>& records,
    const std::function<void(const CompletionRecord&)>& before_each) {
  if (!tracing()) return;
  for (const CompletionRecord& r : records) {
    if (before_each) before_each(r);
    complete(r.at, r.block, r.node, r.size, r.transfer_s);
  }
}

void LifecycleEmitter::abort(const CancelRecord& rec) {
  if (!tracing()) return;
  obs::LifecycleRecord r(rec.at, "mig_abort", rec.block.value());
  if (rec.node.valid()) r.with("node", rec.node.value());
  r.with("reason", to_string(rec.reason));
  emit(r, kRankTerminal);
}

void LifecycleEmitter::requeue(SimTime at, BlockId block, NodeId avoid) {
  if (!tracing()) return;
  // Informational: the fresh mig_enqueue of the re-added entry precedes
  // it, so it stamps with the *new* cycle's enqueue rank.
  obs::LifecycleRecord r(at, "mig_requeue", block.value());
  if (avoid.valid()) r.with("avoid", avoid.value());
  emit(r, kRankEnqueue);
}

void LifecycleEmitter::demote(SimTime at, BlockId block, NodeId node, Tier from, Tier to,
                              Bytes size) {
  if (!tracing()) return;
  obs::LifecycleRecord r(at, "mig_demote", block.value());
  r.with("node", node.value())
      .with("from", to_string(from))
      .with("to", to_string(to))
      .with("size", size);
  emit(r, kRankDemote);
}

}  // namespace dyrs::core
