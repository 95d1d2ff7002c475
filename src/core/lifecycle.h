// LifecycleEmitter — the shared migration-lifecycle trace vocabulary.
//
// Both backends emit the same events with the same fields by construction:
//   mig_enqueue -> mig_target -> mig_bind -> mig_transfer_start
//     (-> mig_transfer_retry* -> mig_transfer_failed)
//   -> mig_complete | mig_abort, with mig_requeue marking a re-enqueue.
//
// Each event is an obs::LifecycleRecord: fixed layout, no heap, so a
// buffering sink copies it and renders JSON only at export. The sim
// backend's tracer is single-threaded and relies on emission order; the rt
// backend's ThreadLocalBufferSink instead sorts by the merge key (block,
// lseq, tid, tseq). A backend that needs the key installs a Stamper, which
// receives every record (its block already set) with its lifecycle rank
// just before emission and writes the record's key members.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/tier.h"
#include "core/types.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace dyrs::core {

// Lifecycle ranks within one migration cycle (lseq = cycle * 8 + rank in
// the rt merge key). Transfer-phase events (start, retry, failed) share
// kRankTransfer: they are all emitted by the owning worker thread, whose
// monotonic per-thread sequence preserves their true order. Terminal
// events (complete, abort) share the top rank — a lifecycle has exactly
// one of them.
inline constexpr int kRankEnqueue = 1;
inline constexpr int kRankTarget = 2;
inline constexpr int kRankBind = 3;
inline constexpr int kRankTransfer = 4;
inline constexpr int kRankTerminal = 6;
// Demotions happen strictly after the owning cycle's mig_complete (a block
// must be resident before pressure can push it down), so they take the rank
// above terminal within the cycle that evicted them.
inline constexpr int kRankDemote = 7;

/// One settled migration inside a coalesced completion report. `cycle` is
/// a backend cookie (the rt migration cycle): it is never emitted as a
/// field, but `complete_batch` hands the record to `before_each` so a
/// merge-key Stamper can key the event off it.
struct CompletionRecord {
  SimTime at = 0;
  BlockId block;
  NodeId node;
  Bytes size = 0;
  double transfer_s = 0.0;
  std::uint64_t cycle = 1;
};

class LifecycleEmitter {
 public:
  using Stamper = std::function<void(obs::LifecycleRecord&, int rank)>;

  LifecycleEmitter() = default;
  explicit LifecycleEmitter(const obs::ObsContext& obs, Stamper stamper = nullptr)
      : obs_(obs), stamper_(std::move(stamper)) {}

  /// Every emission below is a no-op (one flag check) when tracing is off.
  bool tracing() const { return obs_.tracing(); }

  void enqueue(SimTime at, BlockId block, JobId job, Bytes size,
               const std::vector<NodeId>& replicas);
  /// `mig_enqueue` with `merged=1`: `job` joined an already-open pending
  /// entry (size/replicas ride on the entry's original enqueue event).
  void enqueue_merged(SimTime at, BlockId block, JobId job);
  void target(SimTime at, BlockId block, NodeId node, double sec_per_byte);
  void bind(SimTime at, BlockId block, NodeId node, SimDuration wait);
  void transfer_start(SimTime at, BlockId block, NodeId node, Bytes size, int attempt);
  void transfer_retry(SimTime at, BlockId block, NodeId node, int attempt, SimDuration delay);
  void transfer_failed(SimTime at, BlockId block, NodeId node, int attempts);
  void complete(SimTime at, BlockId block, NodeId node, Bytes size, double transfer_s);
  /// Coalesced form of `complete` for batched exchanges: one `mig_complete`
  /// per record, in record order. `before_each` (when set) runs just before
  /// each record's emission so the backend can point its Stamper at the
  /// record — the batch is a transport artifact and must stay invisible in
  /// the merge key (each member carries its own block/cycle).
  void complete_batch(const std::vector<CompletionRecord>& records,
                      const std::function<void(const CompletionRecord&)>& before_each = nullptr);
  void abort(const CancelRecord& rec);
  void requeue(SimTime at, BlockId block, NodeId avoid);
  /// `mig_demote`: capacity pressure moved a buffered block down a tier
  /// (memory -> ssd keeps it served from the node; ssd -> disk evicts it).
  void demote(SimTime at, BlockId block, NodeId node, Tier from, Tier to, Bytes size);

 private:
  void emit(obs::LifecycleRecord& r, int rank);

  obs::ObsContext obs_;
  Stamper stamper_;
};

}  // namespace dyrs::core
