// Per-thread trace buffering for multi-threaded emitters (the rt runtime).
//
// The sim layer's byte-identical-trace contract relies on single-threaded
// emission; real worker threads interleave nondeterministically, so the rt
// runtime relaxes the contract: emitters stamp every event with a stable
// merge key instead of relying on arrival order —
//
//   block  the migration the event belongs to (-1 when the event has
//          none, so blockless events sort first),
//   lseq   per-block logical sequence (cycle * 8 + lifecycle rank), so a
//          block's events order by lifecycle phase, not wall clock,
//   tid    logical emitter ordinal (0 = master, node + 1 = slave worker),
//   tseq   per-emitter monotone sequence, breaking ties within one phase.
//
// emit() and emit_record() append to the calling thread's private buffer —
// after a one-time registration (the only mutex touch) concurrent emits
// never contend or reorder each other. Lifecycle records stay records (a
// fixed-layout copy, no heap); only the rare free-form events (samples,
// node states, faults) are held as TraceEvents, keyed once on arrival.
// merge_thread_buffers() and write_jsonl() order everything by merge key,
// then by buffer registration and emission order, which is the order a
// stable sort of the concatenated buffers gives: one canonical stream
// whose per-block event order is identical across runs even though
// wall-clock interleavings differ. Timestamps, waits, and transfer
// durations remain wall-clock and are NOT run-stable; only per-block
// event order is. write_jsonl() renders records straight to JSON; no
// TraceEvent is built for them.
//
// Thread-safety contract: emit() may be called from any number of threads
// concurrently; merge_thread_buffers() / write_jsonl() / event_count()
// require all emitting threads to be quiesced first (RtMaster::shutdown or
// wait_idle) — they read the per-thread buffers unlocked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dyrs::obs {

class ThreadLocalBufferSink final : public TraceSink {
 public:
  ThreadLocalBufferSink();
  ~ThreadLocalBufferSink() override;

  void emit(const TraceEvent& e) override;
  void emit_record(const LifecycleRecord& r) override;

  /// All buffered events in canonical merge-key order. Emitting threads
  /// must be quiesced.
  std::vector<TraceEvent> merge_thread_buffers() const;

  /// Writes the merged stream as JSONL (truncates existing content).
  void write_jsonl(const std::string& path) const;

  /// Number of threads that have emitted through this sink.
  std::size_t thread_count() const;

  /// Total buffered events across all threads. Emitters must be quiesced.
  std::size_t event_count() const;

 private:
  struct MergeKey {
    std::int64_t block = -1;
    std::int64_t lseq = 0;
    std::int64_t tid = 0;
    std::int64_t tseq = 0;
    std::uint64_t seq = 0;  // emission order within the buffer
  };
  struct KeyedEvent {
    MergeKey key;
    TraceEvent event;
  };
  struct Buffer {
    // Records go into fixed-capacity chunks: an emit never reallocates, so
    // it never copies earlier records or frees a large block while other
    // threads emit (in micro_rt_trace smoke runs, chunking cut the 4-thread
    // record cost from ~1.1 us to ~0.3 us per event).
    std::vector<std::vector<LifecycleRecord>> records;
    std::vector<KeyedEvent> events;
    std::uint64_t next_seq = 0;
  };
  static constexpr std::size_t kChunkRecords = 1024;
  /// One buffered entry in merged position; exactly one pointer is set.
  struct Slot {
    MergeKey key;
    std::size_t buffer = 0;
    const LifecycleRecord* record = nullptr;
    const TraceEvent* event = nullptr;
  };

  Buffer& local_buffer();
  /// Every buffered entry in canonical merge order.
  std::vector<Slot> merged_slots() const;

  // Distinct per sink and never reused, so a stale thread-local slot left
  // behind by a destroyed sink can never be matched by a new one.
  const std::uint64_t id_;
  mutable std::mutex mu_;  // guards the buffer list, not the buffers
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace dyrs::obs
