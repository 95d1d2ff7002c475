#include "obs/thread_buffer_sink.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <tuple>

#include "common/check.h"

namespace dyrs::obs {

namespace {

std::atomic<std::uint64_t> next_sink_id{1};

// Each thread caches (sink id -> buffer) so the steady-state emit path is a
// small linear scan over the sinks this thread has ever used (one, in
// practice) and an unsynchronized push_back. Slots for destroyed sinks stay
// behind but are inert: sink ids are never reused, so they can't match.
struct TlSlot {
  std::uint64_t sink_id;
  void* buffer;
};
thread_local std::vector<TlSlot> tl_slots;

}  // namespace

ThreadLocalBufferSink::ThreadLocalBufferSink()
    : id_(next_sink_id.fetch_add(1, std::memory_order_relaxed)) {}

ThreadLocalBufferSink::~ThreadLocalBufferSink() = default;

ThreadLocalBufferSink::Buffer& ThreadLocalBufferSink::local_buffer() {
  for (const TlSlot& slot : tl_slots) {
    if (slot.sink_id == id_) return *static_cast<Buffer*>(slot.buffer);
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* raw = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  tl_slots.push_back({id_, raw});
  return *raw;
}

void ThreadLocalBufferSink::emit(const TraceEvent& e) {
  Buffer& b = local_buffer();
  b.events.push_back({{e.i64("block", -1), e.i64("lseq", 0), e.i64("tid", 0), e.i64("tseq", 0),
                       b.next_seq++},
                      e});
}

void ThreadLocalBufferSink::emit_record(const LifecycleRecord& r) {
  Buffer& b = local_buffer();
  if (b.records.empty() || b.records.back().size() == kChunkRecords) {
    b.records.emplace_back().reserve(kChunkRecords);
  }
  b.records.back().emplace_back(r).seq = b.next_seq++;
}

std::vector<ThreadLocalBufferSink::Slot> ThreadLocalBufferSink::merged_slots() const {
  std::vector<Slot> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->next_seq;
    slots.reserve(total);
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
      for (const auto& chunk : buffers_[i]->records) {
        for (const LifecycleRecord& r : chunk) {
          slots.push_back({{r.block, r.lseq, r.tid, r.tseq, r.seq}, i, &r, nullptr});
        }
      }
      for (const KeyedEvent& k : buffers_[i]->events) {
        slots.push_back({k.key, i, nullptr, &k.event});
      }
    }
  }
  // (buffer, seq) is unique, so this is a total order: the one a stable
  // sort of the buffers concatenated in registration order would give.
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return std::tie(a.key.block, a.key.lseq, a.key.tid, a.key.tseq, a.buffer, a.key.seq) <
           std::tie(b.key.block, b.key.lseq, b.key.tid, b.key.tseq, b.buffer, b.key.seq);
  });
  return slots;
}

std::vector<TraceEvent> ThreadLocalBufferSink::merge_thread_buffers() const {
  const std::vector<Slot> slots = merged_slots();
  std::vector<TraceEvent> out;
  out.reserve(slots.size());
  for (const Slot& s : slots) {
    out.push_back(s.record != nullptr ? to_event(*s.record) : *s.event);
  }
  return out;
}

void ThreadLocalBufferSink::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::out | std::ios::trunc | std::ios::binary);
  DYRS_CHECK_MSG(os.is_open(), "cannot open trace file " << path);
  // Rendered in place into one reused buffer, written out every 64 KiB.
  constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
  std::string text;
  text.reserve(2 * kFlushBytes);
  for (const Slot& s : merged_slots()) {
    if (s.record != nullptr) {
      append_json(text, *s.record);
    } else {
      append_json(text, *s.event);
    }
    text += '\n';
    if (text.size() >= kFlushBytes) {
      os.write(text.data(), static_cast<std::streamsize>(text.size()));
      text.clear();
    }
  }
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  os.close();
  DYRS_CHECK_MSG(!os.fail(), "cannot write trace file " << path);
}

std::size_t ThreadLocalBufferSink::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

std::size_t ThreadLocalBufferSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->next_seq;
  return total;
}

}  // namespace dyrs::obs
