// Structured trace events and sinks.
//
// Every instrumented layer emits flat, typed events (migration lifecycle,
// reads, job/task transitions, periodic samples) stamped with sim time.
// Determinism contract: the simulator is single-threaded and events are
// emitted in event-execution order with fixed field order and fixed number
// formatting, so two runs of the same seeded scenario produce byte-identical
// JSONL output — tests and CI diff traces instead of only comparing final
// aggregates.
//
// Cost contract: a Tracer with no sink is disabled; instrumented call sites
// guard with `tracer && tracer->enabled()`, so the disabled path is a null
// pointer check and no event is ever constructed.
//
// Two event shapes share the JSON format. A TraceEvent owns its keys and
// values and serves the rare, free-form events (samples, faults, node
// states, job/task transitions). A LifecycleRecord is the migration
// lifecycle in fixed layout: static key literals, raw numbers, no heap, so
// emitting it is a copy. Sinks that keep events convert it (to_event);
// buffering sinks keep the record and render its JSON only at export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace dyrs::obs {

/// One flat trace event: sim time, a type tag, and ordered key/value
/// fields. Field order is preserved into the JSON output; values keep
/// their kind so numbers serialize unquoted.
struct TraceEvent {
  enum class Kind { String, Int, Double, Bool };
  struct Field {
    std::string key;
    std::string str;     // String payload (and formatted Double payload)
    std::int64_t i = 0;  // Int/Bool payload
    Kind kind = Kind::String;
  };

  SimTime at = 0;
  std::string type;
  std::vector<Field> fields;

  TraceEvent() = default;
  TraceEvent(SimTime t, std::string event_type) : at(t), type(std::move(event_type)) {
    // Lifecycle events carry 3-6 fields (plus merge-key fields in the rt
    // runtime); one up-front reservation avoids the grow-and-move churn
    // that dominated the build cost per bench/micro_serialization.
    fields.reserve(8);
  }

  TraceEvent& with(std::string key, std::string value);
  TraceEvent& with(std::string key, const char* value);
  TraceEvent& with(std::string key, std::int64_t value);
  TraceEvent& with(std::string key, int value) {
    return with(std::move(key), static_cast<std::int64_t>(value));
  }
  TraceEvent& with(std::string key, double value);
  TraceEvent& with_bool(std::string key, bool value);

  /// Field payloads by key; nullptr / defaults when absent.
  const Field* find(const std::string& key) const;
  std::string str(const std::string& key, const std::string& fallback = "") const;
  std::int64_t i64(const std::string& key, std::int64_t fallback = -1) const;
  double f64(const std::string& key, double fallback = 0.0) const;
};

/// One migration-lifecycle event in fixed layout. `type`, field keys and
/// string values must be literals (static storage): a buffering sink keeps
/// the pointers until export. JSON field order is `block`, the fields in
/// the order they were added, then `lseq`, `tid`, `tseq` when stamped.
struct LifecycleRecord {
  /// Fields after `block`: the widest lifecycle event (mig_demote) has 4.
  static constexpr std::size_t kMaxFields = 4;
  /// Inline replica list (HDFS places 3); a longer set goes out as a
  /// TraceEvent instead. Buffers hold many records, so size counts.
  static constexpr std::size_t kMaxReplicas = 4;

  enum class Kind : std::uint8_t { Int, Double, Str, Replicas };
  struct Field {
    const char* key = nullptr;
    union {
      std::int64_t i = 0;
      double d;
      const char* s;
    };
  };

  SimTime at = 0;
  const char* type = nullptr;
  std::int64_t block = -1;
  /// The rt merge key (see thread_buffer_sink.h), written by a Stamper.
  std::int64_t lseq = 0;
  std::int64_t tid = 0;
  std::int64_t tseq = 0;
  /// Position in the emitting thread's buffer, set by buffering sinks so
  /// equal merge keys keep their emission order.
  std::uint64_t seq = 0;
  bool stamped = false;
  std::uint8_t field_count = 0;
  std::uint8_t replica_count = 0;
  Kind kinds[kMaxFields] = {};  // kinds[k] tags fields[k]
  Field fields[kMaxFields];
  std::int64_t replicas[kMaxReplicas] = {};

  LifecycleRecord(SimTime t, const char* event_type, std::int64_t block_id)
      : at(t), type(event_type), block(block_id) {}

  LifecycleRecord& with(const char* key, std::int64_t value);
  LifecycleRecord& with(const char* key, int value) {
    return with(key, static_cast<std::int64_t>(value));
  }
  LifecycleRecord& with(const char* key, double value);
  LifecycleRecord& with(const char* key, const char* literal);
  /// Adds the replica list, rendered as a quoted CSV of node ids. Returns
  /// false (and adds nothing) when it holds more than kMaxReplicas ids.
  bool with_replicas(const char* key, const std::vector<NodeId>& ids);

  void stamp(std::int64_t lseq_value, std::int64_t tid_value, std::int64_t tseq_value) {
    lseq = lseq_value;
    tid = tid_value;
    tseq = tseq_value;
    stamped = true;
  }

 private:
  Field& add(const char* key, Kind kind);
};

/// The TraceEvent a record stands for: same type, fields and order.
TraceEvent to_event(const LifecycleRecord& r);

/// One JSON object per event: {"t":<us>,"type":"...",...}. No trailing
/// newline; JSONL writers append it.
std::string to_json(const TraceEvent& e);

/// Appends the JSON object to `out`. For a record this equals
/// to_json(to_event(r)) but builds no TraceEvent.
void append_json(std::string& out, const TraceEvent& e);
void append_json(std::string& out, const LifecycleRecord& r);

/// Destination for emitted events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& e) = 0;
  /// Lifecycle records. The default converts to the equivalent TraceEvent;
  /// sinks that buffer override it to keep the record as is.
  virtual void emit_record(const LifecycleRecord& r) { emit(to_event(r)); }
};

/// Keeps events in memory — tests and the trace reader assert on these.
class MemorySink final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Serializes events as JSON lines to a stream the caller owns.
class JsonlStreamSink final : public TraceSink {
 public:
  explicit JsonlStreamSink(std::ostream& os) : os_(os) {}
  void emit(const TraceEvent& e) override { os_ << to_json(e) << "\n"; }

 private:
  std::ostream& os_;
};

/// Owns an output file and writes JSON lines to it.
class JsonlFileSink final : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;
  void emit(const TraceEvent& e) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The handle instrumented layers hold. Disabled (no sink) by default.
class Tracer {
 public:
  bool enabled() const { return sink_ != nullptr; }
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  void emit(const TraceEvent& e) {
    if (sink_ != nullptr) sink_->emit(e);
  }
  void emit_record(const LifecycleRecord& r) {
    if (sink_ != nullptr) sink_->emit_record(r);
  }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace dyrs::obs
