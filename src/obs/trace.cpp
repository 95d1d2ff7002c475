#include "obs/trace.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "common/check.h"

namespace dyrs::obs {

namespace {

constexpr std::size_t kDoubleChars = 32;  // "-1.2345678901234567e-308" is 24

/// Significant digits of a decimal rendering (mantissa only, leading and
/// trailing zeros dropped).
int significant_digits(const char* first, const char* last) {
  int digits = 0;
  int trailing_zeros = 0;
  for (const char* p = first; p != last && *p != 'e'; ++p) {
    if (*p < '0' || *p > '9') continue;
    if (*p == '0' && digits == 0) continue;
    ++digits;
    trailing_zeros = *p == '0' ? trailing_zeros + 1 : 0;
  }
  return digits - trailing_zeros;
}

// "%.9g" when it parses back to `v` (readable for common values: 0.5,
// 3.25, ...), else "%.17g", which preserves every bit. The shortest
// round-trip form decides up front whether nine digits can suffice, which
// spares the measured values that need 17 a failed attempt.
// std::to_chars/from_chars are the C-locale printf/strtod conversions
// whatever the process locale is. Writes at most kDoubleChars at `buf`.
char* format_double(char* buf, double v) {
  char* end = std::to_chars(buf, buf + kDoubleChars, v).ptr;
  if (significant_digits(buf, end) <= 9) {
    end = std::to_chars(buf, buf + kDoubleChars, v, std::chars_format::general, 9).ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == v) return end;
  }
  return std::to_chars(buf, buf + kDoubleChars, v, std::chars_format::general, 17).ptr;
}

/// Appends to a std::string through a local buffer. Rendering an event is
/// a few dozen tiny appends, each cheaper as a bounded memcpy here than as
/// a std::string append; the text reaches `out` on flush().
class JsonOut {
 public:
  explicit JsonOut(std::string& out) : out_(out) {}
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  void append(const char* s, std::size_t n) {
    if (n > static_cast<std::size_t>(end_ - p_)) {
      flush();
      if (n > sizeof(buf_)) {
        out_.append(s, n);
        return;
      }
    }
    std::memcpy(p_, s, n);
    p_ += n;
  }
  void append(std::string_view s) { append(s.data(), s.size()); }
  void append(char c) { append(&c, 1); }

  /// Room for `n` bytes written directly at the returned pointer; commit()
  /// then takes the end of what was written.
  char* room(std::size_t n) {
    if (n > static_cast<std::size_t>(end_ - p_)) flush();
    return p_;
  }
  void commit(char* end) { p_ = end; }

  void flush() {
    out_.append(buf_, p_);
    p_ = buf_;
  }

 private:
  std::string& out_;
  char buf_[1024];  // written before it is read, so left uninitialized
  char* p_ = buf_;
  char* const end_ = buf_ + sizeof(buf_);
};

void append_int(JsonOut& out, std::int64_t v) {
  char* p = out.room(20);
  out.commit(std::to_chars(p, p + 20, v).ptr);
}

void append_double(JsonOut& out, double v) {
  char* p = out.room(kDoubleChars);
  out.commit(format_double(p, v));
}

void append_escaped(JsonOut& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending stretch of plain characters
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\t': out.append("\\t"); break;
      case '\r': out.append("\\r"); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out.append(buf);
      }
    }
  }
  out.append(s.substr(run));
}

void append_head(JsonOut& out, SimTime at, std::string_view type) {
  out.append("{\"t\":");
  append_int(out, at);
  out.append(",\"type\":\"");
  append_escaped(out, type);
  out.append('"');
}

void append_key(JsonOut& out, std::string_view key) {
  out.append(",\"");
  append_escaped(out, key);
  out.append("\":");
}

void append_replica_csv(JsonOut& out, const LifecycleRecord& r) {
  for (std::size_t k = 0; k < r.replica_count; ++k) {
    if (k > 0) out.append(',');
    append_int(out, r.replicas[k]);
  }
}

/// The one definition of a record's JSON field order: `block`, the added
/// fields, then the merge key when stamped. to_event and append_json both
/// walk it, so the two renderings cannot disagree.
template <typename Visitor>
void for_each_field(const LifecycleRecord& r, Visitor& v) {
  v.integer("block", r.block);
  for (std::size_t k = 0; k < r.field_count; ++k) {
    const LifecycleRecord::Field& f = r.fields[k];
    switch (r.kinds[k]) {
      case LifecycleRecord::Kind::Int: v.integer(f.key, f.i); break;
      case LifecycleRecord::Kind::Double: v.real(f.key, f.d); break;
      case LifecycleRecord::Kind::Str: v.text(f.key, f.s); break;
      case LifecycleRecord::Kind::Replicas: v.replicas(f.key, r); break;
    }
  }
  if (r.stamped) {
    v.integer("lseq", r.lseq);
    v.integer("tid", r.tid);
    v.integer("tseq", r.tseq);
  }
}

// Constructs each field's strings in place (merge builds one TraceEvent
// per buffered record, so this is the export-side hot path).
struct EventBuilder {
  TraceEvent& e;
  void integer(const char* key, std::int64_t v) {
    e.fields.emplace_back(key, std::string(), v, TraceEvent::Kind::Int);
  }
  void real(const char* key, double v) {
    char buf[kDoubleChars];
    e.fields.emplace_back(key, std::string(buf, format_double(buf, v)), 0,
                          TraceEvent::Kind::Double);
  }
  void text(const char* key, const char* v) {
    e.fields.emplace_back(key, v, 0, TraceEvent::Kind::String);
  }
  void replicas(const char* key, const LifecycleRecord& r) {
    std::string csv;
    JsonOut out(csv);
    append_replica_csv(out, r);
    out.flush();
    e.fields.emplace_back(key, std::move(csv), 0, TraceEvent::Kind::String);
  }
};

struct JsonWriter {
  JsonOut& out;
  void integer(const char* key, std::int64_t v) {
    append_key(out, key);
    append_int(out, v);
  }
  void real(const char* key, double v) {
    append_key(out, key);
    append_double(out, v);
  }
  void text(const char* key, const char* v) {
    append_key(out, key);
    out.append('"');
    append_escaped(out, v);
    out.append('"');
  }
  void replicas(const char* key, const LifecycleRecord& r) {
    append_key(out, key);
    out.append('"');
    append_replica_csv(out, r);
    out.append('"');
  }
};

}  // namespace

// The with() overloads construct the Field in place: no temporary Field
// whose key/value strings get moved a second time into the vector, and the
// const char* / double overloads write straight into the stored string
// instead of routing through an intermediate std::string.
TraceEvent& TraceEvent::with(std::string key, std::string value) {
  Field& f = fields.emplace_back();
  f.key = std::move(key);
  f.str = std::move(value);
  f.kind = Kind::String;
  return *this;
}

TraceEvent& TraceEvent::with(std::string key, const char* value) {
  Field& f = fields.emplace_back();
  f.key = std::move(key);
  f.str = value;
  f.kind = Kind::String;
  return *this;
}

TraceEvent& TraceEvent::with(std::string key, std::int64_t value) {
  Field& f = fields.emplace_back();
  f.key = std::move(key);
  f.i = value;
  f.kind = Kind::Int;
  return *this;
}

TraceEvent& TraceEvent::with(std::string key, double value) {
  Field& f = fields.emplace_back();
  f.key = std::move(key);
  char buf[kDoubleChars];
  f.str.assign(buf, format_double(buf, value));
  f.kind = Kind::Double;
  return *this;
}

TraceEvent& TraceEvent::with_bool(std::string key, bool value) {
  Field& f = fields.emplace_back();
  f.key = std::move(key);
  f.i = value ? 1 : 0;
  f.kind = Kind::Bool;
  return *this;
}

const TraceEvent::Field* TraceEvent::find(const std::string& key) const {
  for (const auto& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::string TraceEvent::str(const std::string& key, const std::string& fallback) const {
  const Field* f = find(key);
  return f != nullptr ? f->str : fallback;
}

std::int64_t TraceEvent::i64(const std::string& key, std::int64_t fallback) const {
  const Field* f = find(key);
  if (f == nullptr) return fallback;
  if (f->kind == Kind::Int || f->kind == Kind::Bool) return f->i;
  return fallback;
}

double TraceEvent::f64(const std::string& key, double fallback) const {
  const Field* f = find(key);
  if (f == nullptr) return fallback;
  switch (f->kind) {
    case Kind::Int:
    case Kind::Bool: return static_cast<double>(f->i);
    case Kind::Double: {
      double v = fallback;
      std::from_chars(f->str.data(), f->str.data() + f->str.size(), v);
      return v;
    }
    case Kind::String: return fallback;
  }
  return fallback;
}

LifecycleRecord::Field& LifecycleRecord::add(const char* key, Kind kind) {
  DYRS_CHECK(field_count < kMaxFields);
  kinds[field_count] = kind;
  Field& f = fields[field_count++];
  f.key = key;
  return f;
}

LifecycleRecord& LifecycleRecord::with(const char* key, std::int64_t value) {
  add(key, Kind::Int).i = value;
  return *this;
}

LifecycleRecord& LifecycleRecord::with(const char* key, double value) {
  add(key, Kind::Double).d = value;
  return *this;
}

LifecycleRecord& LifecycleRecord::with(const char* key, const char* literal) {
  add(key, Kind::Str).s = literal;
  return *this;
}

bool LifecycleRecord::with_replicas(const char* key, const std::vector<NodeId>& ids) {
  if (ids.size() > kMaxReplicas) return false;
  add(key, Kind::Replicas);
  replica_count = static_cast<std::uint8_t>(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) replicas[k] = ids[k].value();
  return true;
}

TraceEvent to_event(const LifecycleRecord& r) {
  TraceEvent e;
  e.at = r.at;
  e.type = r.type;
  e.fields.reserve(1 + r.field_count + (r.stamped ? 3 : 0));
  EventBuilder builder{e};
  for_each_field(r, builder);
  return e;
}

void append_json(std::string& text, const TraceEvent& e) {
  JsonOut out(text);
  append_head(out, e.at, e.type);
  for (const auto& f : e.fields) {
    append_key(out, f.key);
    switch (f.kind) {
      case TraceEvent::Kind::String:
        out.append('"');
        append_escaped(out, f.str);
        out.append('"');
        break;
      case TraceEvent::Kind::Int: append_int(out, f.i); break;
      case TraceEvent::Kind::Double: out.append(f.str); break;
      case TraceEvent::Kind::Bool: out.append(f.i != 0 ? "true" : "false"); break;
    }
  }
  out.append('}');
  out.flush();
}

void append_json(std::string& text, const LifecycleRecord& r) {
  JsonOut out(text);
  append_head(out, r.at, r.type);
  JsonWriter writer{out};
  for_each_field(r, writer);
  out.append('}');
  out.flush();
}

std::string to_json(const TraceEvent& e) {
  std::string out;
  out.reserve(64 + e.fields.size() * 24);
  append_json(out, e);
  return out;
}

struct JsonlFileSink::Impl {
  std::ofstream os;
};

JsonlFileSink::JsonlFileSink(const std::string& path) : impl_(std::make_unique<Impl>()) {
  impl_->os.open(path, std::ios::out | std::ios::trunc);
  DYRS_CHECK_MSG(impl_->os.is_open(), "cannot open trace file " << path);
}

JsonlFileSink::~JsonlFileSink() = default;

void JsonlFileSink::emit(const TraceEvent& e) { impl_->os << to_json(e) << "\n"; }

}  // namespace dyrs::obs
