// Observability — the bundle an instrumented stack shares.
//
// One MetricsRegistry, one Tracer, and one ProbeBook, with sink ownership
// helpers. The Testbed owns one of these and hands every layer the
// ObsContext view from context(); standalone users (rt demos, unit tests)
// can construct their own.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace dyrs::obs {

class Observability {
 public:
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  ProbeBook& probes() { return probes_; }

  /// The handle layers take. Valid as long as this Observability lives.
  ObsContext context() { return ObsContext(&registry_, &tracer_, &probes_); }

  /// Routes trace events to an in-memory buffer; returns it for assertions.
  MemorySink& trace_to_memory() {
    auto sink = std::make_unique<MemorySink>();
    MemorySink& ref = *sink;
    owned_sink_ = std::move(sink);
    tracer_.set_sink(owned_sink_.get());
    return ref;
  }

  /// Routes trace events to a JSONL file (truncates existing content).
  void trace_to_jsonl(const std::string& path) {
    owned_sink_ = std::make_unique<JsonlFileSink>(path);
    tracer_.set_sink(owned_sink_.get());
  }

  /// Disables tracing and releases any owned sink (flushing a file sink).
  void stop_tracing() {
    tracer_.set_sink(nullptr);
    owned_sink_.reset();
  }

 private:
  MetricsRegistry registry_;
  Tracer tracer_;
  ProbeBook probes_;
  std::unique_ptr<TraceSink> owned_sink_;
};

}  // namespace dyrs::obs
