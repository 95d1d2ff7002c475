// ObsContext — the single observability handle every layer takes.
//
// Before this existed each layer's Options / set_observability surface
// carried its own nullable `MetricsRegistry*` + `Tracer*` pair (and the
// sampler a third wiring path for probes), so every new signal meant
// touching every constructor in the stack. An ObsContext bundles all three
// behind one cheap-to-copy value:
//
//   - registry: counters / gauges / histograms (null-safe accessors),
//   - tracer:   structured lifecycle events (no-op when no sink is set),
//   - probes:   a ProbeBook where layers *register* periodic probes at
//               construction; a PeriodicSampler later adopts the book and
//               schedules them. Layers never see the sampler itself.
//
// A default-constructed ObsContext is a full no-op: counter() returns
// nullptr, emit() drops the event, add_probe() discards the registration.
// Layers therefore keep the existing cost contract — the disabled path is a
// pointer check, no event is ever constructed when `tracing()` is false.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dyrs::obs {

/// Deferred probe registrations. Layers add (name, probe, cadence) entries
/// while they are constructed; whoever owns the sampling schedule (the sim
/// PeriodicSampler today) drains the book and turns entries into timers.
/// cadence 0 means "use the sampler's global cadence".
class ProbeBook {
 public:
  struct Entry {
    std::string name;
    std::function<double()> probe;
    SimDuration cadence = 0;
  };

  void add(std::string name, std::function<double()> probe, SimDuration cadence = 0) {
    entries_.push_back({std::move(name), std::move(probe), cadence});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  /// Hands the registrations to an adopter and leaves the book empty, so a
  /// second sampler cannot double-register the same probe names.
  std::vector<Entry> take() { return std::exchange(entries_, {}); }

 private:
  std::vector<Entry> entries_;
};

/// Non-owning view over a registry / tracer / probe book, any of which may
/// be absent. Copy it freely — it is three pointers.
class ObsContext {
 public:
  ObsContext() = default;
  ObsContext(MetricsRegistry* registry, Tracer* tracer, ProbeBook* probes = nullptr)
      : registry_(registry), tracer_(tracer), probes_(probes) {}

  MetricsRegistry* registry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }
  ProbeBook* probes() const { return probes_; }

  /// True only when events will actually reach a sink — call sites guard
  /// event construction with this.
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  void emit(const TraceEvent& e) const {
    if (tracer_ != nullptr) tracer_->emit(e);
  }
  void emit_record(const LifecycleRecord& r) const {
    if (tracer_ != nullptr) tracer_->emit_record(r);
  }

  /// Instrument lookups; nullptr without a registry so layers can cache the
  /// result and guard increments with a pointer check.
  Counter* counter(const std::string& name) const {
    return registry_ != nullptr ? &registry_->counter(name) : nullptr;
  }
  Gauge* gauge(const std::string& name) const {
    return registry_ != nullptr ? &registry_->gauge(name) : nullptr;
  }
  Histogram* histogram(const std::string& name) const {
    return registry_ != nullptr ? &registry_->histogram(name) : nullptr;
  }

  /// Registers a periodic probe if a book is attached; silently drops it
  /// otherwise (no sampling configured).
  void add_probe(std::string name, std::function<double()> probe,
                 SimDuration cadence = 0) const {
    if (probes_ != nullptr) probes_->add(std::move(name), std::move(probe), cadence);
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  Tracer* tracer_ = nullptr;
  ProbeBook* probes_ = nullptr;
};

}  // namespace dyrs::obs
