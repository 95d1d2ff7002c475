// Periodic per-node telemetry sampling.
//
// Probes are plain callables registered under a name; every tick the
// sampler evaluates them in registration order, records each value in a
// TimeSeries, mirrors it into a registry gauge, and (when tracing) emits
// one `sample` event per probe. It ticks on the simulator clock, so it
// lives with the sim executor rather than in obs. Probes keep it free of
// dependencies on cluster/dfs/dyrs: the owner (Testbed) wires lambdas that
// close over whatever resource they observe — disk/NIC utilization, memory
// buffer occupancy, pending-queue depth (the telemetry of Figs 1, 7, 9).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/timeseries.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dyrs::exec {

class PeriodicSampler {
 public:
  using Probe = std::function<double()>;

  /// The context's registry/tracer may be absent; sampling then only fills
  /// the per-probe TimeSeries. If the context carries a ProbeBook, its
  /// pending registrations are adopted (and the book drained) here, so
  /// probes layers registered at construction time start ticking without
  /// the owner re-wiring them.
  PeriodicSampler(sim::Simulator& sim, const obs::ObsContext& obs, SimDuration cadence);
  ~PeriodicSampler();
  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Registers a probe. Call before start(); names must be unique.
  /// `cadence` overrides the sampler-wide interval for this probe
  /// (0 = follow the global cadence). Probes sharing a cadence fire in
  /// registration order at every tick; probes on different cadences
  /// interleave deterministically (fixed timer creation order).
  void add_probe(const std::string& name, Probe probe, SimDuration cadence = 0);

  /// Starts the periodic ticks (each probe's first sample lands one of its
  /// cadences after start).
  void start();
  void stop();
  bool running() const { return running_; }

  /// Evaluates every probe once, immediately, regardless of cadence.
  void sample_now();

  SimDuration cadence() const { return cadence_; }
  /// The effective interval of one probe (its override or the global one).
  SimDuration probe_cadence(const std::string& name) const;
  const TimeSeries& series(const std::string& name) const;
  std::vector<std::string> probe_names() const;

 private:
  struct Entry {
    std::string name;
    Probe probe;
    TimeSeries series;
    obs::Gauge* gauge = nullptr;    // mirror in the registry, if one is attached
    SimDuration cadence = 0;   // 0 = sampled by the global tick
  };

  void sample_entry(Entry& e);

  sim::Simulator& sim_;
  obs::ObsContext obs_;
  SimDuration cadence_;
  std::vector<Entry> entries_;
  sim::EventHandle timer_;                   // global tick
  std::vector<sim::EventHandle> own_timers_; // per-probe overrides
  bool running_ = false;
};

}  // namespace dyrs::exec
