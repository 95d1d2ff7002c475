// Executes a FaultPlan against a live cluster on the simulator clock.
//
// The injector owns the mechanics of each fault kind:
//  * ProcessCrash    — DataNode::crash_process() now, restart_process() at
//                      `until`. The DYRS slave's crash hook fires, buffers
//                      die, the master re-queues lost migrations.
//  * ServerDeath     — Node::set_alive(false) plus a process crash (the
//                      daemon dies with the machine); both restored at
//                      `until`. On-disk replicas survive.
//  * Partition       — DataNode::set_partitioned(true): the heartbeat
//                      driver stops reporting the node, the namenode
//                      declares it dead after its miss limit, and the
//                      migration master reclaims work bound there. Local
//                      state survives and the partition heals at `until`.
//  * IoErrors        — in [at, until) each migration read on the node fails
//                      with probability `rate` (rolled on the injector's
//                      own seeded Rng); the slave retries with capped
//                      exponential backoff and eventually reports a
//                      permanent failure to the master.
//  * DiskDegradation — Disk::set_degradation(factor) for the window;
//                      overlapping windows multiply.
//
// Every applied event is appended to a human-readable trace; two runs with
// the same plan and seed yield identical traces (the chaos soak asserts
// this). An `after_event` hook lets the invariant checker run immediately
// after every fault transition.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "dfs/namenode.h"
#include "faults/fault_plan.h"
#include "faults/fault_surface.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dyrs::exec {

class FaultInjector final : public faults::FaultSurface {
 public:
  FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster, dfs::NameNode& namenode,
                std::uint64_t seed = 1);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of `plan` (start and end transitions) and
  /// installs the migration-read fault hooks. Call once, before running.
  void install(const faults::FaultPlan& plan) override;

  /// Emits `fault` trace events (kind/node/phase start|end) alongside each
  /// transition, so trace tooling can reconstruct node-liveness windows —
  /// the live-bind invariant needs them. The default no-op context
  /// disables emission.
  void set_obs(const obs::ObsContext& obs) override { obs_ = obs; }

  /// Chronological, human-readable record of applied transitions.
  const std::vector<std::string>& trace() const override { return trace_; }

  long io_errors_injected() const override { return io_errors_injected_; }
  int events_applied() const override { return static_cast<int>(trace_.size()); }

 private:
  void apply_start(const faults::FaultEvent& e);
  void apply_end(const faults::FaultEvent& e);
  void record(const std::string& line);
  void trace_transition(const faults::FaultEvent& e, const char* phase);
  bool roll_io_error(NodeId node);
  void refresh_degradation(NodeId node);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  dfs::NameNode& namenode_;
  Rng rng_;

  struct ErrorWindow {
    SimTime from = 0;
    SimTime until = 0;
    double rate = 0.0;
  };
  std::unordered_map<NodeId, std::vector<ErrorWindow>> error_windows_;
  std::unordered_map<NodeId, std::vector<double>> degradations_;  // active factors
  std::unordered_map<NodeId, int> partitions_;                    // nesting count

  std::vector<sim::EventHandle> timers_;
  std::vector<std::string> trace_;
  obs::ObsContext obs_;
  long io_errors_injected_ = 0;
};

}  // namespace dyrs::exec
