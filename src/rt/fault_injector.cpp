#include "rt/fault_injector.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "obs/trace.h"

namespace dyrs::rt {

RtFaultInjector::RtFaultInjector(RtMaster& master, std::uint64_t seed)
    : master_(master), seed_(seed) {}

RtFaultInjector::~RtFaultInjector() { stop(); }

void RtFaultInjector::set_obs(const obs::ObsContext& obs) {
  std::lock_guard lock(mu_);
  obs_ = obs;
}

const std::vector<std::string>& RtFaultInjector::trace() const {
  // Safe to read once the timeline quiesced (wait_done / stop).
  return trace_;
}

int RtFaultInjector::events_applied() const {
  std::lock_guard lock(mu_);
  return static_cast<int>(trace_.size());
}

long RtFaultInjector::io_errors_injected() const {
  return io_errors_injected_.load(std::memory_order_relaxed);
}

SimTime RtFaultInjector::since_install() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               install_epoch_)
      .count();
}

void RtFaultInjector::install(const faults::FaultPlan& plan) {
  DYRS_CHECK_MSG(!timeline_.joinable(), "RtFaultInjector::install called twice");
  faults::FaultPlan sorted = plan;
  sorted.sort();

  // Every event must name a known slave — and validate before any fault
  // lands, not when its transition fires mid-run.
  for (const faults::FaultEvent& e : sorted.events) {
    e.validate();
    master_.slave(e.node);
  }

  transitions_.clear();
  for (const faults::FaultEvent& e : sorted.events) {
    transitions_.push_back({e, e.at, true});
    if (e.until > e.at) transitions_.push_back({e, e.until, false});
  }
  std::stable_sort(transitions_.begin(), transitions_.end(),
                   [](const Transition& a, const Transition& b) { return a.at < b.at; });

  install_epoch_ = std::chrono::steady_clock::now();

  // IoErrors windows are evaluated inside the slave's read path: the hook
  // checks the wall clock against the window list and rolls a per-node
  // seeded Rng. Per-node leaf mutexes keep the hook off every injector
  // lock — crash() joins a worker that may be inside the hook.
  for (const faults::FaultEvent& e : sorted.events) {
    if (e.kind != faults::FaultKind::IoErrors) continue;
    auto& state = io_states_[e.node];
    if (!state) {
      state = std::make_unique<IoState>();
      state->rng = Rng(seed_ + static_cast<std::uint64_t>(e.node.value()) * 0x9E3779B97F4A7C15ULL);
    }
    state->windows.push_back(e);
  }
  for (auto& [node, state] : io_states_) {
    IoState* st = state.get();
    master_.slave(node).set_read_fault_hook([this, st](BlockId /*block*/) {
      const SimTime now = since_install();
      double rate = 0.0;
      bool fail = false;
      {
        std::lock_guard lock(st->mu);
        for (const faults::FaultEvent& w : st->windows) {
          if (now >= w.at && now < w.until) rate = std::max(rate, w.rate);
        }
        if (rate > 0.0) fail = st->rng.bernoulli(rate);
      }
      if (fail) io_errors_injected_.fetch_add(1, std::memory_order_relaxed);
      return fail;
    });
  }

  timeline_ = std::jthread([this](std::stop_token st) { timeline(st); });
}

void RtFaultInjector::timeline(std::stop_token st) {
  for (const Transition& t : transitions_) {
    const auto when = install_epoch_ + std::chrono::microseconds(t.at);
    {
      std::unique_lock lock(sleep_mu_);
      sleep_cv_.wait_until(lock, st, when, [] { return false; });
    }
    if (st.stop_requested()) return;
    apply(t);
  }
  {
    std::lock_guard lock(mu_);
    done_ = true;
  }
  done_cv_.notify_all();
}

void RtFaultInjector::record(SimTime planned_at, const std::string& line) {
  // Keyed by the *planned* offset, not the wall clock: same plan and seed
  // must yield a bit-identical trace across runs.
  std::ostringstream os;
  os << "t=" << to_seconds(planned_at) << "s " << line;
  std::lock_guard lock(mu_);
  trace_.push_back(os.str());
  DYRS_LOG(Info, "faults") << trace_.back();
}

void RtFaultInjector::trace_transition(const faults::FaultEvent& e, const char* phase) {
  std::lock_guard lock(mu_);
  if (!obs_.tracing()) return;
  obs::TraceEvent ev(master_.now_us(), "fault");
  ev.with("kind", faults::to_string(e.kind));
  ev.with("node", e.node.value());
  ev.with("phase", phase);
  if (e.kind == faults::FaultKind::IoErrors) ev.with("rate", e.rate);
  if (e.kind == faults::FaultKind::DiskDegradation) ev.with("factor", e.factor);
  // Injector lane of the rt merge key: blockless (sorts ahead of every
  // lifecycle), own tid, chronological tseq.
  ev.with("lseq", 0).with("tid", kInjectorTid).with("tseq", ++tseq_);
  obs_.emit(ev);
}

void RtFaultInjector::apply(const Transition& t) {
  const faults::FaultEvent& e = t.event;
  // Marker first, so consequences (abandoned reads, requeues) trace after
  // it — the same ordering contract as the sim injector.
  trace_transition(e, t.start ? "start" : "end");
  switch (e.kind) {
    case faults::FaultKind::ProcessCrash:
    case faults::FaultKind::ServerDeath:
      // Same mechanics in rt: the daemon is the process, and a dead server
      // takes it down with the machine. On-"disk" replicas survive either
      // way (block placement is the master's static replica map).
      if (t.start) {
        record(t.at, "inject " + e.describe());
        master_.slave(e.node).crash();
      } else {
        record(t.at, "restore " + e.describe());
        master_.slave(e.node).restart();
      }
      break;
    case faults::FaultKind::Partition:
      if (t.start) {
        record(t.at, "inject " + e.describe());
        if (partitions_[e.node]++ == 0) master_.slave(e.node).set_partitioned(true);
      } else {
        record(t.at, "heal " + e.describe());
        if (--partitions_[e.node] == 0) master_.slave(e.node).set_partitioned(false);
      }
      break;
    case faults::FaultKind::IoErrors:
      // The hook evaluates the window against the wall clock; transitions
      // only mark the boundaries in the trace.
      record(t.at, (t.start ? "open " : "close ") + e.describe());
      break;
    case faults::FaultKind::DiskDegradation: {
      auto& factors = degradations_[e.node];
      if (t.start) {
        record(t.at, "inject " + e.describe());
        factors.push_back(e.factor);
      } else {
        record(t.at, "restore " + e.describe());
        auto it = std::find(factors.begin(), factors.end(), e.factor);
        if (it != factors.end()) factors.erase(it);
      }
      double product = 1.0;
      for (double f : factors) product *= f;
      // The degradation factor rides on the device separately from its
      // nominal rate, so a concurrent reconfiguration of the nominal
      // bandwidth is never clobbered by a fault window (or its restore).
      master_.slave(e.node).disk().set_degradation(product);
      break;
    }
  }
  if (after_event) after_event();
}

bool RtFaultInjector::wait_done(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  return done_cv_.wait_for(lock, timeout, [this] { return done_; });
}

void RtFaultInjector::stop() {
  if (!timeline_.joinable()) return;
  timeline_.request_stop();
  sleep_cv_.notify_all();
  timeline_.join();
  // Uninstall the read-fault hooks: they reference this injector's IoState,
  // which dies with it, and the slaves outlive the injector.
  for (auto& [node, state] : io_states_) {
    master_.slave(node).set_read_fault_hook(nullptr);
  }
  // Leave the cluster healthy: restore bandwidths and heal partitions the
  // timeline never got to end.
  for (auto& [node, factors] : degradations_) {
    if (!factors.empty()) {
      factors.clear();
      master_.slave(node).disk().set_degradation(1.0);
    }
  }
  for (auto& [node, nesting] : partitions_) {
    if (nesting > 0) {
      nesting = 0;
      master_.slave(node).set_partitioned(false);
    }
  }
}

}  // namespace dyrs::rt
