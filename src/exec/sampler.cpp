#include "exec/sampler.h"

#include "common/check.h"

namespace dyrs::exec {

PeriodicSampler::PeriodicSampler(sim::Simulator& sim, const obs::ObsContext& obs,
                                 SimDuration cadence)
    : sim_(sim), obs_(obs), cadence_(cadence) {
  DYRS_CHECK(cadence > 0);
  if (obs_.probes() != nullptr) {
    for (auto& entry : obs_.probes()->take()) {
      add_probe(entry.name, std::move(entry.probe), entry.cadence);
    }
  }
}

PeriodicSampler::~PeriodicSampler() {
  timer_.cancel();
  for (auto& t : own_timers_) t.cancel();
}

void PeriodicSampler::add_probe(const std::string& name, Probe probe, SimDuration cadence) {
  DYRS_CHECK_MSG(probe != nullptr, "null probe " << name);
  DYRS_CHECK_MSG(cadence >= 0, "negative cadence for probe " << name);
  DYRS_CHECK_MSG(!running_, "add_probe after start: " << name);
  for (const auto& e : entries_) {
    DYRS_CHECK_MSG(e.name != name, "duplicate probe " << name);
  }
  Entry entry;
  entry.name = name;
  entry.probe = std::move(probe);
  entry.series = TimeSeries(name);
  entry.cadence = cadence == cadence_ ? 0 : cadence;  // explicit global = default
  entry.gauge = obs_.gauge(name);
  entries_.push_back(std::move(entry));
}

void PeriodicSampler::start() {
  if (running_) return;
  running_ = true;
  // One shared timer drives every global-cadence probe (registration order
  // within the tick); each override gets its own timer, created in
  // registration order so interleaving at coinciding times is fixed.
  timer_ = sim_.every(cadence_, [this]() {
    for (auto& e : entries_) {
      if (e.cadence == 0) sample_entry(e);
    }
  });
  for (auto& e : entries_) {
    if (e.cadence == 0) continue;
    Entry* entry = &e;  // entries_ is append-only and start() forbids adds
    own_timers_.push_back(sim_.every(e.cadence, [this, entry]() { sample_entry(*entry); }));
  }
}

void PeriodicSampler::stop() {
  timer_.cancel();
  for (auto& t : own_timers_) t.cancel();
  own_timers_.clear();
  running_ = false;
}

void PeriodicSampler::sample_entry(Entry& e) {
  const SimTime now = sim_.now();
  const double v = e.probe();
  e.series.record(now, v);
  if (e.gauge != nullptr) e.gauge->set(v);
  if (obs_.tracing()) {
    obs_.emit(obs::TraceEvent(now, "sample").with("name", e.name).with("value", v));
  }
}

void PeriodicSampler::sample_now() {
  for (auto& e : entries_) sample_entry(e);
}

SimDuration PeriodicSampler::probe_cadence(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.cadence == 0 ? cadence_ : e.cadence;
  }
  DYRS_CHECK_MSG(false, "no probe named " << name);
  throw CheckError("unreachable");  // silences -Wreturn-type; check throws
}

const TimeSeries& PeriodicSampler::series(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.series;
  }
  DYRS_CHECK_MSG(false, "no probe named " << name);
  throw CheckError("unreachable");  // silences -Wreturn-type; check throws
}

std::vector<std::string> PeriodicSampler::probe_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& e : entries_) names.push_back(e.name);
  return names;
}

}  // namespace dyrs::exec
