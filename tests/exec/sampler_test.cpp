#include "exec/sampler.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dyrs::exec {
namespace {

using obs::Gauge;
using obs::MemorySink;
using obs::MetricsRegistry;
using obs::ObsContext;
using obs::Tracer;

TEST(PeriodicSampler, TicksOnCadenceAndRecordsSeries) {
  sim::Simulator sim;
  MetricsRegistry registry;
  PeriodicSampler sampler(sim, ObsContext(&registry, nullptr), seconds(1));

  int calls = 0;
  sampler.add_probe("p", [&calls]() { return static_cast<double>(++calls); });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  sim.run_until(milliseconds(3500));

  const TimeSeries& ts = sampler.series("p");
  ASSERT_EQ(ts.size(), 3u);  // first sample one cadence in, none at t=0
  EXPECT_EQ(ts.points()[0].time, seconds(1));
  EXPECT_EQ(ts.points()[2].time, seconds(3));
  EXPECT_DOUBLE_EQ(ts.points()[2].value, 3.0);

  // The registry gauge mirrors the latest value.
  const Gauge* g = registry.find_gauge("p");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);

  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sim.run_until(seconds(10));
  EXPECT_EQ(sampler.series("p").size(), 3u);  // no ticks after stop
}

TEST(PeriodicSampler, EmitsOneSampleEventPerProbePerTick) {
  sim::Simulator sim;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  PeriodicSampler sampler(sim, ObsContext(nullptr, &tracer), seconds(2));
  sampler.add_probe("a", []() { return 1.5; });
  sampler.add_probe("b", []() { return 2.5; });
  sampler.start();
  sim.run_until(seconds(4));

  ASSERT_EQ(sink.events().size(), 4u);  // 2 ticks x 2 probes
  EXPECT_EQ(sink.events()[0].type, "sample");
  EXPECT_EQ(sink.events()[0].str("name"), "a");
  EXPECT_DOUBLE_EQ(sink.events()[0].f64("value"), 1.5);
  EXPECT_EQ(sink.events()[1].str("name"), "b");  // registration order within a tick
  EXPECT_EQ(sink.events()[2].at, seconds(4));
}

TEST(PeriodicSampler, SampleNowWorksWithoutStart) {
  sim::Simulator sim;
  PeriodicSampler sampler(sim, ObsContext{}, seconds(1));
  sampler.add_probe("p", []() { return 7.0; });
  sampler.sample_now();
  ASSERT_EQ(sampler.series("p").size(), 1u);
  EXPECT_EQ(sampler.series("p").points()[0].time, 0);
  EXPECT_DOUBLE_EQ(sampler.series("p").points()[0].value, 7.0);
}

TEST(PeriodicSampler, RejectsBadProbesAndCadence) {
  sim::Simulator sim;
  EXPECT_THROW(PeriodicSampler(sim, ObsContext{}, 0), CheckError);

  PeriodicSampler sampler(sim, ObsContext{}, seconds(1));
  sampler.add_probe("p", []() { return 0.0; });
  EXPECT_THROW(sampler.add_probe("p", []() { return 1.0; }), CheckError);
  EXPECT_THROW(sampler.add_probe("q", nullptr), CheckError);
  EXPECT_THROW(sampler.series("missing"), CheckError);
}

TEST(PeriodicSampler, PerProbeCadenceOverride) {
  sim::Simulator sim;
  PeriodicSampler sampler(sim, ObsContext{}, seconds(2));
  sampler.add_probe("coarse", []() { return 1.0; });
  sampler.add_probe("fine", []() { return 2.0; }, milliseconds(500));
  EXPECT_EQ(sampler.probe_cadence("coarse"), seconds(2));
  EXPECT_EQ(sampler.probe_cadence("fine"), milliseconds(500));

  sampler.start();
  sim.run_until(seconds(4));

  // Global probe: t=2s, 4s. Override probe: every 500ms -> 8 samples.
  EXPECT_EQ(sampler.series("coarse").size(), 2u);
  ASSERT_EQ(sampler.series("fine").size(), 8u);
  EXPECT_EQ(sampler.series("fine").points()[0].time, milliseconds(500));
  EXPECT_EQ(sampler.series("fine").points()[7].time, seconds(4));

  // stop() silences override timers too.
  sampler.stop();
  sim.run_until(seconds(10));
  EXPECT_EQ(sampler.series("fine").size(), 8u);
}

TEST(PeriodicSampler, CoincidingTicksKeepDeterministicOrder) {
  // When a global tick and an override tick land on the same instant, the
  // global-cadence probes fire first (their timer was created first), then
  // override probes in registration order — traces stay byte-stable.
  sim::Simulator sim;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  PeriodicSampler sampler(sim, ObsContext(nullptr, &tracer), seconds(2));
  sampler.add_probe("fast", []() { return 1.0; }, seconds(1));
  sampler.add_probe("global", []() { return 2.0; });
  sampler.start();
  sim.run_until(seconds(2));

  // t=1s: fast. t=2s: global (shared timer first), then fast.
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].str("name"), "fast");
  EXPECT_EQ(sink.events()[0].at, seconds(1));
  EXPECT_EQ(sink.events()[1].str("name"), "global");
  EXPECT_EQ(sink.events()[1].at, seconds(2));
  EXPECT_EQ(sink.events()[2].str("name"), "fast");
  EXPECT_EQ(sink.events()[2].at, seconds(2));
}

TEST(PeriodicSampler, ExplicitGlobalCadenceBehavesLikeDefault) {
  sim::Simulator sim;
  PeriodicSampler sampler(sim, ObsContext{}, seconds(1));
  // Passing the global cadence explicitly is normalized to "follow global":
  // one shared timer, registration order within the tick.
  sampler.add_probe("explicit", []() { return 1.0; }, seconds(1));
  EXPECT_EQ(sampler.probe_cadence("explicit"), seconds(1));
  sampler.start();
  sim.run_until(seconds(3));
  EXPECT_EQ(sampler.series("explicit").size(), 3u);
}

TEST(PeriodicSampler, RejectsCadenceMisuse) {
  sim::Simulator sim;
  PeriodicSampler sampler(sim, ObsContext{}, seconds(1));
  EXPECT_THROW(sampler.add_probe("neg", []() { return 0.0; }, -seconds(1)), CheckError);
  EXPECT_THROW(sampler.probe_cadence("missing"), CheckError);
  sampler.add_probe("ok", []() { return 0.0; });
  sampler.start();
  EXPECT_THROW(sampler.add_probe("late", []() { return 0.0; }, seconds(2)), CheckError);
}

TEST(PeriodicSampler, ProbeNamesInRegistrationOrder) {
  sim::Simulator sim;
  PeriodicSampler sampler(sim, ObsContext{}, seconds(1));
  sampler.add_probe("z", []() { return 0.0; });
  sampler.add_probe("a", []() { return 0.0; });
  const auto names = sampler.probe_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "z");
  EXPECT_EQ(names[1], "a");
}

}  // namespace
}  // namespace dyrs::exec
