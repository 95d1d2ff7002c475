// Rt-backend workload: rt-drain-traced.
//
// A run drains rounds of one seeded 2,000-block backlog, each through a
// fresh rt::RtMaster with three slaves, until the measured drain time adds
// up to --seconds. Every RtMaster::Options field except the slaves and the
// observability handle stays at its default, so the numbers are what an
// untuned caller gets. Blocks are 4 KiB on a 2 GiB/s token bucket, so the
// master/slave exchange, not the disk, limits throughput. A
// ThreadLocalBufferSink is attached, as when tracing is left on in the rt
// hot path. A round is timed from migrate() until its trace is merged and
// written, so moving cost from emission to export still shows.
//
// Every round must settle every block with consistent per-node and per-job
// accounting, and its trace must pass obs::TraceInvariants (Rt).
#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/master.h"

namespace perfbench {
namespace {

using namespace dyrs;
using namespace std::chrono_literals;

// Rounds of 2,000 blocks: at 6,000 the periodic full retarget sweep, which
// holds the master mutex for time that grows with the backlog, fed back on
// the drain rate and rounds varied by +-20% between runs; at 2,000 they
// vary by a few percent.
constexpr int kBlocks = 2000;
constexpr int kJobs = 8;
constexpr int kSlaves = 3;

/// Each block lives on two of the three nodes. Every run of three blocks
/// uses each node pair once, in an order the seed shuffles.
std::vector<rt::RtBlock> make_backlog(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<NodeId>> pairs = {
      {NodeId(0), NodeId(1)}, {NodeId(1), NodeId(2)}, {NodeId(2), NodeId(0)}};
  std::vector<rt::RtBlock> blocks;
  blocks.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    if (i % kSlaves == 0) std::shuffle(pairs.begin(), pairs.end(), rng);
    blocks.push_back({BlockId(i), 4 * kKiB, pairs[static_cast<std::size_t>(i % kSlaves)],
                      JobId(1 + i % kJobs)});
  }
  return blocks;
}

struct Round {
  double setup_s = 0;
  double measured_s = 0;  // migrate() through trace export
  long completed = 0;
  long memory_admissions = 0;
  std::size_t events = 0;
  double trace_mib = 0;
  std::vector<double> pull_us;
  double pulls = 0;
  double retarget_passes = 0;
  double demoted = 0;
  double skew = 0;
  long bad = 0;  // blocks this round failed on
  std::string why;
};

/// One round on a fresh master; `spans` records the driver-side spans.
Round run_round(const std::vector<rt::RtBlock>& backlog, SpanRecorder* spans,
                const std::string& trace_path) {
  Round r;
  obs::MetricsRegistry registry;
  obs::ThreadLocalBufferSink sink;
  obs::Tracer tracer;
  std::unique_ptr<rt::RtMaster> master;
  std::vector<obs::TraceEvent> events;

  bool drained = false;
  {
    // The round span covers set-up and the measured drain; its self time
    // is the driver's own share of the round.
    PERFBENCH_SPAN(spans, "round");
    Clock::time_point t = Clock::now();
    {
      PERFBENCH_SPAN(spans, "setup.master");
      rt::RtMaster::Options options;
      for (int n = 0; n < kSlaves; ++n) {
        rt::RtSlave::Options slave;
        slave.node = NodeId(n);
        slave.disk_bandwidth = mib_per_sec(2048);
        slave.heartbeat_interval = 5ms;
        slave.reference_block = 64 * kKiB;
        options.slaves.push_back(slave);
      }
      tracer.set_sink(&sink);
      options.obs = obs::ObsContext(&registry, &tracer);
      master = std::make_unique<rt::RtMaster>(std::move(options));
    }
    r.setup_s = seconds_since(t);

    t = Clock::now();
    {
      PERFBENCH_SPAN(spans, "rt.migrate");
      master->migrate(backlog);
    }
    {
      PERFBENCH_SPAN(spans, "rt.drain");
      drained = master->wait_idle(60s);
    }
    if (drained) {
      {
        PERFBENCH_SPAN(spans, "obs.merge");
        events = sink.merge_thread_buffers();
      }
      PERFBENCH_SPAN(spans, "obs.write");
      sink.write_jsonl(trace_path);
    }
    r.measured_s = seconds_since(t);
  }
  master->shutdown();

  // --- correctness ---------------------------------------------------------
  std::ostringstream why;
  r.completed = master->completed();
  if (!drained) why << "wait_idle timed out; ";
  if (r.completed != static_cast<long>(backlog.size())) {
    why << "completed " << r.completed << " of " << backlog.size() << " blocks; ";
  }
  long node_sum = 0;
  long node_max = 0;
  long node_min = -1;
  for (const auto& [node, n] : master->completed_per_node()) {
    node_sum += n;
    node_max = std::max(node_max, n);
    node_min = node_min < 0 ? n : std::min(node_min, n);
  }
  if (node_sum != r.completed) {
    why << "per-node completions sum to " << node_sum << ", not " << r.completed << "; ";
  }
  std::map<JobId, long> expected;
  for (const auto& b : backlog) ++expected[b.job];
  const auto per_job = master->completed_per_job();
  long job_sum = 0;
  for (const auto& [job, n] : per_job) job_sum += n;
  for (const auto& [job, n] : expected) {
    auto it = per_job.find(job);
    if (it == per_job.end() || it->second != n) {
      why << "job " << job.value() << " completed "
          << (it == per_job.end() ? 0 : it->second) << " of " << n << "; ";
    }
  }
  if (job_sum != r.completed) {
    why << "per-job completions sum to " << job_sum << ", not " << r.completed << "; ";
  }
  r.skew = node_min > 0 ? static_cast<double>(node_max) / static_cast<double>(node_min) : 0.0;
  for (NodeId id : master->nodes()) {
    for (const auto& d : master->slave(id).tier_log()) {
      if (d.from == Tier::Disk && d.to == Tier::Memory) ++r.memory_admissions;
    }
  }
  if (drained) {
    r.events = events.size();
    r.trace_mib = static_cast<double>(std::filesystem::file_size(trace_path)) /
                  static_cast<double>(kMiB);
    obs::TraceInvariants oracle;
    oracle.profile = obs::TraceInvariants::Profile::Rt;
    oracle.flag_open_lifecycles = true;
    const obs::InvariantReport report = oracle.check(obs::TraceReader(std::move(events)));
    if (!report.ok()) why << "trace invariants violated: " << report.summary() << "; ";
  }
  r.why = why.str();
  if (!r.why.empty()) r.bad = static_cast<long>(backlog.size());

  // --- per-layer counts from the program's registry -----------------------
  for (NodeId id : master->nodes()) {
    const std::string name = "node" + std::to_string(id.value()) + ".rt.pull_us";
    if (registry.find_histogram(name) != nullptr) {
      const auto& s = registry.histogram(name).samples().samples();
      r.pull_us.insert(r.pull_us.end(), s.begin(), s.end());
    }
  }
  auto count = [&](const char* name) {
    const obs::Counter* c = registry.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  r.pulls = count("rt.pulls");
  r.retarget_passes = count("rt.retarget.passes");
  r.demoted = count("dyrs.migrations.demoted");
  return r;
}

}  // namespace

Outcome run_rt_drain_traced(const Args& args) {
  Outcome out;
  const std::vector<rt::RtBlock> backlog = make_backlog(args.seed);
  const std::string trace_path = args.out_dir + "/rt-trace.jsonl";
  SpanRecorder spans(args.workload + "-" + std::to_string(args.seed));
  std::vector<Round> rounds;
  auto account = [&](const Round& r) {
    out.attempted += static_cast<long>(backlog.size());
    out.failed += r.bad;
    if (!r.why.empty()) out.fail("round " + std::to_string(rounds.size() - 1) + ": " + r.why);
  };

  // One untimed round first, so thread-local trace buffers, allocator
  // arenas and page mappings are warm before anything is measured.
  rounds.push_back(run_round(backlog, nullptr, trace_path));
  account(rounds.back());

  if (!args.trace) {
    double measured = 0, blocks = 0, admitted = 0;
    std::vector<double> setup, round_s;
    while (rounds.size() < 3 || measured < args.seconds) {
      rounds.push_back(run_round(backlog, nullptr, trace_path));
      const Round& r = rounds.back();
      account(r);
      measured += r.measured_s;
      blocks += static_cast<double>(r.completed);
      admitted += static_cast<double>(r.memory_admissions);
      setup.push_back(r.setup_s);
      round_s.push_back(r.measured_s);
    }
    out.set("blocks_per_s", blocks / measured);
    out.set("jobs_per_s", static_cast<double>(kJobs * round_s.size()) / measured);
    out.set("job_p50_s", median(round_s));
    out.set("mem_read_frac", blocks > 0 ? admitted / blocks : 0.0);
    out.set("setup_s", median(setup));
    out.set("peak_rss_mib", peak_rss_mib());
    std::cout << "rounds: " << rounds.size() << ", measured " << measured << " s, "
              << static_cast<long>(blocks) << " blocks\n";
    return out;
  }

  // Traced run: alternate rounds without and with the driver's spans.
  std::vector<double> untraced_wall, traced_wall;
  std::vector<int> roots;
  double elapsed = 0;
  while (roots.empty() || elapsed < args.seconds) {
    Clock::time_point t = Clock::now();
    rounds.push_back(run_round(backlog, nullptr, trace_path));
    account(rounds.back());
    untraced_wall.push_back(rounds.back().setup_s + rounds.back().measured_s);
    elapsed += seconds_since(t);
    t = Clock::now();
    rounds.push_back(run_round(backlog, &spans, trace_path));
    account(rounds.back());
    traced_wall.push_back(rounds.back().setup_s + rounds.back().measured_s);
    roots.push_back(spans.roots("round").back());
    elapsed += seconds_since(t);
  }
  const Round& last = rounds.back();

  auto per_root = [&](const char* name, bool self) {
    std::vector<double> v;
    for (int root : roots) {
      if (self) {
        v.push_back(spans.self_total(name, root));
      } else {
        double s = 0;
        for (double d : spans.durations(name, root)) s += d;
        v.push_back(s);
      }
    }
    return median(v);
  };
  out.set("setup.master_s", per_root("setup.master", false));
  out.set("rt.migrate_call_ms", per_root("rt.migrate", false) * 1e3);
  out.set("rt.drain_s", per_root("rt.drain", false));
  out.set("loop.residual_s", per_root("round", true));
  out.set("rt.pull_us.p50", quantile(last.pull_us, 0.5));
  out.set("rt.pull_us.p99", quantile(last.pull_us, 0.99));
  out.set("rt.pulls", last.pulls);
  out.set("rt.blocks_per_pull", last.pulls > 0 ? static_cast<double>(last.completed) / last.pulls
                                               : 0.0);
  out.set("rt.retarget.passes", last.retarget_passes);
  out.set("rt.completed_skew", last.skew);
  out.set("dyrs.migrations.demoted", last.demoted);
  out.set("obs.events", static_cast<double>(last.events));
  out.set("obs.merge_ms", per_root("obs.merge", false) * 1e3);
  out.set("obs.write_ms", per_root("obs.write", false) * 1e3);
  out.set("obs.trace_mib", last.trace_mib);
  out.set("trace.overhead_s", median(traced_wall) - median(untraced_wall));
  out.set("trace.spans",
          static_cast<double>(spans.spans().size()) / static_cast<double>(roots.size()));
  const std::string path =
      args.out_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
  spans.write_jsonl(path);
  std::cout << "rounds: " << rounds.size() << "; spans: " << spans.spans().size()
            << " written to " << path << "\n";
  return out;
}

}  // namespace perfbench
