// Sim-backend workloads: swim-scale and burst-backlog.
//
// A run repeats one seed's scenario on a fresh exec::Testbed until the
// measured simulation loops add up to --seconds. Set-up (testbed, warm-up,
// input files, job install) is timed apart from the loop. Every repetition
// must finish all jobs and reproduce the first repetition's deterministic
// outputs exactly.
//
// Untraced runs make each repetition in a forked process of its own. On a
// shared VM one process's repetitions ran at a level of their own:
// processes running the same scenario one after another settled anywhere
// from 0.7 to 1.4 s a loop, so a run made in one process measured that
// process's level more than the program. The median over a run's few dozen
// processes averages those levels out.
//
// The host's speed for this allocation-heavy, pointer-chasing loop also
// drifted by a third within minutes: ten-seed sets of 45 s runs spread
// 20-24% of their median, at the largest bound the benchmark may set. So
// each repetition process first times reference_seconds and the
// untraced sim times are reported in reference seconds: wall time scaled by
// kReferenceNominalS over the reference's time in that process. The wall
// figures are printed beside the scaled ones.
//
// Traced runs alternate untraced repetitions (the overhead baseline) with
// repetitions whose calls across the MigrationService boundary go through
// TimedService, then add one repetition with the program's own tracer on,
// whose trace must pass obs::TraceInvariants.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "dyrs/master.h"
#include "dyrs/service.h"
#include "exec/testbed.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "workloads/swim.h"

namespace perfbench {
namespace {

using namespace dyrs;

/// Forwarding decorator on the MigrationService boundary, installed with
/// the public Engine::set_migration_service. It times each call the engine
/// and the DFS client make into the master and samples the control plane's
/// pending depth after each. The master keeps the job-liveness query the
/// testbed wired at construction.
class TimedService final : public core::MigrationService {
 public:
  TimedService(core::MigrationMaster& master, SpanRecorder* spans)
      : master_(master), spans_(spans) {}

  void migrate_files(JobId job, const std::vector<std::string>& files,
                     core::EvictionMode mode) override {
    {
      PERFBENCH_SPAN(spans_, "dyrs.migrate_files");
      master_.migrate_files(job, files, mode);
    }
    note_pending();
  }
  void migrate_blocks(JobId job, const std::vector<BlockId>& blocks,
                      core::EvictionMode mode) override {
    {
      PERFBENCH_SPAN(spans_, "dyrs.migrate_blocks");
      master_.migrate_blocks(job, blocks, mode);
    }
    note_pending();
  }
  void evict_job(JobId job) override {
    PERFBENCH_SPAN(spans_, "dyrs.evict_job");
    master_.evict_job(job);
  }
  void on_job_finished(JobId job) override {
    {
      PERFBENCH_SPAN(spans_, "dyrs.job_finished");
      master_.on_job_finished(job);
    }
    note_pending();
  }
  void on_blocks_deleted(const std::vector<BlockId>& blocks) override {
    master_.on_blocks_deleted(blocks);
  }
  std::string name() const override { return master_.name(); }
  void on_read_started(BlockId block, JobId job) override {
    {
      PERFBENCH_SPAN(spans_, "dyrs.read_hooks");
      master_.on_read_started(block, job);
    }
    note_pending();
  }
  void on_read_completed(BlockId block, JobId job, const dfs::ReadInfo& info) override {
    {
      PERFBENCH_SPAN(spans_, "dyrs.read_hooks");
      master_.on_read_completed(block, job, info);
    }
    note_pending();
  }

  std::size_t pending_peak() const { return pending_peak_; }

 private:
  void note_pending() { pending_peak_ = std::max(pending_peak_, master_.pending_count()); }

  core::MigrationMaster& master_;
  SpanRecorder* spans_;
  std::size_t pending_peak_ = 0;
};

/// Everything a repetition needs, generated from the seed once per run.
struct Scenario {
  exec::TestbedConfig config;
  std::vector<std::pair<int, int>> slow_nodes;  // (node, interference width)
  std::vector<std::pair<std::string, Bytes>> files;
  /// Job specs with submission offsets from the end of warm-up.
  std::vector<std::pair<exec::JobSpec, SimDuration>> jobs;
  SimDuration horizon = hours(48);
};

/// The paper's per-node testbed (§V-A) at `num_nodes` datanodes.
exec::TestbedConfig paper_config(int num_nodes, std::uint64_t seed) {
  exec::TestbedConfig c;
  c.num_nodes = num_nodes;
  c.disk_bandwidth = mib_per_sec(160);
  c.seek_alpha = 0.15;
  c.node_memory = gib(128);
  c.block_size = mib(256);
  c.replication = 3;
  c.placement_seed = seed;
  c.map_slots_per_node = 12;
  c.reduce_slots_per_node = 6;
  c.scheme = exec::Scheme::Dyrs;
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = c.block_size;
  c.master.seed = seed + 17;
  return c;
}

/// Migrates and evicts a scratch file so estimators start warm, as the
/// paper's long-running datanodes are.
void warm_up_estimators(exec::Testbed& tb) {
  const std::string scratch = "/__estimator_warmup";
  const JobId warmup(1'000'000);
  tb.load_file(scratch, gib(2));
  tb.master()->migrate_files(warmup, {scratch}, core::EvictionMode::Explicit);
  tb.simulator().run_until(tb.simulator().now() + seconds(60));
  tb.master()->evict_job(warmup);
  tb.remove_file(scratch);
}

std::int64_t counter_value(exec::Testbed& tb, const std::string& name) {
  const obs::Counter* c = tb.registry().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

const char* const kCounters[] = {
    "exec.jobs.completed",        "exec.maps.completed",        "dfs.reads.local-memory",
    "dfs.reads.remote-memory",    "dfs.reads.local-disk",       "dfs.reads.remote-disk",
    "dyrs.migrations.enqueued",   "dyrs.migrations.bound",      "dyrs.migrations.completed",
    "dyrs.migrations.cancelled",  "dyrs.migrations.demoted",
};

struct Rep {
  double reference_s = 0;  // reference_seconds in the repetition's process
  double setup_s = 0;
  double run_s = 0;
  long submitted = 0;
  long finished = 0;
  long maps = 0;
  double job_p50_s = 0;
  double job_p99_s = 0;
  double mem_read_frac = 0;
  std::size_t events = 0;
  std::uint64_t fingerprint = 0;
  std::map<std::string, double> layer;  // per-layer values this rep measured
  bool invariants_ok = true;
  std::string invariants_summary;
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

/// One repetition on a fresh testbed. `spans` non-null installs the
/// boundary decorator; `program_trace` attaches an in-memory sink to the
/// program's tracer and checks the trace.
Rep run_rep(const Scenario& sc, SpanRecorder* spans, bool program_trace) {
  Rep rep;
  std::optional<TimedService> timed;  // declared first: outlives the testbed
  std::unique_ptr<exec::Testbed> tb;
  obs::MemorySink* sink = nullptr;

  const Clock::time_point t0 = Clock::now();
  PERFBENCH_SPAN(spans, "rep");
  {
    PERFBENCH_SPAN(spans, "setup.testbed");
    tb = std::make_unique<exec::Testbed>(sc.config);
    for (const auto& [node, width] : sc.slow_nodes) {
      tb->add_persistent_interference(NodeId(node), width);
    }
  }
  if (program_trace) sink = &tb->trace_to_memory();
  {
    PERFBENCH_SPAN(spans, "setup.warmup");
    warm_up_estimators(*tb);
  }
  {
    PERFBENCH_SPAN(spans, "setup.load");
    for (const auto& [name, size] : sc.files) tb->load_file(name, size);
  }
  const SimTime start = tb->simulator().now();
  {
    PERFBENCH_SPAN(spans, "setup.install");
    for (const auto& [spec, offset] : sc.jobs) tb->submit_at(spec, start + offset);
  }
  if (spans != nullptr) {
    timed.emplace(*tb->master(), spans);
    tb->engine().set_migration_service(&*timed);
  }
  std::map<std::string, std::int64_t> before;
  for (const char* name : kCounters) before[name] = counter_value(*tb, name);
  const std::size_t wait_samples0 =
      tb->registry().histogram("dyrs.migration.pending_wait_s").samples().count();
  std::map<NodeId, std::size_t> tier_log0;
  for (NodeId id : tb->cluster().node_ids()) {
    tier_log0[id] = tb->master()->slave(id).buffers().tier_log().size();
  }
  const std::size_t events0 = tb->simulator().events_executed();
  rep.setup_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  SimTime end = 0;
  {
    PERFBENCH_SPAN(spans, "sim.run");
    end = tb->run(start + sc.horizon);
  }
  rep.run_s = seconds_since(t1);

  // --- deterministic outputs -------------------------------------------
  const exec::Metrics& m = tb->metrics();
  rep.submitted = static_cast<long>(sc.jobs.size());
  rep.finished = static_cast<long>(m.jobs().size());
  rep.events = tb->simulator().events_executed() - events0;
  std::vector<double> durations, leads;
  Fnv fp;
  for (const auto& job : m.jobs()) {
    durations.push_back(job.duration_s());
    leads.push_back(job.lead_time_s());
    fp.add(job.id.value());
    fp.add(job.first_task_start);
    fp.add(job.finished);
  }
  for (const auto& task : m.tasks()) {
    if (task.phase == exec::TaskPhase::Map) ++rep.maps;
    fp.add(task.node.value());
    fp.add(static_cast<std::int64_t>(task.medium));
  }
  fp.add(static_cast<std::int64_t>(rep.events));
  fp.add(end);
  rep.fingerprint = fp.h;
  rep.job_p50_s = median(durations);
  rep.job_p99_s = quantile(durations, 0.99);
  rep.mem_read_frac = m.memory_read_fraction();

  // --- per-layer counts (the program's own counters, over the loop) ------
  auto& L = rep.layer;
  L["sim.events"] = static_cast<double>(rep.events);
  for (const char* name : kCounters) {
    L[name] = static_cast<double>(counter_value(*tb, name) - before[name]);
  }
  L["exec.jobs"] = L["exec.jobs.completed"];
  L["exec.maps"] = L["exec.maps.completed"];
  L["exec.lead_time_sim_s.p50"] = median(leads);
  L["exec.job_sim_p99_s"] = rep.job_p99_s;
  const double enqueued = L["dyrs.migrations.enqueued"];
  const double completed = L["dyrs.migrations.completed"];
  L["dyrs.cancel_frac"] = enqueued > 0 ? L["dyrs.migrations.cancelled"] / enqueued : 0.0;
  L["dyrs.useful_frac"] =
      completed > 0
          ? (L["dfs.reads.local-memory"] + L["dfs.reads.remote-memory"]) / completed
          : 0.0;
  const auto& waits = tb->registry().histogram("dyrs.migration.pending_wait_s").samples();
  std::vector<double> wait_s(waits.samples().begin() + static_cast<long>(wait_samples0),
                             waits.samples().end());
  L["dyrs.migration.pending_wait_s.p50"] = median(wait_s);
  L["dyrs.migration.pending_wait_s.p99"] = quantile(wait_s, 0.99);
  double to_ssd = 0, to_disk = 0, peak_mem = 0, peak_ssd = 0;
  for (NodeId id : tb->cluster().node_ids()) {
    const auto& log = tb->master()->slave(id).buffers().tier_log();
    for (std::size_t i = tier_log0[id]; i < log.size(); ++i) {
      if (log[i].from == Tier::Memory && log[i].to == Tier::Ssd) ++to_ssd;
      if (log[i].to == Tier::Disk) ++to_disk;
    }
    const auto& node = tb->cluster().node(id);
    peak_mem = std::max(peak_mem, node.memory().usage_series().step_max(start, end));
    peak_ssd = std::max(peak_ssd, node.ssd().usage_series().step_max(start, end));
  }
  L["tier.to_ssd"] = to_ssd;
  L["tier.to_disk"] = to_disk;
  L["tier.peak_mem_gib"] = peak_mem / static_cast<double>(gib(1));
  L["tier.peak_ssd_gib"] = peak_ssd / static_cast<double>(gib(1));
  if (timed) L["core.pending_peak"] = static_cast<double>(timed->pending_peak());

  if (sink != nullptr) {
    L["obs.events"] = static_cast<double>(sink->events().size());
    const obs::TraceReader reader(sink->events());
    obs::TraceInvariants oracle;
    oracle.profile = obs::TraceInvariants::Profile::Sim;
    const obs::InvariantReport report = oracle.check(reader);
    rep.invariants_ok = report.ok();
    rep.invariants_summary = report.summary();
  }
  return rep;
}

/// swim-scale: the SWIM generator scaled x20 with the cluster.
Scenario swim_scale(std::uint64_t seed) {
  Scenario sc;
  sc.config = paper_config(140, seed);
  sc.slow_nodes = {{0, 2}};
  wl::SwimConfig swim;
  swim.num_jobs = 4000;
  swim.total_input = gib(170) * 20;
  // x20 jobs on x20 nodes: arrivals 20x denser keep per-node load at the
  // 7-node run's (whose trace is already compressed by 75%).
  swim.interarrival_scale = 0.25 / 20;
  swim.seed = seed;
  const wl::SwimWorkload workload = wl::SwimWorkload::generate(swim);
  exec::JobSpec base;
  base.selectivity = 0.1;
  base.platform_overhead = seconds(5);
  base.task_overhead = milliseconds(200);
  for (const wl::SwimJob& job : workload.jobs()) {
    sc.files.emplace_back(job.file, job.input);
    exec::JobSpec spec = base;
    spec.name = job.name;
    spec.input_files = {job.file};
    spec.shuffle_bytes = job.shuffle;
    spec.output_bytes = job.output;
    spec.num_reducers = job.reducers;
    sc.jobs.emplace_back(std::move(spec), job.submit_at);
  }
  sc.horizon = hours(48);
  return sc;
}

/// burst-backlog: a backlog far larger than the capped migration buffer,
/// with long lead times so nearly every block waits pending. The seed drives
/// block placement and up to 6 s of jitter on each job's lead time; without
/// the jitter every seed would give the same job times.
Scenario burst_backlog(std::uint64_t seed) {
  Scenario sc;
  Rng rng(seed);
  sc.config = paper_config(28, seed);
  sc.config.block_size = mib(32);
  sc.config.master.slave.reference_block = sc.config.block_size;
  sc.config.master.slave.memory_limit = gib(2);
  sc.config.master.tier = {.admit_tier = Tier::Memory,
                           .high_watermark = 0.85,
                           .low_watermark = 0.6,
                           .on_pressure = core::TierPolicy::OnPressure::EvictColdFirst};
  sc.slow_nodes = {{0, 2}, {1, 1}};
  exec::JobSpec base;
  base.selectivity = 0.1;
  base.num_reducers = 2;
  base.platform_overhead = seconds(5);
  base.task_overhead = milliseconds(200);
  base.map_compute_rate = mib_per_sec(200);
  base.eviction = core::EvictionMode::Implicit;
  for (int i = 0; i < 20; ++i) {
    const std::string file = "/burst/input-" + std::to_string(i);
    sc.files.emplace_back(file, gib(32));
    exec::JobSpec spec = base;
    spec.name = "burst-" + std::to_string(i);
    spec.input_files = {file};
    spec.extra_lead_time = seconds(60.0 * i + rng.uniform(0.0, 6.0));
    sc.jobs.emplace_back(std::move(spec), seconds(i));
  }
  sc.horizon = hours(24);
  return sc;
}

/// What reference_seconds took on a 4-vCPU Xeon VM (g++ 12.2, Release) in a
/// quiet period. Times scaled by it over a measured reference read as
/// seconds on that host ("reference seconds").
constexpr double kReferenceNominalS = 0.25;

/// Fixed work whose speed follows the host the way the simulation loop's
/// does: 400k inserts, half of them followed by an erase, into a std::map
/// of up to 200k keys, so node allocation and tree walks dominate. On the
/// VM above, five 45 s burst-backlog runs spread 2.9% of their median in
/// reference seconds; unscaled sets of 45 s runs spread 17-24%.
double reference_seconds() {
  std::map<int, int> tree;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 400'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tree[static_cast<int>(x % 200'000)] = i;
    if (i % 2 != 0) {
      auto it = tree.lower_bound(static_cast<int>((x >> 20) % 200'000));
      tree.erase(it == tree.end() ? tree.begin() : it);
    }
  }
  const double elapsed = seconds_since(t0);
  if (tree.empty()) throw std::runtime_error("reference kernel did no work");
  return elapsed;
}

/// The part of a Rep an untraced run needs, as a repetition process sends
/// it to the parent.
struct RepSample {
  double reference_s;
  double setup_s;
  double run_s;
  long submitted;
  long finished;
  long maps;
  double job_p50_s;
  double job_p99_s;
  double mem_read_frac;
  std::size_t events;
  std::uint64_t fingerprint;
  double peak_rss_mib;
};

/// Runs reference_seconds and then one untraced repetition in a forked
/// child, which sends the sample back through a pipe. The parent holds only
/// the scenario and starts no threads, so the fork copies no lock another
/// thread holds. The child dies with the parent; the parent waits for it
/// and throws if it failed.
RepSample sample_in_child(const Scenario& sc) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(3);  // the parent died before prctl
    int code = 0;
    try {
      const double reference_s = reference_seconds();
      const Rep r = run_rep(sc, nullptr, false);
      const RepSample value{reference_s,     r.setup_s, r.run_s,       r.submitted,
                            r.finished,      r.maps,    r.job_p50_s,   r.job_p99_s,
                            r.mem_read_frac, r.events,  r.fingerprint, peak_rss_mib()};
      if (write(fds[1], &value, sizeof value) != static_cast<ssize_t>(sizeof value)) code = 2;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: repetition process: " << e.what() << "\n";
      code = 1;
    }
    _exit(code);
  }
  close(fds[1]);
  RepSample value{};
  std::size_t got = 0;
  while (got < sizeof value) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&value) + got, sizeof value - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || got < sizeof value) {
    throw std::runtime_error("a repetition process failed (wait status " +
                             std::to_string(status) + ")");
  }
  return value;
}

/// sample_in_child as a Rep; folds the child's peak RSS into `peak_rss`.
Rep run_rep_in_child(const Scenario& sc, double& peak_rss) {
  const RepSample sample = sample_in_child(sc);
  Rep r;
  r.reference_s = sample.reference_s;
  r.setup_s = sample.setup_s;
  r.run_s = sample.run_s;
  r.submitted = sample.submitted;
  r.finished = sample.finished;
  r.maps = sample.maps;
  r.job_p50_s = sample.job_p50_s;
  r.job_p99_s = sample.job_p99_s;
  r.mem_read_frac = sample.mem_read_frac;
  r.events = sample.events;
  r.fingerprint = sample.fingerprint;
  peak_rss = std::max(peak_rss, sample.peak_rss_mib);
  return r;
}

void check_rep(const Rep& rep, const Rep& first, int index, Outcome& out) {
  long bad = rep.submitted - rep.finished;
  std::ostringstream why;
  if (rep.finished != rep.submitted) {
    why << "rep " << index << ": " << rep.finished << "/" << rep.submitted
        << " jobs finished before the horizon; ";
  }
  if (rep.fingerprint != first.fingerprint || rep.events != first.events ||
      rep.job_p50_s != first.job_p50_s || rep.mem_read_frac != first.mem_read_frac) {
    why << "rep " << index << ": deterministic outputs differ from rep 0 (events " << rep.events
        << " vs " << first.events << "); ";
    bad = rep.submitted;
  }
  if (!rep.invariants_ok) {
    why << "rep " << index << ": trace invariants violated: " << rep.invariants_summary;
    bad = rep.submitted;
  }
  out.attempted += rep.submitted;
  out.failed += bad;
  if (!why.str().empty()) out.fail(why.str());
}

Outcome run_sim(const Args& args, const Scenario& sc) {
  Outcome out;
  std::vector<Rep> reps;
  std::vector<double> setup, run_s, untraced_wall, traced_wall;
  double run_total = 0;
  SpanRecorder spans(args.workload + "-" + std::to_string(args.seed));

  if (!args.trace) {
    // At least two repetitions, so determinism is checked on every run.
    double peak_rss = 0;
    std::vector<double> scaled_run, scaled_setup, reference;
    while (reps.size() < 2 || run_total < args.seconds) {
      reps.push_back(run_rep_in_child(sc, peak_rss));
      const Rep& r = reps.back();
      const double scale = kReferenceNominalS / r.reference_s;
      setup.push_back(r.setup_s);
      run_s.push_back(r.run_s);
      scaled_setup.push_back(r.setup_s * scale);
      scaled_run.push_back(r.run_s * scale);
      reference.push_back(r.reference_s);
      run_total += r.run_s;
      std::cout << "rep " << reps.size() - 1 << ": reference " << r.reference_s << " s, setup "
                << r.setup_s << " s, run " << r.run_s << " s, " << r.finished << " jobs, "
                << r.events << " events\n";
    }
    // Every repetition does the same work, so the median loop time is the
    // robust rate base.
    const double jobs = static_cast<double>(reps.front().finished);
    const double maps = static_cast<double>(reps.front().maps);
    out.set("jobs_per_s", jobs / median(scaled_run));
    out.set("blocks_per_s", maps / median(scaled_run));
    out.set("job_p50_s", reps.front().job_p50_s);
    out.set("mem_read_frac", reps.front().mem_read_frac);
    out.set("setup_s", median(scaled_setup));
    out.set("peak_rss_mib", peak_rss);
    std::cout << "wall (unscaled): jobs_per_s=" << jobs / median(run_s)
              << " blocks_per_s=" << maps / median(run_s) << " setup_s=" << median(setup)
              << " reference_s=" << median(reference) << "\n";
  } else {
    // Alternate untraced and span-traced repetitions, then one repetition
    // with the program's tracer on for the invariant oracle.
    double elapsed = 0;
    std::vector<int> traced_roots;
    while (traced_roots.empty() || elapsed < args.seconds) {
      reps.push_back(run_rep(sc, nullptr, false));
      untraced_wall.push_back(reps.back().setup_s + reps.back().run_s);
      run_s.push_back(reps.back().run_s);
      reps.push_back(run_rep(sc, &spans, false));
      traced_wall.push_back(reps.back().setup_s + reps.back().run_s);
      traced_roots.push_back(spans.roots("rep").back());
      elapsed += untraced_wall.back() + traced_wall.back();
    }
    reps.push_back(run_rep(sc, nullptr, true));
    const Rep& traced = reps[reps.size() - 2];
    for (const auto& [name, value] : traced.layer) out.set(name, value);
    out.set("obs.events", reps.back().layer["obs.events"]);
    out.set("sim.events_per_s", static_cast<double>(traced.events) / median(run_s));

    auto per_root = [&](auto&& fn) {
      std::vector<double> v;
      for (int root : traced_roots) v.push_back(fn(root));
      return median(v);
    };
    auto sum = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return s;
    };
    out.set("loop.residual_s", per_root([&](int r) { return spans.self_total("sim.run", r); }));
    for (const char* name : {"setup.testbed", "setup.load", "setup.warmup"}) {
      out.set(std::string(name) + "_s",
              per_root([&](int r) { return sum(spans.durations(name, r)); }));
    }
    for (const char* name : {"dyrs.migrate_files", "dyrs.read_hooks", "dyrs.job_finished"}) {
      out.set(std::string(name) + ".total_s",
              per_root([&](int r) { return sum(spans.durations(name, r)); }));
      out.set(std::string(name) + ".p99_us",
              quantile(spans.durations(name, traced_roots.back()), 0.99) * 1e6);
    }
    out.set("trace.overhead_s", median(traced_wall) - median(untraced_wall));
    out.set("trace.spans", static_cast<double>(spans.spans().size()) /
                               static_cast<double>(traced_roots.size()));
    const std::string path =
        args.out_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
    spans.write_jsonl(path);
    std::cout << "spans: " << spans.spans().size() << " written to " << path << "\n";
  }
  for (std::size_t i = 0; i < reps.size(); ++i) {
    check_rep(reps[i], reps.front(), static_cast<int>(i), out);
  }
  std::cout << "deterministic: job_sim_p50_s=" << reps.front().job_p50_s
            << " job_sim_p99_s=" << reps.front().job_p99_s
            << " mem_read_frac=" << reps.front().mem_read_frac
            << " sim.events=" << reps.front().events << " fingerprint=" << std::hex
            << reps.front().fingerprint << std::dec << " reps=" << reps.size() << "\n";
  return out;
}

}  // namespace

Outcome run_swim_scale(const Args& args) { return run_sim(args, swim_scale(args.seed)); }
Outcome run_burst_backlog(const Args& args) { return run_sim(args, burst_backlog(args.seed)); }

}  // namespace perfbench
