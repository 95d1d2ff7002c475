// micro_rt_throughput — sustained drain throughput of the rt exchange.
//
// The rt exchange is one engine with two settable values: the settlement
// shard count and the slaves' drain-batch size. This bench drains a
// backlog of small blocks through three configurations of it and reports
// sustained blocks/s plus the p99 slave pull latency:
//
//   per-block   shards 1, drain_batch 1  — one settlement lock, one timer
//               sleep and one completion report per block
//   batched     shards 1, drain_batch 16 — token-bucket batched reads and
//               coalesced completion reports, still one settlement lock
//   sharded     shards 8, drain_batch 16 — the full throughput path:
//               settlement striped over eight shard locks
//
// swept over slave count x local queue depth. Blocks are deliberately tiny
// (4 KiB at 2 GiB/s, ~2us of token time) so the exchange engine — not the
// disk — is the bottleneck, which is exactly the regime where HDFS-scale
// cold-data backlogs (millions of blocks, §V) stress a master. The
// retarget interval is set beyond the run length so Algorithm 1 passes do
// not perturb the measurement: pull-is-the-bind does all the targeting.
//
// All three configurations are observationally equivalent
// (tests/rt/rt_batch_equivalence_test); this bench quantifies what that
// equivalence buys. Results go to stdout and BENCH_rt_throughput.json.
//
//   micro_rt_throughput [--trace FILE]   also run one small traced config
//                                        (batches of 8) and write its merged
//                                        JSONL to FILE — CI runs this twice
//                                        and diffs `dyrsctl trace
//                                        --span-seq`, proving the
//                                        throughput path keeps the
//                                        determinism contract.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/bench_util.h"
#include "common/summary.h"
#include "common/table.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "rt/master.h"

using namespace dyrs;
using namespace std::chrono_literals;

namespace {

using clock_type = std::chrono::steady_clock;
using Exchange = rt::RtMaster::Options::ExchangeConfig;

struct ConfigSpec {
  const char* name;
  Exchange exchange;
};

struct Result {
  double wall_s = 0;
  double blocks_per_s = 0;
  double p99_pull_us = 0;
  bool drained = false;
};

/// Drains `blocks` 4 KiB migrations (every node a replica, so targeting
/// never starves a slave) through one exchange configuration and measures
/// wall time from migrate() to idle.
Result run(const ConfigSpec& config, int slaves, int depth, int blocks) {
  obs::MetricsRegistry registry;

  rt::RtMaster::Options options;
  for (int n = 0; n < slaves; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = mib_per_sec(2048);
    slave.queue_capacity = depth;
    slave.heartbeat_interval = 5ms;
    slave.reference_block = 64 * kKiB;
    options.slaves.push_back(slave);
  }
  options.exchange = config.exchange;
  options.retarget_interval = 10min;  // no mid-run Algorithm 1 passes
  options.obs = obs::ObsContext(&registry, nullptr);
  rt::RtMaster master(std::move(options));

  std::vector<NodeId> everywhere;
  for (int n = 0; n < slaves; ++n) everywhere.push_back(NodeId(n));
  std::vector<rt::RtBlock> work;
  work.reserve(blocks);
  for (int i = 0; i < blocks; ++i) {
    work.push_back({BlockId(i), 4 * kKiB, everywhere, JobId(1)});
  }

  const auto t0 = clock_type::now();
  master.migrate(work);
  Result out;
  out.drained = master.wait_idle(120s) && master.completed() == blocks;
  out.wall_s = std::chrono::duration<double>(clock_type::now() - t0).count();
  master.shutdown();

  out.blocks_per_s = out.drained ? blocks / out.wall_s : 0;
  SampleSet pulls;
  for (int n = 0; n < slaves; ++n) {
    const std::string name = "node" + std::to_string(n) + ".rt.pull_us";
    if (registry.find_histogram(name) == nullptr) continue;
    for (double s : registry.histogram(name).samples().samples()) pulls.add(s);
  }
  if (!pulls.empty()) out.p99_pull_us = pulls.quantile(0.99);
  return out;
}

/// One small traced run on the full throughput path, written as merged
/// JSONL for `dyrsctl trace`. Deterministic by the equivalence-test recipe:
/// a single Algorithm 1 pass against the cold-estimator snapshot (long
/// retarget interval, startup pass allowed to land first) makes the
/// bindings a pure policy outcome, so two invocations of this binary must
/// produce byte-identical `--span-seq` output.
void write_trace(const std::string& path) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  rt::RtMaster::Options options;
  for (int n = 0; n < 4; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = mib_per_sec(64);
    slave.queue_capacity = 4;
    slave.reference_block = mib(1);
    options.slaves.push_back(slave);
  }
  options.exchange = {.shards = 8, .drain_batch = 8};
  options.retarget_interval = 60s;
  options.obs = obs::ObsContext(&registry, &tracer);
  rt::RtMaster master(std::move(options));

  // Single-replica blocks, like rt_soak's: the schedule is then a forced
  // policy outcome, so the span sequence cannot depend on timing and the
  // chronological policy oracle holds at any margin.
  std::vector<rt::RtBlock> blocks;
  for (int i = 0; i < 24; ++i) {
    rt::RtBlock b;
    b.block = BlockId(i);
    b.size = kKiB * (64ULL << (i % 3));
    b.replicas = {NodeId(i % 4)};
    b.job = JobId(1 + i % 2);
    blocks.push_back(std::move(b));
  }

  // Let the retargeter's startup pass land before the workload does (see
  // tests/rt/rt_batch_equivalence_test for why a pass racing in after
  // migrate() would re-target by timing, not policy).
  std::this_thread::sleep_for(10ms);
  master.migrate(blocks);
  if (!master.wait_idle(30s)) {
    std::cerr << "traced run did not drain\n";
    std::exit(1);
  }
  master.shutdown();
  sink.write_jsonl(path);
  std::cout << "wrote " << path << " (" << sink.merge_thread_buffers().size() << " events)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: micro_rt_throughput [--trace FILE]\n";
      return 2;
    }
  }

  bench::print_header("micro: rt exchange sustained throughput",
                      "sharded/batched exchange vs the single-lock per-block configuration");

  const int blocks = bench::smoke_scaled(24'000, 2'400);
  const ConfigSpec configs[] = {
      {"per-block", {.shards = 1, .drain_batch = 1}},
      {"batched", {.shards = 1, .drain_batch = 16}},
      {"sharded", {.shards = 8, .drain_batch = 16}},
  };
  const int slave_counts[] = {4, 8, 16};
  const int depths[] = {8, 32};

  TextTable table({"config", "slaves", "depth", "wall s", "blocks/s", "p99 pull us"});
  std::ofstream json("BENCH_rt_throughput.json");
  json << "{\"bench\":\"rt_throughput\",\"smoke\":" << (bench::smoke_mode() ? "true" : "false")
       << ",\"blocks\":" << blocks << ",\"rows\":[";
  bool all_drained = true;
  bool first_row = true;
  double one_16 = 0, bat_16 = 0, shd_16 = 0;  // blocks/s at 16 slaves, depth 32
  for (const ConfigSpec& config : configs) {
    for (int slaves : slave_counts) {
      for (int depth : depths) {
        const Result r = run(config, slaves, depth, blocks);
        all_drained = all_drained && r.drained;
        table.add_row({config.name, std::to_string(slaves), std::to_string(depth),
                       TextTable::num(r.wall_s, 3), TextTable::num(r.blocks_per_s, 0),
                       TextTable::num(r.p99_pull_us, 1)});
        json << (first_row ? "" : ",") << "{\"config\":\"" << config.name
             << "\",\"slaves\":" << slaves << ",\"depth\":" << depth << ",\"blocks\":" << blocks
             << ",\"wall_s\":" << r.wall_s << ",\"blocks_per_s\":" << r.blocks_per_s
             << ",\"p99_pull_us\":" << r.p99_pull_us << "}";
        first_row = false;
        if (slaves == 16 && depth == 32) {
          if (!std::strcmp(config.name, "per-block")) one_16 = r.blocks_per_s;
          if (!std::strcmp(config.name, "batched")) bat_16 = r.blocks_per_s;
          if (!std::strcmp(config.name, "sharded")) shd_16 = r.blocks_per_s;
        }
      }
    }
  }
  const double speedup_batched = one_16 > 0 ? bat_16 / one_16 : 0;
  const double speedup_sharded = one_16 > 0 ? shd_16 / one_16 : 0;
  json << "],\"speedup_batched_16\":" << speedup_batched
       << ",\"speedup_sharded_16\":" << speedup_sharded << "}\n";

  table.print(std::cout);
  std::cout << "\n(" << blocks << " x 4KiB blocks per configuration; speedup at 16 slaves, "
            << "depth 32:\n batched " << TextTable::num(speedup_batched, 2) << "x, sharded "
            << TextTable::num(speedup_sharded, 2)
            << "x over the single-lock per-block configuration)\n\n";
  bench::maybe_dump_csv("micro_rt_throughput", table);
  std::cout << "wrote BENCH_rt_throughput.json\n\n";

  if (!trace_path.empty()) write_trace(trace_path);

  bench::print_shape_check(all_drained, "every configuration drained its full backlog");
  // Smoke backlogs are too small to saturate the exchange, so the smoke
  // bar only demands the throughput path wins; the full run enforces the
  // claimed margin.
  const double bar = bench::smoke_mode() ? 1.2 : 3.0;
  bench::print_shape_check(speedup_sharded >= bar,
                           "sharded exchange >= " + TextTable::num(bar, 1) +
                               "x per-block blocks/s at 16 slaves (measured " +
                               TextTable::num(speedup_sharded, 2) + "x)");
  return all_drained && speedup_sharded >= bar ? 0 : 1;
}
