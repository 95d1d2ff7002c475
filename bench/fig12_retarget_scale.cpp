// fig12_retarget_scale — Algorithm 1 retargeting pass latency vs cluster
// size (the ROADMAP "10k-node" scale item, motivated by the 12k-server
// Google trace in the paper's introduction).
//
// Sweeps the node count 8 -> 10k with a fixed multi-million-entry pending
// queue and times, per cluster size:
//
//   oracle       assign_targets, the reference formulation (best of 3)
//   pass cold    ControlPlane::retarget's first pass: TargetScorer plus the
//                per-node bind-list fill, growing its buffers
//   pass         ControlPlane::retarget on reused buffers (best of 3), the
//                cost a master's periodic pass pays
//
// The control-plane pass is checked for target-exactness against the
// oracle at every cluster size. Results go to stdout and
// BENCH_retarget.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"
#include "common/table.h"
#include "core/control_plane.h"
#include "core/replica_selector.h"

using namespace dyrs;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

std::vector<core::SlaveSnapshot> make_snapshots(int nodes, std::mt19937_64& rng) {
  std::vector<core::SlaveSnapshot> snaps;
  snaps.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    core::SlaveSnapshot s;
    s.node = NodeId(n);
    s.sec_per_byte = (1 + static_cast<double>(rng() % 8)) * 1e-8;
    s.queued_bytes = static_cast<Bytes>(rng() % 4) * mib(64);
    snaps.push_back(s);
  }
  return snaps;
}

void enqueue_block(core::ControlPlane& plane, int block, int nodes, std::mt19937_64& rng) {
  const Bytes size = mib(64 + 64 * static_cast<Bytes>(rng() % 4));
  const JobId job(1 + static_cast<std::int64_t>(rng() % 8));
  std::vector<NodeId> replicas;
  const int first = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
  replicas.emplace_back(first);
  if (nodes > 1) {
    replicas.emplace_back((first + 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(nodes - 1))) % nodes);
  }
  plane.enqueue(job, core::EvictionMode::Explicit, BlockId(block), size, std::move(replicas), {},
                0);
}

struct Row {
  int nodes = 0;
  double oracle_ms = 0;
  double pass_cold_ms = 0;
  double pass_ms = 0;
  bool exact = false;
};

constexpr int kRepeats = 3;

Row run_scale(int nodes, int pending) {
  std::mt19937_64 rng(0x5ca1eull + static_cast<std::uint64_t>(nodes));
  core::ControlPlane plane;  // LateTargeted, FIFO: the pass fills bind lists
  for (int b = 0; b < pending; ++b) enqueue_block(plane, b, nodes, rng);
  const std::vector<core::SlaveSnapshot> snaps = make_snapshots(nodes, rng);

  Row row;
  row.nodes = nodes;

  // The oracle over the same entries; its targets are the exactness
  // baseline.
  std::vector<core::PendingMigration*> ptrs;
  ptrs.reserve(plane.queue().size());
  for (core::PendingMigration& pm : plane.queue()) ptrs.push_back(&pm);
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = clock_type::now();
    core::assign_targets(ptrs, snaps);
    const double ms = ms_since(t0);
    if (r == 0 || ms < row.oracle_ms) row.oracle_ms = ms;
  }
  // Keep the oracle's targets, then clear them so the exactness check reads
  // the pass's own.
  std::vector<NodeId> oracle_targets;
  oracle_targets.reserve(ptrs.size());
  for (core::PendingMigration* pm : ptrs) {
    oracle_targets.push_back(pm->target);
    pm->target = NodeId::invalid();
  }

  auto t0 = clock_type::now();
  plane.retarget(snaps, 1);
  row.pass_cold_ms = ms_since(t0);
  row.exact = true;
  std::size_t i = 0;
  for (const core::PendingMigration& pm : plane.queue()) {
    if (pm.target != oracle_targets[i++]) {
      row.exact = false;
      break;
    }
  }
  for (int r = 0; r < kRepeats; ++r) {
    t0 = clock_type::now();
    plane.retarget(snaps, 2 + r);
    const double ms = ms_since(t0);
    if (r == 0 || ms < row.pass_ms) row.pass_ms = ms;
  }
  return row;
}

}  // namespace

int main() {
  bench::print_header("fig12: retargeting pass latency, 8 -> 10k nodes",
                      "one Algorithm 1 pass over the whole pending queue, target-exact "
                      "against the reference formulation at every cluster size");

  const int pending = bench::smoke_scaled(2'000'000, 20'000);
  const std::vector<int> sweep = bench::smoke_mode()
                                     ? std::vector<int>{8, 32, 128}
                                     : std::vector<int>{8, 64, 512, 2048, 10'000};

  std::vector<Row> rows;
  for (int nodes : sweep) {
    rows.push_back(run_scale(nodes, pending));
    std::cout << "  measured " << nodes << " nodes\n";
  }

  TextTable table({"nodes", "oracle (ms)", "pass cold (ms)", "pass (ms)", "exact"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.nodes), TextTable::num(r.oracle_ms, 2),
                   TextTable::num(r.pass_cold_ms, 2), TextTable::num(r.pass_ms, 2),
                   r.exact ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\n(" << pending << " pending blocks; oracle and pass are best of " << kRepeats
            << ")\n\n";

  std::ofstream json("BENCH_retarget.json");
  json << "{\"bench\":\"retarget_scale\",\"pending\":" << pending << ",\"sweep\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << (i ? "," : "") << "{\"nodes\":" << r.nodes << ",\"oracle_ms\":" << r.oracle_ms
         << ",\"pass_cold_ms\":" << r.pass_cold_ms << ",\"pass_ms\":" << r.pass_ms
         << ",\"exact\":" << (r.exact ? "true" : "false") << "}";
  }
  json << "]}\n";
  std::cout << "wrote BENCH_retarget.json\n\n";

  const bool all_exact =
      std::all_of(rows.begin(), rows.end(), [](const Row& r) { return r.exact; });
  bench::print_shape_check(all_exact,
                           "control-plane pass is target-exact vs the assign_targets oracle "
                           "at every cluster size");
  return 0;
}
