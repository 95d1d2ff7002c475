// perfbench — the repository's benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Workloads: burst-backlog and swim-scale build an exec::Testbed (sim
// backend); rt-drain-traced builds rt::RtMaster instances (threaded
// backend). BENCHMARK.json names burst-backlog and rt-drain-traced;
// swim-scale is a diagnostic workload outside it. An untraced run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer metrics. The last stdout line is one JSON object:
// correct, attempted, failed, metrics. Any failed check makes the exit code
// nonzero.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {

double Outcome::get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Outcome::fail(const std::string& why) {
  failures_.push_back(why);
  std::cout << "CHECK FAILED: " << why << "\n";
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"jobs_per_s", "1/s"},   {"blocks_per_s", "1/s"}, {"job_p50_s", "s"},
      {"mem_read_frac", "fraction"}, {"setup_s", "s"},  {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"loop.residual_s", "s"},
      {"exec.maps", "count"},
      {"exec.jobs", "count"},
      {"exec.lead_time_sim_s.p50", "s"},
      {"exec.job_sim_p99_s", "s"},
      {"dfs.reads.local-memory", "count"},
      {"dfs.reads.remote-memory", "count"},
      {"dfs.reads.local-disk", "count"},
      {"dfs.reads.remote-disk", "count"},
      {"setup.testbed_s", "s"},
      {"setup.load_s", "s"},
      {"setup.warmup_s", "s"},
      {"setup.master_s", "s"},
      {"dyrs.migrate_files.total_s", "s"},
      {"dyrs.migrate_files.p99_us", "us"},
      {"dyrs.read_hooks.total_s", "s"},
      {"dyrs.read_hooks.p99_us", "us"},
      {"dyrs.job_finished.total_s", "s"},
      {"dyrs.job_finished.p99_us", "us"},
      {"core.pending_peak", "count"},
      {"dyrs.migrations.enqueued", "count"},
      {"dyrs.migrations.bound", "count"},
      {"dyrs.migrations.completed", "count"},
      {"dyrs.migrations.cancelled", "count"},
      {"dyrs.migrations.demoted", "count"},
      {"dyrs.cancel_frac", "fraction"},
      {"dyrs.useful_frac", "fraction"},
      {"dyrs.migration.pending_wait_s.p50", "s"},
      {"dyrs.migration.pending_wait_s.p99", "s"},
      {"tier.to_ssd", "count"},
      {"tier.to_disk", "count"},
      {"tier.peak_mem_gib", "GiB"},
      {"tier.peak_ssd_gib", "GiB"},
      {"rt.migrate_call_ms", "ms"},
      {"rt.drain_s", "s"},
      {"rt.pull_us.p50", "us"},
      {"rt.pull_us.p99", "us"},
      {"rt.pulls", "count"},
      {"rt.blocks_per_pull", "ratio"},
      {"rt.retarget.passes", "count"},
      {"rt.completed_skew", "ratio"},
      {"obs.events", "count"},
      {"obs.merge_ms", "ms"},
      {"obs.write_ms", "ms"},
      {"obs.trace_mib", "MiB"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
  };
  return defs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// --- SpanRecorder -----------------------------------------------------------

SpanRecorder::SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {
  spans_.reserve(1 << 16);
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
  if (rec_ != nullptr) index_ = rec_->open(name);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->close(index_);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int SpanRecorder::open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

int SpanRecorder::root_of(int index) const {
  while (spans_[static_cast<std::size_t>(index)].parent >= 0) {
    index = spans_[static_cast<std::size_t>(index)].parent;
  }
  return index;
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  // Children never overlap one another on the single driving thread, so
  // the part of a parent they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return self;
}

std::vector<double> SpanRecorder::durations(const std::string& name, int root) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    if (root_of(static_cast<int>(i)) != root) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9);
  }
  return out;
}

double SpanRecorder::self_total(const std::string& name, int root) const {
  const std::vector<double> self = self_seconds();
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    if (root_of(static_cast<int>(i)) != root) continue;
    total += self[i];
  }
  return total;
}

std::vector<int> SpanRecorder::roots(const std::string& name) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && name == spans_[i].name) out.push_back(static_cast<int>(i));
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os) {
    std::cerr << "cannot write spans to " << path << "\n";
    return;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"run\":\"" << run_id_ << "\",\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"name\":\"" << s.name << "\",\"start_us\":" << s.start_ns / 1000
       << ",\"end_us\":" << s.end_ns / 1000 << "}\n";
  }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload burst-backlog|rt-drain-traced|swim-scale"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one.empty() ? "unknown" : one;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !(args.seconds > 0)) return usage();
  std::filesystem::create_directories(args.out_dir);

  // Machine context, stamped on every result.
  std::cout << "context: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " loadavg_start=" << loadavg() << "\n";
  std::cout << "run: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n";

  Outcome out;
  try {
    if (args.workload == "swim-scale") {
      out = run_swim_scale(args);
    } else if (args.workload == "burst-backlog") {
      out = run_burst_backlog(args);
    } else if (args.workload == "rt-drain-traced") {
      out = run_rt_drain_traced(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream metrics;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = out.get(defs[i].name);
    std::cout << "  " << std::left << std::setw(36) << defs[i].name << std::right
              << std::setw(16) << std::setprecision(6) << v << " " << defs[i].unit << "\n";
    metrics << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": " << json_number(v)
            << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0;
  std::cout << "  " << std::left << std::setw(36) << "failed_frac" << std::right << std::setw(16)
            << failed_frac << " fraction\n";
  std::cout << "verdict: " << (out.correct() ? "correct" : "INCORRECT") << "\n";
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return out.correct() ? 0 : 1;
}
