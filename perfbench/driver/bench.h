// Shared vocabulary of the benchmark driver: arguments, the per-run
// outcome (metrics plus correctness verdict), small statistics helpers and
// the span recorder the traced runs use.
//
// The driver only calls the program's public API. Per-layer time comes
// from spans the driver records around its own calls into each layer;
// per-layer counts come from the counters and histograms the program
// already keeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where span dumps and exported rt traces go (inside the checkout).
  std::string out_dir = ".bench_build/out";
};

/// Metrics, failures and counts of one run. `attempted`/`failed` count the
/// workload's units of work: jobs for the sim workloads, blocks for rt.
class Outcome {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  double get(const std::string& name) const;

  /// Records a failed check; the run then exits nonzero.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  long attempted = 0;
  long failed = 0;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::string> failures_;
};

/// Metric names with units. The end-to-end list is reported by untraced
/// runs, the per-layer list by traced runs; every workload reports the
/// whole list, with 0 for a layer the workload does not exercise.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

double median(std::vector<double> v);
/// Exact quantile by linear interpolation, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mib();

/// The benchmark's own spans: name, start, end and parent, recorded on the
/// driving thread around each call into a layer. All spans of one run
/// share the recorder's run id. Spans stay in memory until write_jsonl.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  /// Closes its span on destruction; nesting follows C++ scopes.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  explicit SpanRecorder(std::string run_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every span named `name` under the root span
  /// `root`.
  std::vector<double> durations(const std::string& name, int root) const;
  /// Summed self time (seconds) of spans named `name` under `root`: each
  /// span's duration minus the time its children cover.
  double self_total(const std::string& name, int root) const;
  /// Indices of the top-level spans named `name`.
  std::vector<int> roots(const std::string& name) const;

  /// One JSON object per span: run, id, parent, name, start_us, end_us.
  void write_jsonl(const std::string& path) const;

 private:
  int open(const char* name);
  void close(int index);
  int root_of(int index) const;
  std::vector<double> self_seconds() const;
  std::int64_t now_ns() const;

  std::string run_id_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span when tracing is on; a null recorder records nothing.
#define PERFBENCH_CAT2(a, b) a##b
#define PERFBENCH_CAT(a, b) PERFBENCH_CAT2(a, b)
#define PERFBENCH_SPAN(rec, name) \
  ::perfbench::SpanRecorder::Scope PERFBENCH_CAT(perfbench_span_, __LINE__)((rec), (name))

Outcome run_swim_scale(const Args& args);
Outcome run_burst_backlog(const Args& args);
Outcome run_rt_drain_traced(const Args& args);

}  // namespace perfbench
