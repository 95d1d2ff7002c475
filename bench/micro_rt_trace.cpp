// micro_rt_trace — per-event overhead of rt tracing.
//
// The rt runtime emits merge-keyed lifecycle events from worker threads
// into a ThreadLocalBufferSink. This bench measures the three costs that
// matter on that path, in ns/event:
//
//   disabled   the guard an untraced run pays (ObsContext::tracing() on a
//              tracer with no sink — no event is ever built),
//   1 thread   build a slave-shaped mig_transfer_start (7 fields including
//              the merge key) and emit it into the sink,
//   4 threads  same, concurrently — per-thread buffers mean the emitters
//              should not contend after registration,
//
// plus the merge_thread_buffers() cost amortized per event. Those rows
// build TraceEvents. The record rows measure the path the rt runtime takes
// for lifecycle events: core::LifecycleEmitter fills a LifecycleRecord, a
// slave-style stamper writes its merge key, and the sink copies it; then
// merge (TraceEvents built at merge) and export (write_jsonl renders
// records directly), amortized per event. Results go to stdout and to
// BENCH_rt_trace.json for machine consumption.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <algorithm>
#include <thread>
#include <vector>

#include "bench/common/bench_util.h"
#include "common/table.h"
#include "core/lifecycle.h"
#include "obs/obs_context.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "rt/rt_trace.h"

using namespace dyrs;

namespace {

using clock_type = std::chrono::steady_clock;

std::size_t g_sink = 0;  // consume results so loops aren't elided

/// The event shape rt::RtSlave emits before every disk read.
void emit_one(const obs::ObsContext& ctx, int i) {
  if (!ctx.tracing()) return;
  obs::TraceEvent e(SimTime{i}, "mig_transfer_start");
  e.with("block", i % 64).with("node", i % 8).with("size", std::int64_t{1} << 18)
      .with("attempt", 1)
      .with("lseq", rt::rt_lseq(1, core::kRankTransfer))
      .with("tid", i % 8 + 1)
      .with("tseq", std::int64_t{i});
  ctx.emit(e);
  g_sink += e.fields.size();
}

double disabled_ns_per_event(int events) {
  obs::Tracer tracer;  // no sink: tracing() is false
  const obs::ObsContext ctx(nullptr, &tracer);
  const auto t0 = clock_type::now();
  for (int i = 0; i < events; ++i) emit_one(ctx, i);
  return std::chrono::duration<double, std::nano>(clock_type::now() - t0).count() / events;
}

struct EnabledCost {
  double emit_ns = 0;   // per event, per emitting thread
  double merge_ns = 0;  // merge_thread_buffers() amortized per event
};

EnabledCost enabled_ns_per_event(int events_per_thread, int threads) {
  obs::ThreadLocalBufferSink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  const obs::ObsContext ctx(nullptr, &tracer);

  const auto t0 = clock_type::now();
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&ctx, events_per_thread] {
        for (int i = 0; i < events_per_thread; ++i) emit_one(ctx, i);
      });
    }
  }  // join
  const auto t1 = clock_type::now();
  const std::vector<obs::TraceEvent> merged = sink.merge_thread_buffers();
  const auto t2 = clock_type::now();
  g_sink += merged.size();

  EnabledCost out;
  // Each thread emitted its events sequentially, so per-thread wall time is
  // total wall time; divide by events *per thread* for the per-event cost
  // an emitter experiences.
  out.emit_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / events_per_thread;
  out.merge_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() /
                 static_cast<double>(merged.size());
  return out;
}

struct RecordCost {
  double emit_ns = 0;    // per event, per emitting thread
  double merge_ns = 0;   // merge_thread_buffers() amortized per event
  double export_ns = 0;  // write_jsonl() amortized per event
};

/// The record path an rt slave worker takes for mig_transfer_start. Merge
/// and export are timed on the same buffers.
RecordCost record_ns_per_event(int events_per_thread, int threads) {
  obs::ThreadLocalBufferSink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  const obs::ObsContext ctx(nullptr, &tracer);

  const auto t0 = clock_type::now();
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&ctx, events_per_thread, t] {
        std::int64_t tseq = 0;
        core::LifecycleEmitter emitter(ctx, [&tseq, t](obs::LifecycleRecord& r, int rank) {
          r.stamp(rt::rt_lseq(1, rank), t + 1, ++tseq);
        });
        for (int i = 0; i < events_per_thread; ++i) {
          emitter.transfer_start(SimTime{i}, BlockId(i % 64), NodeId(t), std::int64_t{1} << 18,
                                 1);
        }
      });
    }
  }  // join
  const auto t1 = clock_type::now();
  const std::vector<obs::TraceEvent> merged = sink.merge_thread_buffers();
  const auto t2 = clock_type::now();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "micro_rt_trace_export.jsonl";
  sink.write_jsonl(path.string());
  const auto t3 = clock_type::now();
  std::filesystem::remove(path);
  g_sink += merged.size();

  const auto n = static_cast<double>(merged.size());
  RecordCost out;
  out.emit_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / events_per_thread;
  out.merge_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() / n;
  out.export_ns = std::chrono::duration<double, std::nano>(t3 - t2).count() / n;
  return out;
}

}  // namespace

int main() {
  bench::print_header("micro: rt trace emission overhead",
                      "ThreadLocalBufferSink per-event cost vs disabled tracing");

  const int events = bench::smoke_mode() ? 50'000 : 2'000'000;
  const double disabled = disabled_ns_per_event(events);
  const EnabledCost one = enabled_ns_per_event(events, 1);
  const EnabledCost four = enabled_ns_per_event(events, 4);
  // Fewer record events: merge builds a TraceEvent per record, and 2M per
  // thread would hold gigabytes.
  const int record_events = bench::smoke_mode() ? 50'000 : 250'000;
  const RecordCost rec_one = record_ns_per_event(record_events, 1);
  const RecordCost rec_four = record_ns_per_event(record_events, 4);
  if (g_sink == 0) std::cout << "";  // keep g_sink observable

  TextTable table({"scenario", "ns/event"});
  table.add_row({"disabled tracer (guard only)", TextTable::num(disabled, 1)});
  table.add_row({"enabled, 1 thread", TextTable::num(one.emit_ns, 1)});
  table.add_row({"enabled, 4 threads", TextTable::num(four.emit_ns, 1)});
  table.add_row({"merge (1-thread run)", TextTable::num(one.merge_ns, 1)});
  table.add_row({"merge (4-thread run)", TextTable::num(four.merge_ns, 1)});
  table.add_row({"record path, 1 thread", TextTable::num(rec_one.emit_ns, 1)});
  table.add_row({"record path, 4 threads", TextTable::num(rec_four.emit_ns, 1)});
  table.add_row({"record merge (4-thread run)", TextTable::num(rec_four.merge_ns, 1)});
  table.add_row({"record export (4-thread run)", TextTable::num(rec_four.export_ns, 1)});
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  table.print(std::cout);
  std::cout << "\n(" << events << " events per thread on " << cores
            << " core(s); enabled cost includes building the 7-field merge-keyed\n"
            << " event; with enough cores 4-thread emit stays near the 1-thread cost —\n"
            << " per-thread buffers, no contention after registration; record rows\n"
            << " use " << record_events << " events per thread)\n\n";

  std::ofstream json("BENCH_rt_trace.json");
  json << "{\"bench\":\"rt_trace\",\"events_per_thread\":" << events
       << ",\"record_events_per_thread\":" << record_events
       << ",\"disabled_ns_per_event\":" << disabled
       << ",\"enabled_1thread_ns_per_event\":" << one.emit_ns
       << ",\"enabled_4thread_ns_per_event\":" << four.emit_ns
       << ",\"merge_1thread_ns_per_event\":" << one.merge_ns
       << ",\"merge_4thread_ns_per_event\":" << four.merge_ns
       << ",\"overhead_ns_per_event\":" << one.emit_ns - disabled
       << ",\"record_1thread_ns_per_event\":" << rec_one.emit_ns
       << ",\"record_4thread_ns_per_event\":" << rec_four.emit_ns
       << ",\"record_merge_1thread_ns_per_event\":" << rec_one.merge_ns
       << ",\"record_merge_4thread_ns_per_event\":" << rec_four.merge_ns
       << ",\"record_export_1thread_ns_per_event\":" << rec_one.export_ns
       << ",\"record_export_4thread_ns_per_event\":" << rec_four.export_ns << "}\n";
  std::cout << "wrote BENCH_rt_trace.json\n\n";

  bench::print_shape_check(disabled < 50.0,
                           "disabled tracing costs under 50ns/event (guard only)");
  // Per-thread wall time inflates by T/C when threads outnumber cores, so
  // the no-shared-lock check compares against that ideal with 2x slack:
  // a sink serializing its emitters would blow through it regardless.
  const double timeslice_factor = 4.0 / std::min(4u, cores);
  bench::print_shape_check(four.emit_ns < one.emit_ns * timeslice_factor * 2.0,
                           "4-thread emission does not serialize on a shared lock");
  bench::print_shape_check(rec_one.emit_ns < 100.0 && rec_four.emit_ns < 100.0 * timeslice_factor,
                           "record path emits in under 100ns/event on 1 and 4 threads");
  return 0;
}
