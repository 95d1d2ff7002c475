// Lifecycle records against the TraceEvent path they replace.
//
// The fixtures under tests/obs/golden/ were written by the TraceEvent-based
// emitter and ThreadLocalBufferSink that predate LifecycleRecord, driven by
// the scenarios below; the record path must reproduce them byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lifecycle.h"
#include "obs/obs_context.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "rt/rt_trace.h"

namespace dyrs::obs {
namespace {

/// Raw-bit draws only, so a seed gives the same values on every platform
/// (the standard distributions are implementation-defined).
struct Draw {
  std::mt19937_64 rng;
  explicit Draw(std::uint64_t seed) : rng(seed) {}

  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
  }
  /// Doubles across magnitudes and signs, with exact zeros now and then.
  double real() {
    static constexpr double kScales[] = {1e-300, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e12, 1e300};
    const std::int64_t pick = below(20);
    if (pick == 0) return 0.0;
    if (pick == 1) return -0.0;
    const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const double v = unit * kScales[below(8)];
    return below(4) == 0 ? -v : v;
  }
};

/// Every lifecycle kind, in a fixed order, with drawn ints and doubles.
/// `before_each` is handed to complete_batch.
void drive_every_kind(core::LifecycleEmitter& em, Draw& d,
                      const std::function<void(const core::CompletionRecord&)>& before_each) {
  SimTime t = 0;
  auto at = [&] { return t += d.below(1000); };
  for (int round = 0; round < 3; ++round) {
    const BlockId b(d.below(1 << 20));
    const NodeId node(d.below(64));
    const Bytes size = d.below(std::int64_t{1} << 34);
    for (int n = 1; n <= 4; ++n) {
      std::vector<NodeId> replicas;
      for (int i = 0; i < n; ++i) replicas.emplace_back(d.below(1000));
      em.enqueue(at(), BlockId(b.value() + n), JobId(d.below(100)), size, replicas);
    }
    em.enqueue_merged(at(), b, JobId(d.below(100)));
    em.target(at(), b, node, d.real());
    em.bind(at(), b, node, d.below(1'000'000));
    const int attempt = static_cast<int>(1 + d.below(3));
    em.transfer_start(at(), b, node, size, attempt);
    em.transfer_retry(at(), b, node, attempt, d.below(100'000));
    em.transfer_failed(at(), b, node, attempt + 1);
    em.complete(at(), b, node, size, d.real());
    std::vector<core::CompletionRecord> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back({.at = at(),
                       .block = BlockId(b.value() + 10 + i),
                       .node = NodeId(d.below(64)),
                       .size = d.below(1 << 30),
                       .transfer_s = d.real(),
                       .cycle = static_cast<std::uint64_t>(1 + d.below(4))});
    }
    em.complete_batch(batch, before_each);
    for (core::CancelReason reason :
         {core::CancelReason::MissedRead, core::CancelReason::SlaveCrash,
          core::CancelReason::Superseded, core::CancelReason::IoError,
          core::CancelReason::HeartbeatLoss}) {
      em.abort({.block = b, .node = node, .reason = reason, .at = at()});
      em.abort({.block = b, .node = NodeId::invalid(), .reason = reason, .at = at()});
    }
    em.requeue(at(), b, node);
    em.requeue(at(), b, NodeId::invalid());
    for (Tier from : {Tier::Disk, Tier::Ssd, Tier::Memory}) {
      for (Tier to : {Tier::Disk, Tier::Ssd, Tier::Memory}) {
        em.demote(at(), b, node, from, to, size);
      }
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Checks every record against its TraceEvent form as it arrives, and keeps
/// the JSON lines.
class CheckingSink final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override { lines.push_back(to_json(e)); }
  void emit_record(const LifecycleRecord& r) override {
    std::string direct;
    append_json(direct, r);
    const std::string converted = to_json(to_event(r));
    EXPECT_EQ(direct, converted);
    lines.push_back(direct);
    ++records;
  }
  std::vector<std::string> lines;
  int records = 0;
};

/// An emitter whose stamper mimics the rt slave's: lseq from the current
/// cycle (which complete_batch's callback moves), a per-block lane, and a
/// monotone tseq.
struct StampedEmitter {
  std::uint64_t cycle = 1;
  std::int64_t tseq = 0;
  core::LifecycleEmitter em;

  explicit StampedEmitter(const ObsContext& ctx)
      : em(ctx, [this](LifecycleRecord& r, int rank) {
          r.stamp(rt::rt_lseq(cycle, rank), r.block % 4, ++tseq);
        }) {}
  StampedEmitter(const StampedEmitter&) = delete;
  StampedEmitter& operator=(const StampedEmitter&) = delete;
  std::function<void(const core::CompletionRecord&)> before_each() {
    return [this](const core::CompletionRecord& r) { cycle = r.cycle; };
  }
};

TEST(LifecycleRecord, DirectRenderEqualsConvertedEventForEveryKind) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    CheckingSink sink;
    Tracer tracer;
    tracer.set_sink(&sink);
    const ObsContext ctx(nullptr, &tracer);
    Draw plain(seed);
    core::LifecycleEmitter unstamped(ctx);
    drive_every_kind(unstamped, plain, nullptr);
    StampedEmitter stamped(ctx);
    Draw keyed(seed + 1000);
    drive_every_kind(stamped.em, keyed, stamped.before_each());
    ASSERT_EQ(sink.records, static_cast<int>(sink.lines.size()));
    ASSERT_GT(sink.records, 0);
  }
}

TEST(LifecycleRecord, EmitterMatchesTraceEventFixture) {
  MemorySink sink;
  Tracer tracer;
  tracer.set_sink(&sink);
  const ObsContext ctx(nullptr, &tracer);
  core::LifecycleEmitter unstamped(ctx);
  Draw plain(1);
  drive_every_kind(unstamped, plain, nullptr);
  StampedEmitter stamped(ctx);
  Draw keyed(2);
  drive_every_kind(stamped.em, keyed, stamped.before_each());

  std::string text;
  for (const TraceEvent& e : sink.events()) text += to_json(e) + "\n";
  EXPECT_EQ(text, read_file(DYRS_GOLDEN_DIR "/lifecycle_events.jsonl"));
}

TEST(LifecycleRecord, ReplicaListLongerThanInlineGoesOutWhole) {
  MemorySink sink;
  Tracer tracer;
  tracer.set_sink(&sink);
  StampedEmitter stamped(ObsContext(nullptr, &tracer));
  std::vector<NodeId> replicas;
  for (int i = 0; i < 11; ++i) replicas.emplace_back(100 + i);
  stamped.em.enqueue(7, BlockId(5), JobId(2), 4096, replicas);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(to_json(sink.events()[0]),
            "{\"t\":7,\"type\":\"mig_enqueue\",\"block\":5,\"job\":2,\"size\":4096,"
            "\"replicas\":\"100,101,102,103,104,105,106,107,108,109,110\","
            "\"lseq\":9,\"tid\":1,\"tseq\":1}");
}

/// Builds thread `k`'s emitter; its stamper keys each record with
/// lseq = rt_lseq(1 + block % 2, rank), tid = k % 2 (threads 0 and 2 share
/// a lane, so their keys tie) and tseq = ++*tseq.
using EmitterFactory =
    std::function<core::LifecycleEmitter(const ObsContext&, int k, std::int64_t* tseq)>;

/// Three threads emit stamped lifecycle records plus sample / node_state /
/// fault TraceEvents into `sink`, with fixed timestamps. Threads register
/// their buffers in order 0, 1, 2 (each one's first event is a node_state
/// with the same blockless key), then emit the rest concurrently.
void drive_rt_export(ThreadLocalBufferSink& sink, const EmitterFactory& make_emitter) {
  constexpr int kThreads = 3;
  Tracer tracer;
  tracer.set_sink(&sink);
  const ObsContext ctx(nullptr, &tracer);
  std::atomic<int> registered{0};
  std::vector<std::jthread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      std::int64_t tseq = 0;
      core::LifecycleEmitter em = make_emitter(ctx, k, &tseq);
      Draw d(100 + static_cast<std::uint64_t>(k));
      while (registered.load() != k) std::this_thread::yield();
      ctx.emit(TraceEvent(5, "node_state")
                   .with("node", k)
                   .with("state", "alive")
                   .with("lseq", 0)
                   .with("tid", 0)
                   .with("tseq", 1));
      registered.fetch_add(1);
      while (registered.load() != kThreads) std::this_thread::yield();
      for (int i = 0; i < 8; ++i) {
        const SimTime t = 1000 * k + 10 * i;
        const BlockId b(i % 5);
        const NodeId node(k);
        em.enqueue(t, b, JobId(1 + i % 2), 4096, {NodeId(k), NodeId((k + 1) % 3)});
        em.target(t + 1, b, node, d.real());
        em.bind(t + 2, b, node, d.below(1000));
        em.transfer_start(t + 3, b, node, 4096, 1);
        // Same full merge key as the transfer_start record just emitted.
        ctx.emit(TraceEvent(t + 3, "fault")
                     .with("kind", "io-errors")
                     .with("node", k)
                     .with("phase", "begin")
                     .with("rate", d.real())
                     .with("block", b.value())
                     .with("lseq", rt::rt_lseq(1 + b.value() % 2, core::kRankTransfer))
                     .with("tid", k % 2)
                     .with("tseq", tseq));
        em.complete(t + 4, b, node, 4096, d.real());
        // Blockless samples tie across threads on (lseq 0, tid 0, tseq i).
        ctx.emit(TraceEvent(t + 5, "sample")
                     .with("name", "node" + std::to_string(k) + ".dyrs.est_s_per_block")
                     .with("value", d.real())
                     .with("lseq", 0)
                     .with("tid", 0)
                     .with("tseq", 2 + i));
        if (i % 3 == 0) em.requeue(t + 6, b, NodeId(i % 2 == 0 ? k : -1));
      }
    });
  }
}

/// Each thread's emitter stamps like an rt slave worker (see drive_rt_export).
core::LifecycleEmitter rt_emitter(const ObsContext& ctx, int k, std::int64_t* tseq) {
  return core::LifecycleEmitter(ctx, [k, tseq](LifecycleRecord& r, int rank) {
    r.stamp(rt::rt_lseq(1 + r.block % 2, rank), k % 2, ++*tseq);
  });
}

TEST(ThreadLocalBufferSink, RecordExportMatchesTraceEventGolden) {
  ThreadLocalBufferSink sink;
  drive_rt_export(sink, rt_emitter);
  const std::string path = ::testing::TempDir() + "/tbs_rt_export.jsonl";
  sink.write_jsonl(path);
  EXPECT_EQ(read_file(path), read_file(DYRS_GOLDEN_DIR "/rt_export.jsonl"));
}

TEST(ThreadLocalBufferSink, WriteJsonlEqualsMergedEventsLineByLine) {
  ThreadLocalBufferSink sink;
  drive_rt_export(sink, rt_emitter);
  const std::string path = ::testing::TempDir() + "/tbs_rt_merge.jsonl";
  sink.write_jsonl(path);
  std::istringstream written(read_file(path));
  const std::vector<TraceEvent> merged = sink.merge_thread_buffers();
  ASSERT_EQ(merged.size(), sink.event_count());
  std::string line;
  std::size_t i = 0;
  while (std::getline(written, line)) {
    ASSERT_LT(i, merged.size());
    EXPECT_EQ(line, to_json(merged[i])) << "line " << i;
    ++i;
  }
  EXPECT_EQ(i, merged.size());
}

}  // namespace
}  // namespace dyrs::obs
