#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/trace_reader.h"

namespace dyrs::obs {
namespace {

TEST(TraceEvent, ToJsonPreservesFieldOrderAndKinds) {
  TraceEvent e(5, "mig_bind");
  e.with("block", std::int64_t{12})
      .with("node", 3)
      .with("reason", "evicted")
      .with("wait_s", 0.5)
      .with_bool("late", true)
      .with_bool("early", false);
  EXPECT_EQ(to_json(e),
            "{\"t\":5,\"type\":\"mig_bind\",\"block\":12,\"node\":3,"
            "\"reason\":\"evicted\",\"wait_s\":0.5,\"late\":true,\"early\":false}");
}

TEST(TraceEvent, ToJsonEscapesStrings) {
  TraceEvent e(0, "note");
  e.with("msg", "a\"b\\c\nd\te");
  EXPECT_EQ(to_json(e), "{\"t\":0,\"type\":\"note\",\"msg\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(TraceEvent, DoubleFormattingRoundTrips) {
  // One third has no short decimal form; format must fall back to full
  // precision so the parsed value is bit-identical.
  for (double v : {1.0 / 3.0, 0.1, 1e-9, 12345678.9, 2.0, -0.0}) {
    TraceEvent e(0, "x");
    e.with("v", v);
    const TraceEvent back = parse_json_line(to_json(e));
    EXPECT_EQ(back.f64("v"), v);
  }
}

TEST(TraceEvent, DoubleTextMatchesPrintfTable) {
  // Expected text is what the printf path ("%.9g", else "%.17g", in the C
  // locale) rendered for each value; f64 must parse it back bit-exactly.
  // No comma-decimal locale is installed on the build hosts, so this pins
  // the text rather than switching locales.
  const std::pair<double, const char*> table[] = {
      {0.5, "0.5"},
      {3.25, "3.25"},
      {0.1, "0.1"},
      {1.0 / 3, "0.33333333333333331"},
      {1e-05, "1e-05"},
      {123456789012.0, "123456789012"},
      {1e300, "1e+300"},
      {5e-324, "4.94065646e-324"},
      {-0.0, "-0"},
      {-0.5, "-0.5"},
      {-3.25, "-3.25"},
      {-0.1, "-0.1"},
      {-1.0 / 3, "-0.33333333333333331"},
      {-1e-05, "-1e-05"},
      {-1e300, "-1e+300"},
      {0.0, "0"},
      {100.0, "100"},
      {0.1 + 0.2, "0.30000000000000004"},
      {1e21, "1e+21"},
      {2.5e-08, "2.5e-08"},
      {1.7976931348623157e308, "1.7976931348623157e+308"},
      {2.2250738585072014e-308, "2.2250738585072014e-308"},
      {4096.0 / 3, "1365.3333333333333"},
  };
  for (const auto& [v, text] : table) {
    TraceEvent e(0, "x");
    e.with("v", v);
    EXPECT_EQ(e.fields[0].str, text);
    const double back = e.f64("v");
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
  }
}

TEST(TraceEvent, DoubleTextMatchesPrintfOnRandomValues) {
  // The printf reference: "%.9g" if it parses back exactly, else "%.17g"
  // (this test process runs in the C locale).
  auto printf_text = [](double v) {
    char buf[40];
    for (int precision : {9, 17}) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
    return std::string(buf);
  };
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200'000; ++i) {
    double v = 0.0;
    switch (i % 3) {
      case 0: {  // any finite bit pattern
        const std::uint64_t bits = rng();
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isfinite(v)) continue;
        break;
      }
      case 1:  // short decimals, the values that take the %.9g branch
        v = static_cast<double>(static_cast<std::int64_t>(rng() % 2'000'000'000) - 1'000'000'000) /
            static_cast<double>(std::uint64_t{1} << (rng() % 40));
        break;
      default:  // measured-looking values across magnitudes
        v = static_cast<double>(rng() >> 11) * 0x1.0p-53 *
            std::pow(10.0, static_cast<int>(rng() % 40) - 20);
    }
    TraceEvent e(0, "x");
    e.with("v", v);
    ASSERT_EQ(e.fields[0].str, printf_text(v)) << "value " << std::hexfloat << v;
  }
}

TEST(TraceEvent, AccessorsFallBackWhenAbsentOrWrongKind) {
  TraceEvent e(7, "x");
  e.with("s", "str").with("i", std::int64_t{9}).with("d", 1.5).with_bool("b", true);
  EXPECT_EQ(e.str("s"), "str");
  EXPECT_EQ(e.str("missing", "fb"), "fb");
  EXPECT_EQ(e.i64("i"), 9);
  EXPECT_EQ(e.i64("d"), -1);  // doubles don't silently truncate to int
  EXPECT_EQ(e.i64("b"), 1);
  EXPECT_DOUBLE_EQ(e.f64("i"), 9.0);
  EXPECT_DOUBLE_EQ(e.f64("d"), 1.5);
  EXPECT_DOUBLE_EQ(e.f64("s", 2.5), 2.5);
  EXPECT_EQ(e.find("nope"), nullptr);
}

TEST(ParseJsonLine, RoundTripsEveryKind) {
  TraceEvent e(123456, "sample");
  e.with("name", "node0.disk.util").with("value", 0.75).with("count", std::int64_t{4})
      .with_bool("ok", true);
  const TraceEvent back = parse_json_line(to_json(e));
  EXPECT_EQ(back.at, 123456);
  EXPECT_EQ(back.type, "sample");
  ASSERT_EQ(back.fields.size(), 4u);
  EXPECT_EQ(back.fields[0].kind, TraceEvent::Kind::String);
  EXPECT_EQ(back.fields[1].kind, TraceEvent::Kind::Double);
  EXPECT_EQ(back.fields[2].kind, TraceEvent::Kind::Int);
  EXPECT_EQ(back.fields[3].kind, TraceEvent::Kind::Bool);
  // Re-serializing the parsed event reproduces the original line exactly.
  EXPECT_EQ(to_json(back), to_json(e));
}

TEST(ParseJsonLine, ThrowsOnMalformedInput) {
  EXPECT_THROW(parse_json_line("not json"), CheckError);
  EXPECT_THROW(parse_json_line("{\"t\":1,\"type\":\"x\""), CheckError);
  EXPECT_THROW(parse_json_line("{\"t\":1,\"type\":\"x\",\"f\":}"), CheckError);
}

TEST(Tracer, DisabledByDefaultAndAfterClearing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit(TraceEvent(0, "dropped"));  // no sink: silently ignored

  MemorySink sink;
  t.set_sink(&sink);
  EXPECT_TRUE(t.enabled());
  t.emit(TraceEvent(1, "kept"));
  t.set_sink(nullptr);
  EXPECT_FALSE(t.enabled());
  t.emit(TraceEvent(2, "dropped"));

  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].type, "kept");
}

TEST(MemorySink, KeepsEventsInEmissionOrder) {
  MemorySink sink;
  Tracer t;
  t.set_sink(&sink);
  for (int i = 0; i < 3; ++i) t.emit(TraceEvent(i, "e" + std::to_string(i)));
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[2].type, "e2");
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(JsonlStreamSink, WritesOneLinePerEventAndReadsBack) {
  std::ostringstream os;
  JsonlStreamSink sink(os);
  sink.emit(TraceEvent(1, "a"));
  TraceEvent b(2, "b");
  b.with("n", std::int64_t{5});
  sink.emit(b);

  std::istringstream is(os.str());
  const auto events = read_jsonl(is);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "a");
  EXPECT_EQ(events[1].i64("n"), 5);
}

TEST(ReadJsonl, SkipsBlankLines) {
  std::istringstream is("\n{\"t\":1,\"type\":\"a\"}\n\n{\"t\":2,\"type\":\"b\"}\n");
  const auto events = read_jsonl(is);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 1);
  EXPECT_EQ(events[1].at, 2);
}

// --- TraceReader span assembly on hand-built event streams ---------------

TraceEvent ev(SimTime t, const char* type, std::int64_t block) {
  TraceEvent e(t, type);
  e.with("block", block);
  return e;
}

TraceEvent ev(SimTime t, const char* type, std::int64_t block, std::int64_t node) {
  return ev(t, type, block).with("node", node);
}

TEST(TraceReader, AssemblesHappyPathSpan) {
  std::vector<TraceEvent> events;
  events.push_back(ev(10, "mig_enqueue", 1));
  events.push_back(ev(10, "mig_target", 1, 2));
  events.push_back(ev(20, "mig_bind", 1, 2));
  events.push_back(ev(21, "mig_transfer_start", 1, 2));
  events.push_back(ev(50, "mig_complete", 1, 2));

  TraceReader reader(events);
  const auto spans = reader.migration_spans();
  ASSERT_EQ(spans.size(), 1u);
  const MigrationSpan& s = spans[0];
  EXPECT_EQ(s.block, BlockId(1));
  EXPECT_EQ(s.node, NodeId(2));
  EXPECT_EQ(s.enqueued_at, 10);
  EXPECT_EQ(s.targeted_at, 10);
  EXPECT_EQ(s.bound_at, 20);
  EXPECT_EQ(s.transfer_started_at, 21);
  EXPECT_EQ(s.finished_at, 50);
  EXPECT_EQ(s.retries, 0);
  EXPECT_TRUE(s.completed);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(reader.complete_spans().size(), 1u);
}

TEST(TraceReader, CountsRetriesAndRecordsAborts) {
  std::vector<TraceEvent> events;
  events.push_back(ev(0, "mig_enqueue", 3));
  events.push_back(ev(5, "mig_bind", 3, 1));
  events.push_back(ev(6, "mig_transfer_start", 3, 1));
  events.push_back(ev(7, "mig_transfer_retry", 3, 1));
  events.push_back(ev(9, "mig_transfer_retry", 3, 1));
  events.push_back(ev(12, "mig_abort", 3).with("reason", "missed_read"));

  TraceReader reader(events);
  const auto spans = reader.migration_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].retries, 2);
  EXPECT_TRUE(spans[0].aborted);
  EXPECT_FALSE(spans[0].completed);
  EXPECT_FALSE(spans[0].complete());
  EXPECT_EQ(spans[0].abort_reason, "missed_read");
  EXPECT_EQ(spans[0].finished_at, 12);
  EXPECT_TRUE(reader.complete_spans().empty());
}

TEST(TraceReader, ReEnqueueAfterTerminalEventOpensFreshSpan) {
  std::vector<TraceEvent> events;
  events.push_back(ev(0, "mig_enqueue", 9));
  events.push_back(ev(1, "mig_bind", 9, 4));
  events.push_back(ev(2, "mig_transfer_start", 9, 4));
  events.push_back(ev(3, "mig_complete", 9, 4));
  // Evicted then re-referenced: a second full lifecycle on the same block.
  events.push_back(ev(10, "mig_enqueue", 9));
  events.push_back(ev(11, "mig_bind", 9, 5));

  TraceReader reader(events);
  const auto spans = reader.migration_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].completed);
  EXPECT_EQ(spans[0].node, NodeId(4));
  EXPECT_FALSE(spans[1].completed);  // still open at end-of-trace
  EXPECT_EQ(spans[1].enqueued_at, 10);
  EXPECT_EQ(spans[1].node, NodeId(5));
}

TEST(TraceReader, LeftoverSpansSortedByBlock) {
  std::vector<TraceEvent> events;
  for (std::int64_t block : {7, 2, 5}) events.push_back(ev(0, "mig_enqueue", block));
  TraceReader reader(events);
  const auto spans = reader.migration_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].block, BlockId(2));
  EXPECT_EQ(spans[1].block, BlockId(5));
  EXPECT_EQ(spans[2].block, BlockId(7));
}

TEST(TraceReader, OfTypeAndCountOf) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent(0, "a"));
  events.push_back(TraceEvent(1, "b"));
  events.push_back(TraceEvent(2, "a"));
  TraceReader reader(events);
  EXPECT_EQ(reader.count_of("a"), 2u);
  EXPECT_EQ(reader.count_of("c"), 0u);
  const auto as = reader.of_type("a");
  ASSERT_EQ(as.size(), 2u);
  EXPECT_EQ(as[1]->at, 2);
}

}  // namespace
}  // namespace dyrs::obs
