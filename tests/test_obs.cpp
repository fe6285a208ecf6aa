// Tests for the observability layer: metrics registry, trace spans, JSON
// round-trips, and structured run reports (src/obs/).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/report_diff.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace phonolid {
namespace {

// --- Counters -------------------------------------------------------------

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter& c = obs::Metrics::counter("test.counter.basic");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
}

TEST(Counter, LookupReturnsSameObject) {
  obs::Counter& a = obs::Metrics::counter("test.counter.same");
  obs::Counter& b = obs::Metrics::counter("test.counter.same");
  EXPECT_EQ(&a, &b);
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  // The tentpole property: relaxed-atomic increments from a thread pool must
  // lose nothing.  4 workers x 256 tasks x 100 increments.
  obs::Counter& c = obs::Metrics::counter("test.counter.concurrent");
  const std::uint64_t before = c.value();
  constexpr std::size_t kTasks = 256;
  constexpr std::size_t kAddsPerTask = 100;
  util::ThreadPool pool(4);
  util::parallel_for(pool, 0, kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kAddsPerTask; ++i) c.add();
  });
  EXPECT_EQ(c.value(), before + kTasks * kAddsPerTask);
}

// --- Gauges ---------------------------------------------------------------

TEST(Gauge, TracksValueAndHighWatermark) {
  obs::Gauge& g = obs::Metrics::gauge("test.gauge.watermark");
  g.reset();
  EXPECT_EQ(g.add(3), 3);
  EXPECT_EQ(g.add(4), 7);
  EXPECT_EQ(g.add(-5), 2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);
  g.set(-1);
  EXPECT_EQ(g.value(), -1);
  EXPECT_EQ(g.max(), 7);  // watermark never decreases
}

TEST(Gauge, ConcurrentAddsBalanceToZero) {
  obs::Gauge& g = obs::Metrics::gauge("test.gauge.concurrent");
  g.reset();
  util::ThreadPool pool(4);
  util::parallel_for(pool, 0, 200, [&](std::size_t) {
    g.add(1);
    g.add(-1);
  });
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.max(), 1);
}

// --- Histograms -----------------------------------------------------------

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram& h =
      obs::Metrics::histogram("test.hist.edges", {1.0, 2.0, 5.0});
  h.reset();
  // Bucket i counts edges[i-1] < v <= edges[i]; final bucket is overflow.
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper edge)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(5.0);   // bucket 2
  h.observe(5.1);   // bucket 3 (overflow)
  h.observe(100.0); // bucket 3
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.total_count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.1 + 100.0, 1e-9);
}

TEST(Histogram, EdgeMismatchThrows) {
  obs::Metrics::histogram("test.hist.mismatch", {1.0, 2.0});
  EXPECT_THROW(obs::Metrics::histogram("test.hist.mismatch", {1.0, 3.0}),
               std::invalid_argument);
  // Same edges: fine, same object.
  obs::Histogram& a = obs::Metrics::histogram("test.hist.mismatch", {1.0, 2.0});
  obs::Histogram& b = obs::Metrics::histogram("test.hist.mismatch", {1.0, 2.0});
  EXPECT_EQ(&a, &b);
}

TEST(Histogram, ConcurrentObserveStressLosesNothing) {
  // Heavier stress than the pool variant: 8 raw threads x 10k observations
  // of exactly 1.0, so both the count and the sum must be bit-exact.
  obs::Histogram& h = obs::Metrics::histogram("test.hist.stress", {0.5, 2.0});
  h.reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::size_t i = 0; i < kPerThread; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.total_count(), kThreads * kPerThread);
  EXPECT_EQ(h.bucket_count(1), kThreads * kPerThread);  // 0.5 < 1.0 <= 2.0
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kPerThread));
}

TEST(Histogram, ConcurrentObservationsCountExactly) {
  obs::Histogram& h = obs::Metrics::histogram("test.hist.concurrent", {0.5});
  h.reset();
  util::ThreadPool pool(4);
  util::parallel_for(pool, 0, 1000, [&](std::size_t i) {
    h.observe(i % 2 == 0 ? 0.25 : 0.75);
  });
  EXPECT_EQ(h.total_count(), 1000u);
  EXPECT_EQ(h.bucket_count(0), 500u);
  EXPECT_EQ(h.bucket_count(1), 500u);
}

TEST(Metrics, SnapshotsContainRegisteredNames) {
  obs::Metrics::counter("test.snapshot.counter").add(5);
  obs::Metrics::gauge("test.snapshot.gauge").set(9);
  obs::Metrics::histogram("test.snapshot.hist", {1.0}).observe(0.5);

  const auto counters = obs::Metrics::counters();
  ASSERT_TRUE(counters.count("test.snapshot.counter"));
  EXPECT_GE(counters.at("test.snapshot.counter"), 5u);

  const auto gauges = obs::Metrics::gauges();
  ASSERT_TRUE(gauges.count("test.snapshot.gauge"));
  EXPECT_EQ(gauges.at("test.snapshot.gauge").value, 9);

  const auto hists = obs::Metrics::histograms();
  ASSERT_TRUE(hists.count("test.snapshot.hist"));
  EXPECT_EQ(hists.at("test.snapshot.hist").counts.size(), 2u);
}

TEST(Metrics, ResetZeroesInPlace) {
  obs::Counter& c = obs::Metrics::counter("test.reset.counter");
  c.add(10);
  obs::Metrics::reset();
  EXPECT_EQ(c.value(), 0u);  // hoisted reference still valid
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

// --- Trace spans ----------------------------------------------------------

const obs::SpanSnapshot* find_span(const std::vector<obs::SpanSnapshot>& spans,
                                   const std::string& path) {
  for (const auto& s : spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

TEST(Trace, NestedSpansAggregateUnderJoinedPath) {
  obs::Trace::reset();
  {
    PHONOLID_SPAN("outer");
    { PHONOLID_SPAN("inner"); }
    { PHONOLID_SPAN("inner"); }
  }
  const auto spans = obs::Trace::snapshot();
  const auto* outer = find_span(spans, "outer");
  const auto* inner = find_span(spans, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->total.count, 1u);
  EXPECT_EQ(inner->total.count, 2u);
  // The outer span covers both inner spans.
  EXPECT_GE(outer->total.total_s, inner->total.total_s);
  EXPECT_LE(inner->total.min_s, inner->total.max_s);
  // Sibling scopes at the same depth do not nest under each other.
  EXPECT_EQ(find_span(spans, "outer/inner/inner"), nullptr);
}

TEST(Trace, StopReturnsElapsedAndRecordsOnce) {
  obs::Trace::reset();
  obs::Span span("stopped");
  const double elapsed = span.stop();
  EXPECT_GE(elapsed, 0.0);
  {
    // Destruction after stop() must not double-record; a sibling span after
    // stop() starts from the restored parent path.
    PHONOLID_SPAN("sibling");
  }
  const auto spans = obs::Trace::snapshot();
  const auto* stopped = find_span(spans, "stopped");
  ASSERT_NE(stopped, nullptr);
  EXPECT_EQ(stopped->total.count, 1u);
  EXPECT_NEAR(stopped->total.total_s, elapsed, 1e-12);
  EXPECT_NE(find_span(spans, "sibling"), nullptr);
  EXPECT_EQ(find_span(spans, "stopped/sibling"), nullptr);
}

TEST(Trace, MergesSpansAcrossThreads) {
  obs::Trace::reset();
  { PHONOLID_SPAN("xthread"); }
  std::thread worker([] {
    { PHONOLID_SPAN("xthread"); }
    { PHONOLID_SPAN("xthread"); }
  });
  worker.join();  // retired-thread stats must survive the thread's exit
  const auto spans = obs::Trace::snapshot();
  const auto* s = find_span(spans, "xthread");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total.count, 3u);
  ASSERT_EQ(s->by_thread.size(), 2u);
  std::uint64_t by_thread_total = 0;
  for (const auto& [tid, stats] : s->by_thread) by_thread_total += stats.count;
  EXPECT_EQ(by_thread_total, 3u);
}

TEST(Trace, ResetDropsHistory) {
  { PHONOLID_SPAN("doomed"); }
  obs::Trace::reset();
  EXPECT_EQ(find_span(obs::Trace::snapshot(), "doomed"), nullptr);
}

// --- Thread-pool instrumentation -----------------------------------------

TEST(ThreadPoolMetrics, CountsTasksAndDrainsQueue) {
  obs::Counter& submitted = obs::Metrics::counter("threadpool.tasks_submitted");
  obs::Counter& completed = obs::Metrics::counter("threadpool.tasks_completed");
  obs::Gauge& depth = obs::Metrics::gauge("threadpool.queue_depth");
  const std::uint64_t sub0 = submitted.value();
  const std::uint64_t com0 = completed.value();

  util::ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();

  EXPECT_EQ(submitted.value() - sub0, 20u);
  EXPECT_EQ(completed.value() - com0, 20u);
  EXPECT_EQ(depth.value(), 0);  // fully drained

  const auto hists = obs::Metrics::histograms();
  ASSERT_TRUE(hists.count("threadpool.task_wait_s"));
  ASSERT_TRUE(hists.count("threadpool.task_run_s"));
  EXPECT_GE(hists.at("threadpool.task_run_s").count, 20u);
}

// --- JSON -----------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  obs::Json doc = obs::Json::object();
  doc["null"] = obs::Json(nullptr);
  doc["bool"] = obs::Json(true);
  doc["int"] = obs::Json(-42);
  doc["big"] = obs::Json(std::int64_t{1} << 53);
  doc["double"] = obs::Json(2.5);
  doc["string"] = obs::Json("he said \"hi\"\n\ttab");
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json(1));
  arr.push_back(obs::Json("two"));
  arr.push_back(obs::Json::object());
  doc["array"] = std::move(arr);

  const obs::Json parsed = obs::Json::parse(doc.dump_string());
  ASSERT_TRUE(parsed.is_object());
  EXPECT_TRUE(parsed.find("null")->is_null());
  EXPECT_EQ(parsed.find("bool")->as_bool(), true);
  EXPECT_EQ(parsed.find("int")->as_int(), -42);
  EXPECT_EQ(parsed.find("big")->as_int(), std::int64_t{1} << 53);
  EXPECT_DOUBLE_EQ(parsed.find("double")->as_double(), 2.5);
  EXPECT_EQ(parsed.find("string")->as_string(), "he said \"hi\"\n\ttab");
  ASSERT_TRUE(parsed.find("array")->is_array());
  ASSERT_EQ(parsed.find("array")->as_array().size(), 3u);
  EXPECT_EQ(parsed.find("array")->as_array()[1].as_string(), "two");
  // Insertion order is preserved.
  EXPECT_EQ(parsed.as_object().front().first, "null");
  EXPECT_EQ(parsed.as_object().back().first, "array");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  obs::Json doc = obs::Json::object();
  doc["inf"] = obs::Json(std::numeric_limits<double>::infinity());
  const obs::Json parsed = obs::Json::parse(doc.dump_string());
  EXPECT_TRUE(parsed.find("inf")->is_null());
}

// --- Run reports ----------------------------------------------------------

TEST(Report, BuildContainsSchemaMetaMetricsAndSpans) {
  obs::Metrics::counter("test.report.counter").add(3);
  obs::Trace::reset();
  { PHONOLID_SPAN("report_span"); }

  obs::ReportMeta meta;
  meta.tool = "test_obs";
  meta.command = "unit";
  meta.scale = "quick";
  meta.seed = 7;
  meta.threads = 2;
  obs::Json extra = obs::Json::object();
  extra["custom"] = obs::Json("section");
  const obs::Json report = obs::build_report(meta, std::move(extra));

  EXPECT_EQ(report.find("schema_version")->as_int(), obs::kReportSchemaVersion);
  const std::string& ts = report.find("generated_at")->as_string();
  EXPECT_EQ(ts.size(), 24u);  // 2026-08-06T12:34:56.789Z
  EXPECT_EQ(ts.back(), 'Z');

  const obs::Json* m = report.find("meta");
  EXPECT_EQ(m->find("tool")->as_string(), "test_obs");
  EXPECT_EQ(m->find("command")->as_string(), "unit");
  EXPECT_EQ(m->find("seed")->as_int(), 7);

  const obs::Json* counters = report.find("metrics")->find("counters");
  ASSERT_NE(counters->find("test.report.counter"), nullptr);
  EXPECT_GE(counters->find("test.report.counter")->as_int(), 3);

  bool saw_span = false;
  for (const auto& s : report.find("spans")->as_array()) {
    if (s.find("path")->as_string() == "report_span") {
      saw_span = true;
      EXPECT_EQ(s.find("count")->as_int(), 1);
      EXPECT_GE(s.find("total_s")->as_double(), 0.0);
      EXPECT_GE(s.find("by_thread")->as_array().size(), 1u);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_EQ(report.find("custom")->as_string(), "section");
}

TEST(Report, FileRoundTrip) {
  obs::ReportMeta meta;
  meta.tool = "test_obs";
  const std::string path = testing::TempDir() + "phonolid_test_report.json";
  obs::write_report_file(path, obs::build_report(meta));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::Json parsed = obs::Json::parse(buf.str());
  EXPECT_EQ(parsed.find("schema_version")->as_int(),
            obs::kReportSchemaVersion);
  EXPECT_EQ(parsed.find("meta")->find("tool")->as_string(), "test_obs");
  std::remove(path.c_str());
}

TEST(Report, UnwritablePathThrows) {
  obs::ReportMeta meta;
  EXPECT_THROW(
      obs::write_report_file("/nonexistent-dir/report.json",
                             obs::build_report(meta)),
      std::runtime_error);
}

// --- Flight recorder ------------------------------------------------------

/// Leaves the recorder disabled, empty, and at default capacity regardless
/// of what the test did (capacity is sticky per-process otherwise).
struct RecorderGuard {
  RecorderGuard() { obs::FlightRecorder::reset(); }
  ~RecorderGuard() {
    obs::FlightRecorder::disable();
    obs::FlightRecorder::enable(obs::FlightRecorder::kDefaultCapacity);
    obs::FlightRecorder::disable();
    obs::FlightRecorder::reset();
  }
};

const obs::ThreadEvents* find_thread_with_event(
    const std::vector<obs::ThreadEvents>& threads, const std::string& name) {
  for (const auto& t : threads) {
    for (const auto& e : t.events) {
      if (e.name != nullptr && name == e.name) return &t;
    }
  }
  return nullptr;
}

TEST(FlightRecorder, DisabledEmitsNothing) {
  RecorderGuard guard;
  ASSERT_FALSE(obs::FlightRecorder::enabled());
  obs::FlightRecorder::begin("fr_disabled");
  obs::FlightRecorder::end("fr_disabled");
  PHONOLID_EVENT("fr_disabled_evt", "k", 1);
  PHONOLID_COUNTER_SAMPLE("fr_disabled_ctr", 2.0);
  const auto snap = obs::FlightRecorder::snapshot();
  EXPECT_EQ(find_thread_with_event(snap, "fr_disabled"), nullptr);
  EXPECT_EQ(find_thread_with_event(snap, "fr_disabled_evt"), nullptr);
  EXPECT_EQ(find_thread_with_event(snap, "fr_disabled_ctr"), nullptr);
}

TEST(FlightRecorder, SpansEmitMatchedBeginEndInOrder) {
  RecorderGuard guard;
  obs::FlightRecorder::enable();
  {
    PHONOLID_SPAN("fr_outer");
    { PHONOLID_SPAN("fr_inner"); }
  }
  obs::FlightRecorder::disable();
  const auto snap = obs::FlightRecorder::snapshot();
  const auto* t = find_thread_with_event(snap, "fr_outer");
  ASSERT_NE(t, nullptr);

  // Project out just this test's events (the ring may hold unrelated ones).
  std::vector<const obs::TraceEvent*> mine;
  for (const auto& e : t->events) {
    if (std::string(e.name) == "fr_outer" || std::string(e.name) == "fr_inner")
      mine.push_back(&e);
  }
  ASSERT_EQ(mine.size(), 4u);
  EXPECT_EQ(mine[0]->phase, obs::TraceEvent::Phase::kBegin);
  EXPECT_STREQ(mine[0]->name, "fr_outer");
  EXPECT_EQ(mine[1]->phase, obs::TraceEvent::Phase::kBegin);
  EXPECT_STREQ(mine[1]->name, "fr_inner");
  EXPECT_EQ(mine[2]->phase, obs::TraceEvent::Phase::kEnd);
  EXPECT_STREQ(mine[2]->name, "fr_inner");
  EXPECT_EQ(mine[3]->phase, obs::TraceEvent::Phase::kEnd);
  EXPECT_STREQ(mine[3]->name, "fr_outer");
  for (std::size_t i = 1; i < mine.size(); ++i) {
    EXPECT_GE(mine[i]->ts_ns, mine[i - 1]->ts_ns);
  }
}

TEST(FlightRecorder, SpanAnnotateAttachesArgsToEndEvent) {
  RecorderGuard guard;
  obs::FlightRecorder::enable();
  {
    obs::Span span("fr_annotated");
    span.annotate("round", 7);
    span.annotate("trdba", 1234);
  }
  obs::FlightRecorder::disable();
  const auto snap = obs::FlightRecorder::snapshot();
  const auto* t = find_thread_with_event(snap, "fr_annotated");
  ASSERT_NE(t, nullptr);
  bool saw_end = false;
  for (const auto& e : t->events) {
    if (std::string(e.name) != "fr_annotated" ||
        e.phase != obs::TraceEvent::Phase::kEnd)
      continue;
    saw_end = true;
    ASSERT_EQ(e.num_args, 2u);
    EXPECT_STREQ(e.args[0].key, "round");
    EXPECT_EQ(e.args[0].value, 7);
    EXPECT_STREQ(e.args[1].key, "trdba");
    EXPECT_EQ(e.args[1].value, 1234);
  }
  EXPECT_TRUE(saw_end);
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDropped) {
  RecorderGuard guard;
  obs::FlightRecorder::enable(8);  // applies to rings created from now on
  std::thread worker([] {
    for (std::int64_t i = 0; i < 20; ++i) {
      PHONOLID_EVENT("fr_wrap", "i", i);
    }
  });
  worker.join();
  obs::FlightRecorder::disable();
  const auto snap = obs::FlightRecorder::snapshot();
  const auto* t = find_thread_with_event(snap, "fr_wrap");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->events.size(), 8u);  // ring is full, not grown
  EXPECT_EQ(t->dropped, 12u);
  // Oldest events were overwritten; the newest 8 survive in order.
  for (std::size_t i = 0; i < t->events.size(); ++i) {
    ASSERT_EQ(t->events[i].num_args, 1u);
    EXPECT_EQ(t->events[i].args[0].value,
              static_cast<std::int64_t>(12 + i));
  }
}

TEST(FlightRecorder, CrossThreadEventsKeepPerThreadIdentityAndOrder) {
  RecorderGuard guard;
  obs::FlightRecorder::enable();
  auto work = [](const char* name) {
    obs::FlightRecorder::set_thread_name(name);
    for (int i = 0; i < 50; ++i) PHONOLID_EVENT("fr_xthread");
  };
  std::thread a(work, "worker-a");
  std::thread b(work, "worker-b");
  a.join();
  b.join();
  obs::FlightRecorder::disable();

  const auto snap = obs::FlightRecorder::snapshot();
  std::size_t named = 0;
  std::uint32_t last_tid = 0;
  bool first = true;
  for (const auto& t : snap) {
    if (!first) {
      EXPECT_GT(t.tid, last_tid);  // sorted, unique tids
    }
    last_tid = t.tid;
    first = false;
    if (t.name == "worker-a" || t.name == "worker-b") {
      ++named;
      EXPECT_EQ(t.events.size(), 50u);
      for (std::size_t i = 1; i < t.events.size(); ++i) {
        EXPECT_GE(t.events[i].ts_ns, t.events[i - 1].ts_ns);
      }
    }
  }
  EXPECT_EQ(named, 2u);
}

// --- Chrome trace export --------------------------------------------------

/// Asserts the acceptance-criteria invariants on a parsed trace document:
/// every "B" has a matching "E" (per thread, properly nested) and per-thread
/// timestamps are monotonically non-decreasing.
void check_trace_invariants(const obs::Json& doc) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const obs::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<std::int64_t, std::vector<std::string>> stacks;
  std::map<std::int64_t, double> last_ts;
  for (const obs::Json& e : events->as_array()) {
    const std::string ph = e.find("ph")->as_string();
    const std::int64_t tid = e.find("tid")->as_int();
    if (ph == "M") continue;  // metadata carries no timestamp ordering
    const double ts = e.find("ts")->as_double();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      stacks[tid].push_back(e.find("name")->as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "unmatched E on tid " << tid;
      EXPECT_EQ(stacks[tid].back(), e.find("name")->as_string());
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(ChromeTrace, ExportedFileIsValidAndMatched) {
  RecorderGuard guard;
  obs::FlightRecorder::enable();
  obs::FlightRecorder::set_thread_name("test-main");
  {
    PHONOLID_SPAN("ct_outer");
    { PHONOLID_SPAN("ct_inner"); }
    PHONOLID_EVENT("ct_instant", "round", 3, "trdba", 99);
    PHONOLID_COUNTER_SAMPLE("ct_depth", 5.0);
  }
  std::thread worker([] {
    obs::FlightRecorder::set_thread_name("ct-worker");
    PHONOLID_SPAN("ct_worker_span");
  });
  worker.join();
  obs::FlightRecorder::disable();

  const std::string path = testing::TempDir() + "phonolid_test_trace.json";
  obs::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  const obs::Json doc = obs::Json::parse(buf.str());
  check_trace_invariants(doc);

  bool saw_main_name = false, saw_worker_name = false, saw_instant = false,
       saw_counter = false;
  for (const obs::Json& e : doc.find("traceEvents")->as_array()) {
    const std::string ph = e.find("ph")->as_string();
    const std::string name = e.find("name")->as_string();
    if (ph == "M" && name == "thread_name") {
      const std::string& tn = e.find("args")->find("name")->as_string();
      saw_main_name |= tn == "test-main";
      saw_worker_name |= tn == "ct-worker";
    }
    if (ph == "i" && name == "ct_instant") {
      saw_instant = true;
      EXPECT_EQ(e.find("s")->as_string(), "t");
      EXPECT_EQ(e.find("args")->find("round")->as_int(), 3);
      EXPECT_EQ(e.find("args")->find("trdba")->as_int(), 99);
    }
    if (ph == "C" && name == "ct_depth") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->as_double(), 5.0);
    }
  }
  EXPECT_TRUE(saw_main_name);
  EXPECT_TRUE(saw_worker_name);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

TEST(ChromeTrace, WraparoundOrphansAndOpenSpansStayMatched) {
  RecorderGuard guard;
  obs::FlightRecorder::enable(4);
  std::thread worker([] {
    // Begins fall off the ring (4 slots), leaving orphaned ends...
    obs::FlightRecorder::begin("ct_lost_a");
    obs::FlightRecorder::begin("ct_lost_b");
    for (int i = 0; i < 6; ++i) PHONOLID_EVENT("ct_filler");
    obs::FlightRecorder::end("ct_lost_b");
    obs::FlightRecorder::end("ct_lost_a");
    // ...and this span is still open when the thread exits.
    obs::FlightRecorder::begin("ct_left_open");
  });
  worker.join();
  obs::FlightRecorder::disable();
  // The exporter must drop the orphaned E's and synthesize a close for the
  // open B — the result still satisfies the matched-pairs invariant.
  check_trace_invariants(obs::chrome_trace_json());
}

// --- Prometheus export ----------------------------------------------------

TEST(Prometheus, TextFormatExposesAllMetricKinds) {
  obs::Metrics::counter("test.prom.counter").add(7);
  obs::Gauge& g = obs::Metrics::gauge("test.prom.gauge");
  g.reset();
  g.set(3);
  g.set(1);
  obs::Histogram& h = obs::Metrics::histogram("test.prom.hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(2.5);

  const std::string text = obs::prometheus_text();
  // Counter: dots sanitized, _total suffix, TYPE line.
  EXPECT_NE(text.find("# TYPE phonolid_test_prom_counter_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_counter_total 7\n"),
            std::string::npos);
  // Gauge: value plus high-watermark companion series.
  EXPECT_NE(text.find("# TYPE phonolid_test_prom_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_gauge 1\n"), std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_gauge_max 3\n"), std::string::npos);
  // Histogram: cumulative buckets ending in +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE phonolid_test_prom_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_hist_sum 4.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonolid_test_prom_hist_count 3\n"),
            std::string::npos);
}

TEST(Prometheus, OutputSortedByExportedNameAcrossKinds) {
  // Register deliberately out of lexical order, mixing kinds: export order
  // must depend only on the exported family name, never on registration
  // order or metric kind, so the text is byte-stable and diffable.
  obs::Metrics::histogram("test.zorder.cc", {1.0}).observe(0.5);
  obs::Metrics::counter("test.zorder.aa").add(1);
  obs::Metrics::gauge("test.zorder.bb").set(2);
  const std::string text = obs::prometheus_text();
  const auto pos_a = text.find("phonolid_test_zorder_aa_total ");
  const auto pos_b = text.find("phonolid_test_zorder_bb ");
  const auto pos_c = text.find("phonolid_test_zorder_cc_sum ");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_c, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_c);
  // Byte-stability: a second export of the same registry is identical.
  EXPECT_EQ(text, obs::prometheus_text());
}

// --- report-diff ----------------------------------------------------------

/// Minimal schema-v1 run report with one slow span, one sub-threshold span,
/// one counter, and one EER leaf.
obs::Json mini_report(double build_s, double tiny_s, double eer,
                      long long lattices) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": 1,"
      " \"spans\": [{\"path\": \"experiment_build\", \"mean_s\": %.17g},"
      "             {\"path\": \"tiny\", \"mean_s\": %.17g}],"
      " \"metrics\": {\"counters\": {\"decoder.lattices\": %lld}},"
      " \"results\": {\"dba\": {\"30s\": {\"eer\": %.17g}}}}",
      build_s, tiny_s, lattices, eer);
  return obs::Json::parse(buf);
}

obs::ReportDiffOptions gated_options() {
  obs::ReportDiffOptions opt;
  opt.max_regress_pct = 20.0;
  opt.max_eer_delta = 0.02;
  return opt;
}

TEST(ReportDiff, IdenticalReportsPass) {
  const obs::Json r = mini_report(10.0, 0.001, 0.15, 2376);
  const auto result = obs::diff_reports(r, r, gated_options());
  EXPECT_FALSE(result.violated);
  EXPECT_FALSE(result.rows.empty());
  EXPECT_NE(result.format().find("report-diff: OK"), std::string::npos);
}

TEST(ReportDiff, SpanRegressionBeyondThresholdViolates) {
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json slow = mini_report(13.0, 0.001, 0.15, 2376);  // +30%
  const auto result = obs::diff_reports(base, slow, gated_options());
  EXPECT_TRUE(result.violated);
  EXPECT_NE(result.format().find("VIOLATION"), std::string::npos);
  // +10% stays inside the 20% budget.
  const obs::Json ok = mini_report(11.0, 0.001, 0.15, 2376);
  EXPECT_FALSE(obs::diff_reports(base, ok, gated_options()).violated);
  // A speedup is never a violation, however large.
  const obs::Json fast = mini_report(1.0, 0.001, 0.15, 2376);
  EXPECT_FALSE(obs::diff_reports(base, fast, gated_options()).violated);
}

TEST(ReportDiff, ViolationLinesNameTheGateFlag) {
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json slow = mini_report(13.0, 0.001, 0.15, 2376);  // +30%
  const std::string text =
      obs::diff_reports(base, slow, gated_options()).format();
  EXPECT_NE(text.find("violation: max-regress "), std::string::npos) << text;
}

TEST(ReportDiff, EachFlagSetsItsOwnOption) {
  std::set<std::string_view> names;
  std::vector<double obs::ReportDiffOptions::*> fields;
  for (const obs::ReportDiffFlag& flag : obs::report_diff_flags()) {
    EXPECT_TRUE(names.insert(flag.name).second) << flag.name;
    for (const auto field : fields) EXPECT_NE(field, flag.field) << flag.name;
    fields.push_back(flag.field);
    EXPECT_FALSE(flag.help.empty()) << flag.name;
  }
  EXPECT_EQ(names.size(), 11u);  // ten gates and --min-span-s
  EXPECT_EQ(names.count("min-span-s"), 1u);
}

TEST(ReportDiff, SubMinimumSpansAreNotGated) {
  // "tiny" regresses 100x but its baseline mean is below min_span_s: noise,
  // not signal.
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json cur = mini_report(10.0, 0.1, 0.15, 2376);
  EXPECT_FALSE(obs::diff_reports(base, cur, gated_options()).violated);
}

TEST(ReportDiff, EerDeltaGatesAbsolutely) {
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json worse = mini_report(10.0, 0.001, 0.18, 2376);
  EXPECT_TRUE(obs::diff_reports(base, worse, gated_options()).violated);
  const obs::Json slightly = mini_report(10.0, 0.001, 0.16, 2376);
  EXPECT_FALSE(obs::diff_reports(base, slightly, gated_options()).violated);
  const obs::Json better = mini_report(10.0, 0.001, 0.05, 2376);
  EXPECT_FALSE(obs::diff_reports(base, better, gated_options()).violated);
}

TEST(ReportDiff, CountersReportButNeverGate) {
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 1000);
  const obs::Json cur = mini_report(10.0, 0.001, 0.15, 9999);
  const auto result = obs::diff_reports(base, cur, gated_options());
  EXPECT_FALSE(result.violated);
  bool saw_counter = false;
  for (const auto& row : result.rows) {
    if (row.kind == "counter") {
      saw_counter = true;
      EXPECT_FALSE(row.gated);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(ReportDiff, ThresholdsDefaultOff) {
  // Default options (negative thresholds) report deltas without gating.
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json worse = mini_report(30.0, 0.001, 0.40, 2376);
  const auto result = obs::diff_reports(base, worse, obs::ReportDiffOptions{});
  EXPECT_FALSE(result.violated);
}

TEST(ReportDiff, OneSidedKeysAreNotesNotViolations) {
  obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json cur = obs::Json::parse(
      "{\"schema_version\": 1, \"spans\": [],"
      " \"metrics\": {\"counters\": {}}, \"results\": {}}");
  const auto result = obs::diff_reports(base, cur, gated_options());
  EXPECT_FALSE(result.violated);
  EXPECT_FALSE(result.notes.empty());
  bool saw = false;
  for (const auto& note : result.notes) {
    saw |= note.find("only in baseline") != std::string::npos;
  }
  EXPECT_TRUE(saw);
}

TEST(ReportDiff, SchemaMismatchViolates) {
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  obs::Json cur = mini_report(10.0, 0.001, 0.15, 2376);
  cur["schema_version"] = obs::Json(2);
  EXPECT_TRUE(obs::diff_reports(base, cur, obs::ReportDiffOptions{}).violated);
}

/// Minimal report with a "quality" section (scalars + adoption + an
/// undiffed DET subtree) and a "resource" section.
obs::Json quality_report(double cavg, double cllr, double precision,
                         long long rss) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": 1, \"spans\": [],"
      " \"metrics\": {\"counters\": {}}, \"results\": {},"
      " \"quality\": {\"quality_version\": 1, \"cavg\": %.17g,"
      "   \"cllr\": %.17g,"
      "   \"adoption\": {\"precision\": %.17g, \"recall\": 0.5},"
      "   \"det\": [{\"p_fa\": 0.1, \"p_miss\": 0.2}]},"
      " \"resource\": {\"peak_rss_bytes\": %lld, \"user_cpu_s\": 1.5}}",
      cavg, cllr, precision, rss);
  return obs::Json::parse(buf);
}

TEST(ReportDiff, CavgDeltaGatesWithDedicatedThreshold) {
  const obs::Json base = quality_report(0.20, 1.0, 0.9, 1000);
  const obs::Json worse = quality_report(0.24, 1.0, 0.9, 1000);
  obs::ReportDiffOptions opt;
  opt.max_cavg_delta = 0.03;
  EXPECT_TRUE(obs::diff_reports(base, worse, opt).violated);
  opt.max_cavg_delta = 0.05;
  EXPECT_FALSE(obs::diff_reports(base, worse, opt).violated);
}

TEST(ReportDiff, CavgFallsBackToEerDelta) {
  // With max_cavg_delta unset, cavg leaves gate on max_eer_delta
  // (the pre-cavg-flag behaviour).
  const obs::Json base = quality_report(0.20, 1.0, 0.9, 1000);
  const obs::Json worse = quality_report(0.24, 1.0, 0.9, 1000);
  obs::ReportDiffOptions opt;
  opt.max_eer_delta = 0.02;
  EXPECT_TRUE(obs::diff_reports(base, worse, opt).violated);
  // A dedicated cavg budget overrides the fallback.
  opt.max_cavg_delta = 0.1;
  EXPECT_FALSE(obs::diff_reports(base, worse, opt).violated);
}

TEST(ReportDiff, CllrDeltaGatesQualityLeaves) {
  const obs::Json base = quality_report(0.20, 1.0, 0.9, 1000);
  const obs::Json worse = quality_report(0.20, 1.6, 0.9, 1000);
  obs::ReportDiffOptions opt;
  opt.max_cllr_delta = 0.5;
  EXPECT_TRUE(obs::diff_reports(base, worse, opt).violated);
  const obs::Json better = quality_report(0.20, 0.2, 0.9, 1000);
  EXPECT_FALSE(obs::diff_reports(base, better, opt).violated);
}

TEST(ReportDiff, AdoptionPrecisionGatesOnDrop) {
  const obs::Json base = quality_report(0.20, 1.0, 0.90, 1000);
  obs::ReportDiffOptions opt;
  opt.max_adoption_precision_drop = 0.05;
  // Precision is better-high: a drop beyond the budget violates ...
  const obs::Json dropped = quality_report(0.20, 1.0, 0.80, 1000);
  EXPECT_TRUE(obs::diff_reports(base, dropped, opt).violated);
  // ... a small drop or any rise does not.
  const obs::Json slight = quality_report(0.20, 1.0, 0.87, 1000);
  EXPECT_FALSE(obs::diff_reports(base, slight, opt).violated);
  const obs::Json rise = quality_report(0.20, 1.0, 0.99, 1000);
  EXPECT_FALSE(obs::diff_reports(base, rise, opt).violated);
}

TEST(ReportDiff, ResourceRowsReportButNeverGate) {
  const obs::Json base = quality_report(0.20, 1.0, 0.9, 1000);
  const obs::Json cur = quality_report(0.20, 1.0, 0.9, 999999);
  obs::ReportDiffOptions opt;
  opt.max_cllr_delta = 0.0;
  opt.max_adoption_precision_drop = 0.0;
  const auto result = obs::diff_reports(base, cur, opt);
  EXPECT_FALSE(result.violated);
  bool saw_resource = false;
  for (const auto& row : result.rows) {
    if (row.kind == "resource") {
      saw_resource = true;
      EXPECT_FALSE(row.gated);
    }
  }
  EXPECT_TRUE(saw_resource);
}

TEST(ReportDiff, QualityDetSubtreeIsNotDiffed) {
  const obs::Json base = quality_report(0.20, 1.0, 0.9, 1000);
  const auto result = obs::diff_reports(base, base, obs::ReportDiffOptions{});
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.key.find("quality/det"), std::string::npos) << row.key;
  }
}

TEST(ReportDiff, MissingQualitySectionIsNoteNotViolation) {
  // An old report without quality/resource sections must still compare
  // cleanly against a new one — even with every quality gate enabled.
  const obs::Json old_report = mini_report(10.0, 0.001, 0.15, 2376);
  const obs::Json new_report = quality_report(0.20, 1.0, 0.9, 1000);
  obs::ReportDiffOptions opt = gated_options();
  opt.max_cavg_delta = 0.02;
  opt.max_cllr_delta = 0.1;
  opt.max_adoption_precision_drop = 0.02;
  const auto ab = obs::diff_reports(old_report, new_report, opt);
  EXPECT_FALSE(ab.violated);
  bool saw = false;
  for (const auto& note : ab.notes) {
    saw |= note.find("quality") != std::string::npos;
  }
  EXPECT_TRUE(saw);
  EXPECT_FALSE(obs::diff_reports(new_report, old_report, opt).violated);
}

TEST(ReportDiff, UnknownTopLevelSectionIsNoteNotViolation) {
  // A report written by a newer binary may carry sections this build has
  // never heard of; they must surface as notes and never gate or error.
  const obs::Json base = mini_report(10.0, 0.001, 0.15, 2376);
  obs::Json cur = mini_report(10.0, 0.001, 0.15, 2376);
  cur["quantum_decoder"] =
      obs::Json::parse("{\"qubits\": 12, \"fidelity\": 0.99}");
  obs::ReportDiffOptions opt = gated_options();
  opt.max_cllr_delta = 0.0;
  opt.max_energy_delta_pct = 0.0;
  const auto result = obs::diff_reports(base, cur, opt);
  EXPECT_FALSE(result.violated);
  bool saw = false;
  for (const auto& note : result.notes) {
    saw |= note.find("unknown section \"quantum_decoder\"") !=
           std::string::npos;
  }
  EXPECT_TRUE(saw);
  // The unknown subtree must not leak comparison rows either.
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.key.find("quantum_decoder"), std::string::npos) << row.key;
  }
}

/// Minimal bench_serve report: the serve section's two gated leaves plus a
/// report-only shed counter.
obs::Json serve_report(double p99_ms, double throughput_rps) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": 1, \"spans\": [],"
      " \"metrics\": {\"counters\": {}},"
      " \"serve\": {\"version\": 1, \"throughput_rps\": %.17g,"
      "   \"latency_ms\": {\"p50\": 1.0, \"p99\": %.17g},"
      "   \"sheds_overloaded\": 0}}",
      throughput_rps, p99_ms);
  return obs::Json::parse(buf);
}

TEST(ReportDiff, ServeP99GatesOnRelativeGrowth) {
  const obs::Json base = serve_report(100.0, 50.0);
  obs::ReportDiffOptions opt;
  opt.max_serve_p99_regress_pct = 200.0;
  // 4x the baseline p99 (+300%) breaches a 200% budget ...
  const auto worse = obs::diff_reports(base, serve_report(400.0, 50.0), opt);
  EXPECT_TRUE(worse.violated);
  EXPECT_NE(worse.format().find("max-serve-p99-regress"), std::string::npos);
  // ... +100% stays inside it, and a faster daemon never violates.
  EXPECT_FALSE(obs::diff_reports(base, serve_report(200.0, 50.0), opt).violated);
  EXPECT_FALSE(obs::diff_reports(base, serve_report(10.0, 50.0), opt).violated);
}

TEST(ReportDiff, ServeThroughputGatesOnDrop) {
  const obs::Json base = serve_report(100.0, 50.0);
  obs::ReportDiffOptions opt;
  opt.max_serve_throughput_drop_pct = 50.0;
  // Losing 80% of baseline throughput breaches a 50% budget ...
  EXPECT_TRUE(obs::diff_reports(base, serve_report(100.0, 10.0), opt).violated);
  // ... a 20% dip or any gain does not.
  EXPECT_FALSE(obs::diff_reports(base, serve_report(100.0, 40.0), opt).violated);
  EXPECT_FALSE(
      obs::diff_reports(base, serve_report(100.0, 500.0), opt).violated);
}

/// Serve report with a per-phase breakdown (bench_serve serve section v2):
/// queue_wait and compute p99s vary, the other phases stay fixed.
obs::Json serve_phase_report(double queue_wait_p99_ms, double compute_p99_ms) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": 1, \"spans\": [],"
      " \"metrics\": {\"counters\": {}},"
      " \"serve\": {\"version\": 2, \"throughput_rps\": 50.0,"
      "   \"latency_ms\": {\"p50\": 1.0, \"p99\": 100.0},"
      "   \"phases\": {"
      "     \"queue_wait_ms\": {\"p50\": 1.0, \"p99\": %.17g, \"p999\": %.17g},"
      "     \"compute_ms\": {\"p50\": 10.0, \"p99\": %.17g, \"p999\": %.17g},"
      "     \"write_ms\": {\"p50\": 0.1, \"p99\": 0.2, \"p999\": 0.5}}}}",
      queue_wait_p99_ms, queue_wait_p99_ms, compute_p99_ms, compute_p99_ms);
  return obs::Json::parse(buf);
}

TEST(ReportDiff, PhaseP99GatesEachPhaseSeparately) {
  const obs::Json base = serve_phase_report(20.0, 50.0);
  obs::ReportDiffOptions opt;
  opt.max_phase_p99_regress_pct = 200.0;
  // A queue-wait blowup breaches the budget even though compute is flat —
  // the per-phase gate is exactly what separates an admission/batching
  // regression from a kernel slowdown.
  const auto queue_worse =
      obs::diff_reports(base, serve_phase_report(100.0, 50.0), opt);
  EXPECT_TRUE(queue_worse.violated);
  EXPECT_NE(queue_worse.format().find("max-phase-p99-regress"),
            std::string::npos);
  EXPECT_NE(queue_worse.format().find("queue_wait_ms"), std::string::npos);
  // A compute blowup with flat queue wait also gates.
  EXPECT_TRUE(
      obs::diff_reports(base, serve_phase_report(20.0, 300.0), opt).violated);
  // Inside the budget (or faster) never violates.
  EXPECT_FALSE(
      obs::diff_reports(base, serve_phase_report(40.0, 50.0), opt).violated);
  EXPECT_FALSE(
      obs::diff_reports(base, serve_phase_report(1.0, 5.0), opt).violated);
}

TEST(ReportDiff, PhaseP99SubMillisecondDeltasNeverViolate) {
  // 0.1 -> 0.5 ms is +400% but only one histogram bucket of wobble; the
  // absolute 1 ms slack keeps CI from flaking on fast phases.
  const obs::Json base = serve_phase_report(0.1, 50.0);
  obs::ReportDiffOptions opt;
  opt.max_phase_p99_regress_pct = 200.0;
  EXPECT_FALSE(
      obs::diff_reports(base, serve_phase_report(0.5, 50.0), opt).violated);
  // Past the slack AND past the relative budget, it does violate.
  EXPECT_TRUE(
      obs::diff_reports(base, serve_phase_report(5.0, 50.0), opt).violated);
}

TEST(ReportDiff, PhaseP99GateOffByDefault) {
  const obs::Json base = serve_phase_report(20.0, 50.0);
  EXPECT_FALSE(obs::diff_reports(base, serve_phase_report(2000.0, 5000.0), {})
                   .violated);
}

TEST(ReportDiff, ServeRowsOtherThanGatedLeavesNeverGate) {
  const obs::Json base = serve_report(100.0, 50.0);
  obs::ReportDiffOptions opt;
  opt.max_serve_p99_regress_pct = 0.0;
  opt.max_serve_throughput_drop_pct = 0.0;
  const auto result = obs::diff_reports(base, base, opt);
  EXPECT_FALSE(result.violated);
  bool saw_ungated = false;
  for (const auto& row : result.rows) {
    if (row.kind != "serve") continue;
    if (row.key == "serve/latency_ms/p99" ||
        row.key == "serve/throughput_rps") {
      EXPECT_TRUE(row.gated) << row.key;
    } else {
      EXPECT_FALSE(row.gated) << row.key;
      saw_ungated = true;
    }
  }
  EXPECT_TRUE(saw_ungated);
}

}  // namespace
}  // namespace phonolid
