// The observability layer (src/telemetry/): the lock-free metrics registry,
// request-scoped trace spans, and the exporters, plus their wiring through
// the serving runtime. The two load-bearing properties pinned here:
//
//  * histogram linearizability-by-merge — concurrent recorders striped
//    across threads must produce exactly the snapshot a single-threaded
//    oracle computes from the same multiset of values (runs under TSan via
//    the `tsan` label);
//
//  * unwind safety — a request killed mid-pipeline by its deadline leaves a
//    trace whose spans are all closed, properly nested and never leaked,
//    with the terminal status recorded.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;
using telemetry::HistogramSnapshot;
using telemetry::RequestKind;
using telemetry::Stage;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

wrapper::Wrapper CatalogWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    price(Y) <- item(X), subelem(X, "td@price", Y).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};
  return w;
}

std::string CatalogPage(uint64_t seed, int32_t items) {
  util::Rng rng(seed);
  html::CatalogOptions opts;
  opts.num_items = items;
  opts.with_ads = true;
  return html::ProductCatalogPage(rng, opts);
}

// ---------------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------------

TEST(HistogramBucketTest, BucketsAreContiguousAndMonotone) {
  // Buckets past the one holding int64 max are unreachable (their lower
  // bounds don't fit in int64) — the invariants apply up to `last`.
  const int32_t last =
      HistogramSnapshot::BucketOf(std::numeric_limits<int64_t>::max());
  EXPECT_LT(last, HistogramSnapshot::kNumBuckets);
  // Every bucket's range must start exactly where the previous one ended.
  for (int32_t b = 1; b <= last; ++b) {
    EXPECT_EQ(HistogramSnapshot::BucketLowerBound(b),
              HistogramSnapshot::BucketUpperBound(b - 1))
        << "bucket " << b;
  }
  // Round trip: a bucket's bounds map back to the bucket itself.
  for (int32_t b = 0; b <= last; ++b) {
    const int64_t lo = HistogramSnapshot::BucketLowerBound(b);
    EXPECT_EQ(HistogramSnapshot::BucketOf(lo), b) << "lower of bucket " << b;
    if (b < last) {
      const int64_t hi = HistogramSnapshot::BucketUpperBound(b);
      EXPECT_EQ(HistogramSnapshot::BucketOf(hi - 1), b)
          << "upper of bucket " << b;
    }
  }
  // Extremes stay in range.
  EXPECT_EQ(HistogramSnapshot::BucketOf(0), 0);
  EXPECT_EQ(HistogramSnapshot::BucketOf(-5), 0);  // clamps
}

TEST(HistogramBucketTest, QuantileErrorIsBoundedByBucketWidth) {
  // 4 sub-buckets per octave bound the relative bucket width at 25%; the
  // percentile estimate for a point mass must land within that.
  telemetry::Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(1'200'000);  // "p99 is ~1.2ms"
  const HistogramSnapshot snap = h.Snapshot();
  for (double q : {0.5, 0.9, 0.99}) {
    const int64_t est = snap.Percentile(q);
    EXPECT_GE(est, 1'200'000 * 3 / 4) << q;
    EXPECT_LE(est, 1'200'000 * 5 / 4) << q;
  }
  EXPECT_EQ(snap.max, 1'200'000);
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, int64_t{1'200'000} * 1000);
}

// ---------------------------------------------------------------------------
// Concurrent recording vs a single-thread oracle (TSan-labeled)
// ---------------------------------------------------------------------------

TEST(MetricsConcurrencyTest, ConcurrentRecordersMatchSingleThreadOracle) {
  // Deterministic per-thread value sequences (no wall clock, no races in the
  // expectation): thread t records F(t, i) for i in [0, kPerThread).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  const auto value = [](int t, int i) {
    // Spread across many octaves, including 0 and sub-kSub smalls.
    return (static_cast<int64_t>(i) * 2654435761u + t * 40503u) %
           (int64_t{1} << ((i % 40) + 1));
  };

  telemetry::MetricsRegistry registry;
  telemetry::Histogram* hist = registry.GetHistogram("test.latency");
  telemetry::Counter* counter = registry.GetCounter("test.events");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist->Record(value(t, i));
        counter->Add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // The oracle folds the same multiset single-threaded.
  HistogramSnapshot oracle;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int64_t v = value(t, i);
      ++oracle.counts[HistogramSnapshot::BucketOf(v)];
      ++oracle.count;
      oracle.sum += v;
      oracle.max = std::max(oracle.max, v);
    }
  }

  const HistogramSnapshot got = hist->Snapshot();
  EXPECT_EQ(got.count, oracle.count);
  EXPECT_EQ(got.sum, oracle.sum);
  EXPECT_EQ(got.max, oracle.max);
  EXPECT_EQ(got.counts, oracle.counts);
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, SnapshotMergeIsBucketwiseAddition) {
  telemetry::Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(i * 17);
  for (int i = 0; i < 50; ++i) b.Record(i * 1000);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());

  telemetry::Histogram both;
  for (int i = 0; i < 100; ++i) both.Record(i * 17);
  for (int i = 0; i < 50; ++i) both.Record(i * 1000);
  const HistogramSnapshot expected = both.Snapshot();
  EXPECT_EQ(merged.counts, expected.counts);
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.max, expected.max);
}

// ---------------------------------------------------------------------------
// Trace spans: nesting, RAII, the untraced fast path
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansNestAndCloseInLifoOrder) {
  telemetry::TraceContext trace(RequestKind::kWrap);
  {
    telemetry::TraceSpan outer(&trace, Stage::kDocFetch);
    {
      telemetry::TraceSpan inner(&trace, Stage::kStoreRehydrate);
      telemetry::TraceSpan sibling_after(&trace, Stage::kHtmlParse);
    }
    telemetry::TraceSpan second(&trace, Stage::kOutputBuild);
  }
  trace.Close();

  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.open_spans(), 0);
  EXPECT_EQ(trace.spans()[0].stage, Stage::kDocFetch);
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_EQ(trace.spans()[1].stage, Stage::kStoreRehydrate);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_EQ(trace.spans()[1].depth, 1);
  EXPECT_EQ(trace.spans()[2].stage, Stage::kHtmlParse);
  EXPECT_EQ(trace.spans()[2].parent, 1);
  EXPECT_EQ(trace.spans()[2].depth, 2);
  EXPECT_EQ(trace.spans()[3].stage, Stage::kOutputBuild);
  EXPECT_EQ(trace.spans()[3].parent, 0);
  for (const telemetry::SpanRecord& s : trace.spans()) {
    EXPECT_GE(s.end_ns, s.start_ns) << StageName(s.stage);
  }
}

TEST(TraceTest, LeakedSpanClosesWithItsParent) {
  telemetry::TraceContext trace(RequestKind::kWrap);
  const int32_t root = trace.BeginSpan(Stage::kDocFetch);
  const int32_t outer = trace.BeginSpan(Stage::kStoreRehydrate);
  const int32_t leaked = trace.BeginSpan(Stage::kHtmlParse);  // never ended
  EXPECT_EQ(trace.open_spans(), 3);

  // Ending `outer` closes the span leaked inside it, at the same instant.
  trace.EndSpan(outer);
  const std::vector<telemetry::SpanRecord>& spans = trace.spans();
  EXPECT_GT(spans[outer].end_ns, 0);
  EXPECT_EQ(spans[leaked].end_ns, spans[outer].end_ns);
  EXPECT_EQ(spans[root].end_ns, 0);  // still open
  EXPECT_EQ(trace.open_spans(), 1);

  // A late EndSpan of the leaked span changes nothing; the next span nests
  // under the span still open.
  const int64_t leaked_end = spans[leaked].end_ns;
  trace.EndSpan(leaked);
  EXPECT_EQ(trace.spans()[leaked].end_ns, leaked_end);
  EXPECT_EQ(trace.spans()[root].end_ns, 0);
  const int32_t next = trace.BeginSpan(Stage::kOutputBuild);
  EXPECT_EQ(trace.spans()[next].parent, root);
  EXPECT_EQ(trace.spans()[next].depth, 1);
  trace.EndSpan(next);
  trace.EndSpan(root);
  EXPECT_EQ(trace.open_spans(), 0);
  EXPECT_GE(trace.spans()[root].end_ns, trace.spans()[next].end_ns);
}

TEST(TraceTest, NullContextSpanIsANoOp) {
  telemetry::TraceSpan span(nullptr, Stage::kHash);
  EXPECT_FALSE(span);
  span.Tag("ignored");
  span.Value("ignored", 1);  // must not crash, must not allocate
}

TEST(TraceTest, SpanCapCountsDropsAndStaysBalanced) {
  telemetry::TraceContext trace(RequestKind::kStream);
  for (size_t i = 0; i < telemetry::TraceContext::kMaxSpans + 100; ++i) {
    telemetry::TraceSpan span(&trace, Stage::kStreamFeed);
  }
  trace.Close();
  EXPECT_EQ(trace.spans().size(), telemetry::TraceContext::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 100);
  EXPECT_EQ(trace.open_spans(), 0);
}

// ---------------------------------------------------------------------------
// The stage vocabulary: names pinned as literals, so exports cannot drift
// ---------------------------------------------------------------------------

// Every Stage with the display name the exports have always used.
const std::vector<std::pair<Stage, std::string>>& PinnedStageNames() {
  static const auto* pinned = new std::vector<std::pair<Stage, std::string>>{
      {Stage::kHash, "hash"},
      {Stage::kMemoLookup, "memo.lookup"},
      {Stage::kDocFetch, "doc.fetch"},
      {Stage::kStoreRehydrate, "store.rehydrate"},
      {Stage::kHtmlParse, "html.parse"},
      {Stage::kEvalGrounded, "eval.grounded"},
      {Stage::kEvalNative, "eval.native"},
      {Stage::kOutputBuild, "output.build"},
      {Stage::kMemoInsert, "memo.insert"},
      {Stage::kSatSolve, "sat.solve"},
      {Stage::kStreamFeed, "stream.feed"},
      {Stage::kStreamPropagate, "stream.propagate"},
      {Stage::kStreamFinish, "stream.finish"},
  };
  return *pinned;
}

TEST(StageVocabularyTest, EachStageHasItsOwnPinnedName) {
  ASSERT_EQ(PinnedStageNames().size(), telemetry::kNumStages);
  std::set<std::string> distinct;
  for (const auto& [stage, name] : PinnedStageNames()) {
    EXPECT_EQ(StageName(stage), name);
    distinct.insert(StageName(stage));
  }
  EXPECT_EQ(distinct.size(), telemetry::kNumStages);
  ASSERT_EQ(telemetry::kNumRequestKinds, 2u);
  EXPECT_STREQ(RequestKindName(RequestKind::kWrap), "wrap");
  EXPECT_STREQ(RequestKindName(RequestKind::kStream), "stream");
}

TEST(StageVocabularyTest, FoldRecordsUnderThePinnedHistogramNames) {
  telemetry::Telemetry tel;
  // No histogram exists before its stage first folds.
  EXPECT_TRUE(tel.registry().Snapshot().histograms.empty());

  auto wrap = tel.StartTrace(RequestKind::kWrap);
  ASSERT_NE(wrap, nullptr);
  for (const auto& pinned : PinnedStageNames()) {
    telemetry::TraceSpan span(wrap.get(), pinned.first);
  }
  tel.FinishTrace(std::move(wrap), util::StatusCode::kOk);
  tel.FinishTrace(tel.StartTrace(RequestKind::kStream),
                  util::StatusCode::kOk);

  std::set<std::string> expected = {"request.wrap.ns", "request.stream.ns"};
  for (const auto& pinned : PinnedStageNames()) {
    expected.insert("stage." + pinned.second + ".ns");
  }
  const telemetry::MetricsSnapshot snap = tel.registry().Snapshot();
  std::set<std::string> got;
  for (const auto& [name, h] : snap.histograms) {
    got.insert(name);
    EXPECT_EQ(h.count, 1u) << name;
  }
  EXPECT_EQ(got, expected);

  // Span names and request kinds in the JSON export read the same table.
  const std::string json = telemetry::ToJson(snap, tel.RecentTraces());
  for (const auto& pinned : PinnedStageNames()) {
    EXPECT_NE(json.find("{\"name\":\"" + pinned.second + "\","),
              std::string::npos)
        << pinned.second;
  }
  EXPECT_NE(json.find("\"kind\":\"stream\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Runtime wiring
// ---------------------------------------------------------------------------

TEST(RuntimeTelemetryTest, CountersPreservedNameForNameWhenDisabled) {
  runtime::RuntimeOptions options;
  options.telemetry.enabled = false;
  runtime::WrapperRuntime rt(options);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  const std::string page = CatalogPage(7, 10);
  ASSERT_TRUE(rt.Wrap(*handle, page).ok());
  ASSERT_TRUE(rt.Wrap(*handle, page).ok());  // memo hit: not a page wrapped

  // stats() must stay exact with telemetry off: counters always record.
  const runtime::RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.pages_wrapped, 1);
  EXPECT_EQ(stats.grounded_evals + stats.native_evals, 1);
  EXPECT_EQ(stats.memo_hits, 1);
  // Tracing is off: no retained traces, no per-stage histograms.
  EXPECT_TRUE(rt.telemetry().RecentTraces().empty());
  const std::string prom = rt.ExportPrometheus();
  EXPECT_NE(prom.find("mdatalog_runtime_pages_wrapped_total 1"),
            std::string::npos);
  EXPECT_EQ(prom.find("mdatalog_stage_"), std::string::npos);
}

TEST(RuntimeTelemetryTest, TracedWrapRecordsPipelineStages) {
  runtime::WrapperRuntime rt;  // telemetry on by default
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  const std::string page = CatalogPage(11, 12);
  ASSERT_TRUE(rt.Wrap(*handle, page).ok());

  const auto traces = rt.telemetry().RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const telemetry::FinishedTrace& t = traces[0];
  EXPECT_EQ(t.kind, RequestKind::kWrap);
  EXPECT_EQ(t.status, util::StatusCode::kOk);
  EXPECT_EQ(t.page_bytes, static_cast<int64_t>(page.size()));
  EXPECT_GT(t.nodes, 0);

  const auto has_span = [&t](Stage stage) {
    return std::any_of(
        t.spans.begin(), t.spans.end(),
        [stage](const telemetry::SpanRecord& s) { return s.stage == stage; });
  };
  EXPECT_TRUE(has_span(Stage::kHash));
  EXPECT_TRUE(has_span(Stage::kMemoLookup));
  EXPECT_TRUE(has_span(Stage::kDocFetch));
  EXPECT_TRUE(has_span(Stage::kHtmlParse));
  EXPECT_TRUE(has_span(Stage::kEvalGrounded) ||
              has_span(Stage::kEvalNative));
  EXPECT_TRUE(has_span(Stage::kOutputBuild));
  // Nested spans sit inside their parents.
  for (const telemetry::SpanRecord& s : t.spans) {
    const char* name = StageName(s.stage);
    EXPECT_GE(s.end_ns, s.start_ns) << name;
    if (s.parent >= 0) {
      const telemetry::SpanRecord& p = t.spans[s.parent];
      EXPECT_GE(s.start_ns, p.start_ns) << name;
      EXPECT_LE(s.end_ns, p.end_ns) << name;
      EXPECT_EQ(s.depth, p.depth + 1) << name;
    }
  }
  // The fold produced stage histograms and the per-kind request histogram.
  const std::string prom = rt.ExportPrometheus();
  EXPECT_NE(prom.find("mdatalog_stage_doc_fetch_ns"), std::string::npos);
  EXPECT_NE(prom.find("mdatalog_request_wrap_ns"), std::string::npos);
}

TEST(RuntimeTelemetryTest, DeadlineUnwindClosesEverySpan) {
  // A page big enough that tokenization/evaluation outlives a 1ms deadline
  // on any machine (the existing stream deadline test uses the same shape).
  std::string page = "<html><body>";
  const std::string filler(512, 'x');
  for (int i = 0; i < 4000; ++i) page += "<div id=\"" + filler + "\">t</div>";
  page += "</body></html>";

  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(std::chrono::milliseconds(1));
  util::Result<std::string> result = rt.Wrap(*handle, page, request);
  // Either the deadline fired mid-pipeline (expected) or a fast machine
  // finished the page; the unwind invariants below hold in both cases.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  // The runtime finished the trace into its ring. The ring stays empty only
  // when the request was already past its deadline at admission, before any
  // trace started.
  const std::vector<telemetry::FinishedTrace> traces =
      rt.telemetry().RecentTraces();
  if (traces.empty()) {
    ASSERT_FALSE(result.ok());
    return;
  }
  ASSERT_EQ(traces.size(), 1u);
  const telemetry::FinishedTrace& trace = traces.back();
  EXPECT_EQ(trace.kind, RequestKind::kWrap);
  EXPECT_EQ(trace.status, result.ok() ? util::StatusCode::kOk
                                      : util::StatusCode::kDeadlineExceeded);
  // All spans closed, none leaked open, nesting intact — even though the
  // deadline unwound the pipeline from an arbitrary depth.
  EXPECT_GT(trace.duration_ns, 0);
  for (const telemetry::SpanRecord& s : trace.spans) {
    const char* name = StageName(s.stage);
    EXPECT_GT(s.end_ns, 0) << name;  // 0 = still open
    EXPECT_GE(s.end_ns, s.start_ns) << name;
    if (s.parent >= 0) {
      EXPECT_EQ(s.depth, trace.spans[s.parent].depth + 1) << name;
    }
  }
}

TEST(RuntimeTelemetryTest, StreamSessionTraceClosesOnDeadline) {
  std::string page = "<html><body>";
  const std::string filler(512, 'x');
  for (int i = 0; i < 4000; ++i) page += "<div id=\"" + filler + "\">t</div>";
  page += "</body></html>";

  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(std::chrono::milliseconds(1));
  auto session = rt.SubmitStream({.wrapper = *handle, .options = request}, {});
  // A session that could not even open (already past its deadline) never
  // started a trace.
  if (!session.ok()) return;
  util::Status s;
  for (int i = 0; i < 64 && s.ok(); ++i) s = (*session)->Feed(page);
  util::StatusCode code = s.code();
  if (s.ok()) {
    auto xml = (*session)->Finish();  // settles the trace either way
    code = xml.ok() ? util::StatusCode::kOk : xml.status().code();
  }
  // The terminal status settled the trace into the runtime's ring.
  const std::vector<telemetry::FinishedTrace> traces =
      rt.telemetry().RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const telemetry::FinishedTrace& trace = traces.back();
  EXPECT_EQ(trace.kind, RequestKind::kStream);
  EXPECT_EQ(trace.status, code);
  for (const telemetry::SpanRecord& span : trace.spans) {
    EXPECT_GT(span.end_ns, 0) << StageName(span.stage);  // 0 = still open
    EXPECT_GE(span.end_ns, span.start_ns) << StageName(span.stage);
  }
}

TEST(RuntimeTelemetryTest, TraceRingIsBounded) {
  runtime::RuntimeOptions options;
  options.telemetry.trace_ring_capacity = 4;
  options.result_memo.byte_budget = 0;  // every request evaluates
  runtime::WrapperRuntime rt(options);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rt.Wrap(*handle, CatalogPage(100 + i, 3)).ok());
  }
  EXPECT_EQ(rt.telemetry().RecentTraces().size(), 4u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusShapesAreWellFormed) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("runtime.pages_wrapped")->Add(42);
  registry.GetGauge("result_memo.bytes")->Set(1024);
  telemetry::Histogram* h = registry.GetHistogram("stage.hash.ns");
  h->Record(100);
  h->Record(200);

  const std::string prom = telemetry::ToPrometheus(registry.Snapshot());
  EXPECT_NE(prom.find("# TYPE mdatalog_runtime_pages_wrapped_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("mdatalog_runtime_pages_wrapped_total 42"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE mdatalog_result_memo_bytes gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("mdatalog_result_memo_bytes 1024"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE mdatalog_stage_hash_ns histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("mdatalog_stage_hash_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("mdatalog_stage_hash_ns_sum 300"), std::string::npos);
  EXPECT_NE(prom.find("mdatalog_stage_hash_ns_count 2"), std::string::npos);
}

TEST(ExportTest, JsonCarriesTracesAndScatter) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(rt.Wrap(*handle, CatalogPage(5, 8)).ok());

  const std::string json = rt.ExportJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"traces\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"wrap\""), std::string::npos);
  EXPECT_NE(json.find("\"scatter\":[{\"nodes\":"), std::string::npos);
  EXPECT_NE(json.find("\"runtime.pages_wrapped\":1"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportTest, BreakdownIndentsByDepth) {
  telemetry::Telemetry tel;
  auto trace = tel.StartTrace(RequestKind::kWrap);
  ASSERT_NE(trace, nullptr);
  {
    telemetry::TraceSpan outer(trace.get(), Stage::kDocFetch);
    outer.Tag("parse");
    telemetry::TraceSpan inner(trace.get(), Stage::kHtmlParse);
  }
  tel.FinishTrace(std::move(trace), util::StatusCode::kOk);
  const auto traces = tel.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const std::string breakdown = telemetry::FormatBreakdown(traces[0]);
  EXPECT_NE(breakdown.find("wrap "), std::string::npos);
  EXPECT_NE(breakdown.find("status=OK"), std::string::npos);
  EXPECT_NE(breakdown.find("\n  doc.fetch "), std::string::npos);
  EXPECT_NE(breakdown.find("[parse]"), std::string::npos);
  EXPECT_NE(breakdown.find("\n    html.parse "), std::string::npos);
}

TEST(TelemetryTest, SlowRequestLogIsThresholdedAndBounded) {
  EXPECT_EQ(telemetry::Telemetry::kSlowRequestNs, 50'000'000);
  EXPECT_EQ(telemetry::Telemetry::kSlowLogCapacity, 64u);

  // A trace finished at once is well under the threshold.
  telemetry::Telemetry quiet;
  auto fast = quiet.StartTrace(RequestKind::kWrap);
  ASSERT_NE(fast, nullptr);
  quiet.FinishTrace(std::move(fast), util::StatusCode::kOk);
  EXPECT_TRUE(quiet.SlowRequestLog().empty());
  EXPECT_EQ(quiet.registry().GetCounter("trace.slow_requests")->Value(), 0);

  // 70 traces held open together past the threshold are all slow; the log
  // keeps the latest 64.
  telemetry::Telemetry tel;
  std::vector<std::unique_ptr<telemetry::TraceContext>> traces;
  for (int i = 0; i < 70; ++i) {
    traces.push_back(tel.StartTrace(RequestKind::kWrap));
    ASSERT_NE(traces.back(), nullptr);
  }
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(telemetry::Telemetry::kSlowRequestNs));
  for (auto& trace : traces) {
    tel.FinishTrace(std::move(trace), util::StatusCode::kOk);
  }
  EXPECT_EQ(tel.SlowRequestLog().size(),
            telemetry::Telemetry::kSlowLogCapacity);
  EXPECT_EQ(tel.registry().GetCounter("trace.slow_requests")->Value(), 70);
}

}  // namespace
