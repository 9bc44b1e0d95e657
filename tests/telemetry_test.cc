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
#include <string>
#include <string_view>
#include <thread>
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
  telemetry::TraceContext trace("test");
  {
    telemetry::TraceSpan outer(&trace, "outer");
    {
      telemetry::TraceSpan inner(&trace, "inner");
      telemetry::TraceSpan sibling_after(&trace, "deep");
    }
    telemetry::TraceSpan second(&trace, "second");
  }
  trace.Close();

  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.open_spans(), 0);
  EXPECT_STREQ(trace.spans()[0].name, "outer");
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_STREQ(trace.spans()[1].name, "inner");
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_EQ(trace.spans()[1].depth, 1);
  EXPECT_STREQ(trace.spans()[2].name, "deep");
  EXPECT_EQ(trace.spans()[2].parent, 1);
  EXPECT_EQ(trace.spans()[2].depth, 2);
  EXPECT_STREQ(trace.spans()[3].name, "second");
  EXPECT_EQ(trace.spans()[3].parent, 0);
  for (const telemetry::SpanRecord& s : trace.spans()) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
  }
}

TEST(TraceTest, NullContextSpanIsANoOp) {
  telemetry::TraceSpan span(nullptr, "nothing");
  EXPECT_FALSE(span);
  span.Tag("ignored");
  span.Value("ignored", 1);  // must not crash, must not allocate
}

TEST(TraceTest, SpanCapCountsDropsAndStaysBalanced) {
  telemetry::TraceContext trace("test");
  for (size_t i = 0; i < telemetry::TraceContext::kMaxSpans + 100; ++i) {
    telemetry::TraceSpan span(&trace, "tick");
  }
  trace.Close();
  EXPECT_EQ(trace.spans().size(), telemetry::TraceContext::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 100);
  EXPECT_EQ(trace.open_spans(), 0);
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
  EXPECT_STREQ(t.kind, "wrap");
  EXPECT_EQ(t.status, util::StatusCode::kOk);
  EXPECT_EQ(t.page_bytes, static_cast<int64_t>(page.size()));
  EXPECT_GT(t.nodes, 0);

  const auto has_span = [&t](const char* name) {
    return std::any_of(t.spans.begin(), t.spans.end(),
                       [name](const telemetry::SpanRecord& s) {
                         return std::string_view(s.name) == name;
                       });
  };
  EXPECT_TRUE(has_span("hash"));
  EXPECT_TRUE(has_span("memo.lookup"));
  EXPECT_TRUE(has_span("doc.fetch"));
  EXPECT_TRUE(has_span("html.parse"));
  EXPECT_TRUE(has_span("edb.materialize") || has_span("eval.grounded") ||
              has_span("eval.native"));
  EXPECT_TRUE(has_span("output.build"));
  // Nested spans sit inside their parents.
  for (const telemetry::SpanRecord& s : t.spans) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent >= 0) {
      const telemetry::SpanRecord& p = t.spans[s.parent];
      EXPECT_GE(s.start_ns, p.start_ns) << s.name;
      EXPECT_LE(s.end_ns, p.end_ns) << s.name;
      EXPECT_EQ(s.depth, p.depth + 1) << s.name;
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

  // Caller-owned trace via RequestOptions::trace — the runtime records into
  // it and closes it, the test keeps it.
  telemetry::TraceContext trace("wrap");
  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(std::chrono::milliseconds(1));
  request.trace = &trace;
  util::Result<std::string> result = rt.Wrap(*handle, page, request);
  // Either the deadline fired mid-pipeline (expected) or a fast machine
  // finished the page; the unwind invariants below hold in both cases.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(trace.status(), util::StatusCode::kDeadlineExceeded);
  }
  // All spans closed, none leaked open, nesting intact — even though the
  // deadline unwound the pipeline from an arbitrary depth.
  EXPECT_EQ(trace.open_spans(), 0);
  EXPECT_GT(trace.end_ns(), 0);
  for (const telemetry::SpanRecord& s : trace.spans()) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent >= 0) {
      EXPECT_EQ(s.depth, trace.spans()[s.parent].depth + 1) << s.name;
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

  telemetry::TraceContext trace("stream");
  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(std::chrono::milliseconds(1));
  request.trace = &trace;
  auto session = rt.SubmitStream({.wrapper = *handle, .options = request}, {});
  if (session.ok()) {
    util::Status s;
    for (int i = 0; i < 64 && s.ok(); ++i) s = (*session)->Feed(page);
    if (s.ok()) {
      auto xml = (*session)->Finish();  // settles the trace either way
    }
  }
  EXPECT_EQ(trace.open_spans(), 0);
  for (const telemetry::SpanRecord& s : trace.spans()) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
  }
}

TEST(RuntimeTelemetryTest, TraceRingIsBoundedAndSamplingThins) {
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

  runtime::RuntimeOptions sampled;
  sampled.telemetry.trace_sample_every = 4;
  sampled.result_memo.byte_budget = 0;
  runtime::WrapperRuntime rt2(sampled);
  auto handle2 = rt2.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle2.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rt2.Wrap(*handle2, CatalogPage(200 + i, 3)).ok());
  }
  EXPECT_EQ(rt2.telemetry().RecentTraces().size(), 2u);  // 1 in 4 of 8
  // Sampling gates tracing only; the serving counters stay exact.
  EXPECT_EQ(rt2.stats().pages_wrapped, 8);
}

// ---------------------------------------------------------------------------
// RequestOptions::trace lifetime contract
// ---------------------------------------------------------------------------

TEST(TraceLifetimeTest, StreamSessionHoldsAnInflightReferenceForItsLifetime) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  telemetry::TraceContext trace("stream");
  EXPECT_EQ(trace.inflight_requests(), 0);
  runtime::RequestOptions request;
  request.trace = &trace;
  auto session = rt.SubmitStream({.wrapper = *handle, .options = request}, {});
  ASSERT_TRUE(session.ok());
  // The session references the caller's trace until destroyed — the count
  // is what the trace's destructor asserts on in debug builds.
  EXPECT_EQ(trace.inflight_requests(), 1);
  ASSERT_TRUE((*session)->Feed(CatalogPage(31, 3)).ok());
  ASSERT_TRUE((*session)->Finish().ok());
  EXPECT_EQ(trace.inflight_requests(), 1);  // finished ≠ destroyed
  session->reset();
  EXPECT_EQ(trace.inflight_requests(), 0);  // now safe to destroy the trace
}

TEST(TraceLifetimeTest, SubmitReleasesTheTraceBeforeTheFutureResolves) {
  runtime::RuntimeOptions options;
  options.num_threads = 1;
  runtime::WrapperRuntime rt(options);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  telemetry::TraceContext trace("wrap");
  runtime::RequestOptions request;
  request.trace = &trace;
  const std::string page = CatalogPage(32, 4);
  auto future = rt.Submit({runtime::PageRef::View(page), *handle, request});
  ASSERT_TRUE(future.get().ok());
  // The release is sequenced strictly before the future becomes ready, so
  // after get() the caller may destroy the trace immediately.
  EXPECT_EQ(trace.inflight_requests(), 0);
  EXPECT_FALSE(trace.spans().empty());
}

TEST(TraceLifetimeDeathTest, DestroyingATraceWithInflightRequestsAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "lifetime assertion compiles out under NDEBUG";
#else
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        telemetry::TraceContext trace("wrap");
        trace.AddInflightRequest();
        // Destructor fires with the count still at 1 — the use-after-free
        // setup the assertion exists to catch.
      },
      "TraceContext destroyed while an async request");
#endif
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
  auto trace = tel.StartTrace("wrap");
  ASSERT_NE(trace, nullptr);
  {
    telemetry::TraceSpan outer(trace.get(), "doc.fetch");
    outer.Tag("parse");
    telemetry::TraceSpan inner(trace.get(), "html.parse");
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
  telemetry::TelemetryOptions options;
  options.slow_request_ns = 0;  // everything is "slow"
  options.slow_log_capacity = 3;
  telemetry::Telemetry tel(options);
  for (int i = 0; i < 10; ++i) {
    auto trace = tel.StartTrace("wrap");
    ASSERT_NE(trace, nullptr);
    tel.FinishTrace(std::move(trace), util::StatusCode::kOk);
  }
  EXPECT_EQ(tel.SlowRequestLog().size(), 3u);
  EXPECT_EQ(tel.registry().GetCounter("trace.slow_requests")->Value(), 10);

  telemetry::TelemetryOptions quiet;
  quiet.slow_request_ns = std::numeric_limits<int64_t>::max();
  telemetry::Telemetry never(quiet);
  auto trace = never.StartTrace("wrap");
  never.FinishTrace(std::move(trace), util::StatusCode::kOk);
  EXPECT_TRUE(never.SlowRequestLog().empty());
}

}  // namespace
