// Telemetry overhead: the serving loop with tracing fully on (every request
// traced, every pipeline span recorded, FinishTrace folding into the stage
// histograms) vs telemetry disabled (spans compile to one branch; counters
// still record). Series:
//
//   BM_WrapTelemetry/telemetry:0 — disabled (baseline)
//   BM_WrapTelemetry/telemetry:1 — enabled, every request traced
//   BM_TraceOnly                 — tracing's fixed cost per request: one
//                                  warm request's trace lifecycle around no
//                                  work (StartTrace, the 5 spans with the tag
//                                  and values runtime.cc sets, FinishTrace)
//   BM_ClockRead                 — one steady_clock read; a traced warm
//                                  request makes 12 (2 per span, 2 for the
//                                  request), the floor under BM_TraceOnly
//
// The memo is off and the runtime single-threaded so every request runs the
// full instrumented pipeline synchronously — the most tracing-dense
// configuration there is, i.e. the worst case for overhead. The acceptance
// bar (gated by bench/check_bench_regression.py --overhead-pair in CI) is
// enabled within 3% of disabled.
//
// The enabled series also reports request-latency p50/p99 from the
// `request.wrap.ns` histogram; the regression checker surfaces movements in
// those as non-blocking warnings.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

constexpr int kDistinctPages = 125;
constexpr int kCorpusSize = 1000;

wrapper::Wrapper CatalogWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    price(Y) <- item(X), subelem(X, "td@price", Y).
  )");
  MD_CHECK(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};
  return w;
}

/// Same shape as bench_runtime's corpus: 1000 requests over 125 distinct
/// pages, round-robin, so the document cache is warm and the timed loop
/// measures the evaluation pipeline — the part telemetry instruments.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* corpus = [] {
    auto* pages = new std::vector<std::string>;
    std::vector<std::string> distinct;
    for (int i = 0; i < kDistinctPages; ++i) {
      util::Rng rng(1000 + i);
      html::CatalogOptions opts;
      opts.num_items = 8 + i % 17;
      opts.with_ads = (i % 3 != 0);
      opts.alt_layout = (i % 5 == 0);
      distinct.push_back(html::ProductCatalogPage(rng, opts));
    }
    for (int i = 0; i < kCorpusSize; ++i) {
      pages->push_back(distinct[i % kDistinctPages]);
    }
    return pages;
  }();
  return *corpus;
}

void BM_WrapTelemetry(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  runtime::RuntimeOptions opts;
  opts.num_threads = 1;
  opts.result_memo.byte_budget = 0;  // every request runs the full pipeline
  opts.document_cache.byte_budget = 256 << 20;
  opts.telemetry.enabled = enabled;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  MD_CHECK(handle.ok());
  const auto& corpus = Corpus();

  // Warm-up (outside timing): fills the document cache so the timed loop
  // compares evaluation + instrumentation, not HTML parsing.
  for (int i = 0; i < kDistinctPages; ++i) {
    MD_CHECK(rt.Wrap(*handle, corpus[i]).ok());
  }

  int64_t pages = 0;
  for (auto _ : state) {
    for (const std::string& page : corpus) {
      auto xml = rt.Wrap(*handle, page);
      MD_CHECK(xml.ok());
      benchmark::DoNotOptimize(xml);
      ++pages;
    }
  }
  state.SetItemsProcessed(pages);
  state.counters["pages_per_sec"] = benchmark::Counter(
      static_cast<double>(pages), benchmark::Counter::kIsRate);
  if (enabled) {
    const telemetry::HistogramSnapshot lat =
        rt.telemetry().registry().GetHistogram("request.wrap.ns")->Snapshot();
    state.counters["p50_ns"] = static_cast<double>(lat.Percentile(0.50));
    state.counters["p99_ns"] = static_cast<double>(lat.Percentile(0.99));
  }
}
BENCHMARK(BM_WrapTelemetry)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"telemetry"})
    ->Arg(0)
    ->Arg(1);

/// The trace a warm request leaves (memo off, document-cache hit, a 2.5 KB
/// 151-node catalog page), opened and closed around no work: what tracing
/// alone adds to each request.
void BM_TraceOnly(benchmark::State& state) {
  using telemetry::Stage;
  telemetry::Telemetry tel;
  for (auto _ : state) {
    std::unique_ptr<telemetry::TraceContext> trace =
        tel.StartTrace(telemetry::RequestKind::kWrap);
    {
      const telemetry::TraceScope scope(trace.get());
      trace->set_page_bytes(2500);
      {
        telemetry::TraceSpan span(trace.get(), Stage::kHash);
      }
      {
        telemetry::TraceSpan span(trace.get(), Stage::kMemoLookup);
        span.Tag("off");
      }
      {
        telemetry::TraceSpan span(trace.get(), Stage::kDocFetch);
        span.Tag("hit");
      }
      trace->set_nodes(151);
      {
        telemetry::TraceSpan span(trace.get(), Stage::kEvalGrounded);
        span.Value("clauses", 200);
        span.Value("derived", 300);
      }
      {
        telemetry::TraceSpan span(trace.get(), Stage::kOutputBuild);
      }
    }
    tel.FinishTrace(std::move(trace), util::StatusCode::kOk);
  }
}
BENCHMARK(BM_TraceOnly);

void BM_ClockRead(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::MonotonicNowNs());
  }
}
BENCHMARK(BM_ClockRead);

}  // namespace

BENCHMARK_MAIN();
