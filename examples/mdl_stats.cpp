// Telemetry demo + acceptance check: serve a synthetic 1k-page corpus (125
// distinct catalog pages, each requested 8x) through the runtime with
// tracing on, then export what the observability layer saw.
//
// Usage: example_mdl_stats [mode] [requests] [distinct_pages]
//   mode            summary | prom | json | breakdown   (default summary)
//   requests        total wrap requests                  (default 1000)
//   distinct_pages  distinct documents served            (default 125)
//
// Modes:
//   summary    human-readable serving stats, request-latency quantiles,
//              per-stage histograms, and the span-coverage check: in the
//              median traced request the top-level span durations must sum
//              to within 10% of its wall time (exit 1 otherwise) — i.e. the
//              trace accounts for where the time actually went. The median
//              of per-request coverage, not Σspans ÷ Σwall: one request
//              descheduled mid-flight cannot fail the check.
//   prom       Prometheus text exposition (ExportPrometheus).
//   json       structured JSON: metrics + span trees + the per-page
//              nodes-vs-wall-time scatter (ExportJson).
//   breakdown  the formatted span tree of the slowest retained request.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

using namespace mdatalog;

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "summary";
  const int requests = argc > 2 ? std::atoi(argv[2]) : 1000;
  const int distinct = argc > 3 ? std::atoi(argv[3]) : 125;

  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    price(Y) <- item(X), subelem(X, "td@price", Y).
  )");
  if (!program.ok()) {
    std::fprintf(stderr, "wrapper parse failed: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};

  std::vector<std::string> corpus;
  corpus.reserve(requests);
  {
    std::vector<std::string> pages;
    for (int i = 0; i < distinct; ++i) {
      util::Rng rng(7000 + i);
      html::CatalogOptions opts;
      opts.num_items = 8 + i % 17;
      opts.with_ads = (i % 3 != 0);
      opts.alt_layout = (i % 5 == 0);
      pages.push_back(html::ProductCatalogPage(rng, opts));
    }
    for (int i = 0; i < requests; ++i) corpus.push_back(pages[i % distinct]);
  }

  runtime::RuntimeOptions opts;
  opts.num_threads = 1;
  opts.result_memo.byte_budget = 0;  // every request runs (and traces) the pipeline
  opts.telemetry.trace_ring_capacity = requests;  // retain every trace
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(w, "class");
  if (!handle.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 handle.status().ToString().c_str());
    return 1;
  }

  for (const std::string& page : corpus) {
    auto xml = rt.Wrap(*handle, page);
    if (!xml.ok()) {
      std::fprintf(stderr, "wrap failed: %s\n",
                   xml.status().ToString().c_str());
      return 1;
    }
  }

  if (std::strcmp(mode, "prom") == 0) {
    std::fputs(rt.ExportPrometheus().c_str(), stdout);
    return 0;
  }
  if (std::strcmp(mode, "json") == 0) {
    std::fputs(rt.ExportJson().c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  const auto traces = rt.telemetry().RecentTraces();
  if (traces.empty()) {
    std::fprintf(stderr, "no traces retained\n");
    return 1;
  }

  if (std::strcmp(mode, "breakdown") == 0) {
    const auto slowest = std::max_element(
        traces.begin(), traces.end(), [](const auto& a, const auto& b) {
          return a.duration_ns < b.duration_ns;
        });
    std::fputs(telemetry::FormatBreakdown(*slowest).c_str(), stdout);
    return 0;
  }
  if (std::strcmp(mode, "summary") != 0) {
    std::fprintf(stderr, "unknown mode %s (summary | prom | json | breakdown)\n",
                 mode);
    return 2;
  }

  // Span coverage: per request, the top-level spans must account for the
  // request's wall time — a trace that loses 10%+ of the request to
  // untraced gaps is not answering "where did the time go".
  int covered = 0;
  std::vector<double> coverage;
  int64_t total_span_ns = 0, total_wall_ns = 0;
  for (const auto& t : traces) {
    int64_t top_ns = 0;
    for (const auto& s : t.spans) {
      if (s.parent < 0) top_ns += s.duration_ns();
    }
    const double cov =
        t.duration_ns > 0
            ? static_cast<double>(top_ns) / static_cast<double>(t.duration_ns)
            : 1.0;
    coverage.push_back(cov);
    if (cov >= 0.9) ++covered;
    total_span_ns += top_ns;
    total_wall_ns += t.duration_ns;
  }
  const double aggregate =
      total_wall_ns > 0
          ? static_cast<double>(total_span_ns) / static_cast<double>(total_wall_ns)
          : 1.0;
  const double worst = *std::min_element(coverage.begin(), coverage.end());
  const auto mid = coverage.begin() + coverage.size() / 2;
  std::nth_element(coverage.begin(), mid, coverage.end());
  const double median = *mid;

  const auto stats = rt.stats();
  const telemetry::MetricsSnapshot snap = rt.telemetry().registry().Snapshot();

  std::printf("corpus: %d requests over %d distinct pages\n", requests,
              distinct);
  std::printf("pages wrapped: %lld (%lld grounded, %lld native)\n",
              static_cast<long long>(stats.pages_wrapped),
              static_cast<long long>(stats.grounded_evals),
              static_cast<long long>(stats.native_evals));
  std::printf("document cache: %lld hits / %lld misses\n",
              static_cast<long long>(stats.document_cache.hits),
              static_cast<long long>(stats.document_cache.misses));

  const auto req = snap.histograms.find("request.wrap.ns");
  if (req != snap.histograms.end()) {
    std::printf("request latency: p50 %.1fus  p90 %.1fus  p99 %.1fus  "
                "max %.1fus  (n=%llu)\n",
                req->second.Percentile(0.50) / 1e3,
                req->second.Percentile(0.90) / 1e3,
                req->second.Percentile(0.99) / 1e3, req->second.max / 1e3,
                static_cast<unsigned long long>(req->second.count));
  }
  std::printf("per-stage p50/p99 (us):\n");
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("stage.", 0) != 0) continue;
    std::printf("  %-24s %9.1f %9.1f  (n=%llu)\n", name.c_str(),
                h.Percentile(0.50) / 1e3, h.Percentile(0.99) / 1e3,
                static_cast<unsigned long long>(h.count));
  }

  std::printf("span coverage: median request %.1f%%, aggregate %.1f%%, "
              "worst request %.1f%%, %d/%zu requests >= 90%%\n",
              100.0 * median, 100.0 * aggregate, 100.0 * worst, covered,
              traces.size());
  if (median < 0.9) {
    std::fprintf(stderr,
                 "FAIL: top-level spans cover %.1f%% of the median request's "
                 "wall time (acceptance bar: 90%%)\n",
                 100.0 * median);
    return 1;
  }
  std::printf("OK: traced stages account for the request wall time\n");
  return 0;
}
