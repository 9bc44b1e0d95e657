// Streaming extraction latency: how long until the FIRST result is in the
// caller's hands, versus how long batch Wrap needs to deliver anything at
// all (its first result arrives only with the full parse + evaluation).
// Series, all over one 1000-item catalog page (~145KB):
//
//   BM_BatchWrapFullPage      — cache-free batch Wrap: the time-to-any-result
//                               floor of the non-streaming path (baseline).
//   BM_StreamFirstResult      — StreamSession fed 4KB chunks until the first
//                               on_result fires; the page is then abandoned.
//                               Counters report how few of the page's bytes
//                               were needed.
//   BM_StreamFullPage         — the whole page through Feed+Finish: what the
//                               incremental replay of the same ground plan
//                               (two root-hypothesis worlds, early emission)
//                               costs end-to-end when the caller wants the
//                               full XML anyway.
//
// The acceptance bars: BM_StreamFirstResult real time is a small fraction of
// BM_BatchWrapFullPage (first-result latency decoupled from page size), and
// BM_StreamFullPage stays within 1.5x of BM_BatchWrapFullPage in the same
// run (CI: check_bench_regression.py --overhead-pair, threshold 0.34 on the
// throughput ratio). peak_rss_mb is recorded on every series for the memory
// trajectory.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>

#include <string>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

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

const std::string& ThousandItemPage() {
  static const std::string* page = [] {
    util::Rng rng(42);
    html::CatalogOptions opts;
    opts.num_items = 1000;
    opts.with_ads = true;
    return new std::string(html::ProductCatalogPage(rng, opts));
  }();
  return *page;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

/// Caches off: every iteration must pay the real parse + evaluation, like a
/// first-contact page — which is exactly the case streaming exists for.
runtime::WrapperRuntime& CacheFreeRuntime() {
  static runtime::WrapperRuntime* rt = [] {
    runtime::RuntimeOptions options;
    options.document_cache.byte_budget = 0;
    options.result_memo.byte_budget = 0;
    return new runtime::WrapperRuntime(options);
  }();
  return *rt;
}

void BM_BatchWrapFullPage(benchmark::State& state) {
  runtime::WrapperRuntime& rt = CacheFreeRuntime();
  auto handle = rt.Register(CatalogWrapper(), "class");
  MD_CHECK(handle.ok());
  const std::string& page = ThousandItemPage();
  for (auto _ : state) {
    auto xml = rt.Wrap(*handle, page);
    MD_CHECK(xml.ok());
    benchmark::DoNotOptimize(xml);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
  state.counters["page_bytes"] = static_cast<double>(page.size());
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_BatchWrapFullPage)->Unit(benchmark::kMillisecond);

void BM_StreamFirstResult(benchmark::State& state) {
  runtime::WrapperRuntime& rt = CacheFreeRuntime();
  auto handle = rt.Register(CatalogWrapper(), "class");
  MD_CHECK(handle.ok());
  const std::string& page = ThousandItemPage();
  constexpr size_t kChunk = 4096;

  int64_t bytes_at_first = 0;
  for (auto _ : state) {
    bool got_first = false;
    stream::StreamOptions options;
    options.on_result = [&got_first](const stream::StreamResult&) {
      got_first = true;
    };
    auto session = rt.SubmitStream({.wrapper = *handle}, std::move(options));
    MD_CHECK(session.ok());
    size_t fed = 0;
    while (!got_first && fed < page.size()) {
      const size_t n = std::min(kChunk, page.size() - fed);
      MD_CHECK((*session)->Feed(std::string_view(page).substr(fed, n)).ok());
      fed += n;
    }
    MD_CHECK(got_first);
    bytes_at_first += static_cast<int64_t>(fed);
    // The session is abandoned here: time-to-first-result is the number.
  }
  state.counters["bytes_until_first_result"] = benchmark::Counter(
      static_cast<double>(bytes_at_first) /
      static_cast<double>(state.iterations()));
  state.counters["page_bytes"] =
      static_cast<double>(ThousandItemPage().size());
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_StreamFirstResult)->Unit(benchmark::kMillisecond);

void BM_StreamFullPage(benchmark::State& state) {
  runtime::WrapperRuntime& rt = CacheFreeRuntime();
  auto handle = rt.Register(CatalogWrapper(), "class");
  MD_CHECK(handle.ok());
  const std::string& page = ThousandItemPage();
  constexpr size_t kChunk = 4096;

  int64_t results = 0;
  for (auto _ : state) {
    int64_t emitted = 0;
    stream::StreamOptions options;
    options.on_result = [&emitted](const stream::StreamResult&) {
      ++emitted;
    };
    auto session = rt.SubmitStream({.wrapper = *handle}, std::move(options));
    MD_CHECK(session.ok());
    for (size_t fed = 0; fed < page.size(); fed += kChunk) {
      MD_CHECK((*session)
                   ->Feed(std::string_view(page).substr(
                       fed, std::min(kChunk, page.size() - fed)))
                   .ok());
    }
    auto xml = (*session)->Finish();
    MD_CHECK(xml.ok());
    benchmark::DoNotOptimize(xml);
    results += emitted;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
  state.counters["results_per_page"] = static_cast<double>(
      results / std::max<int64_t>(1, state.iterations()));
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_StreamFullPage)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
