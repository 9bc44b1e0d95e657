// Serving-runtime throughput: one fixed catalog wrapper over a 1k-page
// synthetic corpus (125 distinct pages, each re-requested 8× — the
// re-crawl repetition a wrapper deployment sees). Series:
//
//   BM_ServeCorpusColdDirect     — the direct API: html::ParseTree +
//                                  wrapper::WrapTree per page (the plan
//                                  compiled per call), one thread, no
//                                  caches (baseline).
//   BM_ServeCorpusRuntime/T/M    — WrapperRuntime with warm caches at T
//                                  threads; M=1 result memo on, M=0 off.
//
// Counters report pages/sec; the acceptance bar is warm-batch ≥ 3× cold
// single-thread at 4 threads, with output byte-identical to the native Elog
// evaluator's (oracle::NativeXml, asserted in the warm-up).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"

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

/// One borrowed-page Request per corpus entry (the corpus outlives the
/// SubmitBatch join).
std::vector<runtime::Request> ViewBatch(
    const runtime::WrapperHandle& handle,
    const std::vector<std::string>& pages) {
  std::vector<runtime::Request> requests;
  requests.reserve(pages.size());
  for (const std::string& page : pages) {
    requests.push_back({runtime::PageRef::View(page), handle, {}});
  }
  return requests;
}

/// 1000 requests over 125 distinct pages, round-robin (each distinct page is
/// served 8 times, interleaved — no two consecutive requests share a page).
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

/// Cold baseline: parse with projection + compile + evaluate + write per
/// page, one thread, no caches — the direct API with no runtime around it.
void BM_ServeCorpusColdDirect(benchmark::State& state) {
  wrapper::Wrapper w = CatalogWrapper();
  const auto& corpus = Corpus();
  int64_t pages = 0;
  for (auto _ : state) {
    for (const std::string& page : corpus) {
      auto t = html::ParseTree(page, "class");
      MD_CHECK(t.ok());
      auto xml = wrapper::WrapTree(w, *t);
      MD_CHECK(xml.ok());
      benchmark::DoNotOptimize(*xml);
      ++pages;
    }
  }
  state.SetItemsProcessed(pages);
  state.counters["pages_per_sec"] = benchmark::Counter(
      static_cast<double>(pages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeCorpusColdDirect)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Runtime serving with warm caches: range(0) = threads, range(1) = memo.
void BM_ServeCorpusRuntime(benchmark::State& state) {
  runtime::RuntimeOptions opts;
  opts.num_threads = static_cast<int32_t>(state.range(0));
  opts.result_memo.byte_budget = state.range(1) != 0 ? (64 << 20) : 0;
  opts.document_cache.byte_budget = 256 << 20;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  MD_CHECK(handle.ok());
  const auto& corpus = Corpus();

  // Warm-up pass (outside timing): fills the document cache / memo, and
  // asserts the runtime output is byte-identical to the native evaluator's
  // — the bench must not get fast by getting wrong.
  {
    auto warm = rt.SubmitBatch(ViewBatch(*handle, corpus));
    for (size_t i = 0; i < corpus.size(); ++i) {
      MD_CHECK(warm[i].ok());
      if (i < kDistinctPages) {
        auto t = html::ParseTree(corpus[i], "class");
        MD_CHECK(t.ok());
        auto want = oracle::NativeXml(CatalogWrapper(), *t);
        MD_CHECK(want.ok() && *warm[i] == *want);
      }
    }
  }

  int64_t pages = 0;
  for (auto _ : state) {
    auto results = rt.SubmitBatch(ViewBatch(*handle, corpus));
    MD_CHECK(results.size() == corpus.size());
    for (const auto& r : results) MD_CHECK(r.ok());
    benchmark::DoNotOptimize(results);
    pages += static_cast<int64_t>(results.size());
  }
  state.SetItemsProcessed(pages);
  state.counters["pages_per_sec"] = benchmark::Counter(
      static_cast<double>(pages), benchmark::Counter::kIsRate);
  state.counters["doc_cache_hits"] =
      static_cast<double>(rt.stats().document_cache.hits);
  state.counters["memo_hits"] = static_cast<double>(rt.stats().memo_hits);
}
// UseRealTime: the workers run off the main thread, so CPU-time rates would
// overstate throughput wildly; wall-clock is the serving number.
BENCHMARK(BM_ServeCorpusRuntime)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->ArgNames({"threads", "memo"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({4, 1});

}  // namespace

BENCHMARK_MAIN();
