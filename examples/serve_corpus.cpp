// End-to-end serving demo: build a synthetic corpus of catalog pages, serve
// it through the wrapper runtime, and print throughput + cache behavior —
// the "one wrapper, heavy page traffic" deployment the runtime exists for.
//
// Usage: example_serve_corpus [requests] [distinct_pages] [threads] [items]
//   requests       total wrap requests         (default 1000)
//   distinct_pages distinct documents served   (default 125)
//   threads        executor workers            (default 4)
//   items          catalog rows per page       (default 12)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

using namespace mdatalog;

namespace {

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// One borrowed-page Request per corpus entry (the corpus outlives the join).
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

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 1000;
  const int distinct = argc > 2 ? std::atoi(argv[2]) : 125;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 4;
  const int items = argc > 4 ? std::atoi(argv[4]) : 12;

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
      opts.num_items = items;
      opts.with_ads = (i % 3 != 0);
      opts.alt_layout = (i % 5 == 0);
      pages.push_back(html::ProductCatalogPage(rng, opts));
    }
    for (int i = 0; i < requests; ++i) corpus.push_back(pages[i % distinct]);
  }

  // Baseline: the direct API without the runtime, every request pays parse
  // + compile + evaluate from scratch on one thread.
  auto t0 = std::chrono::steady_clock::now();
  for (const std::string& page : corpus) {
    auto t = html::ParseTree(page, "class");
    if (!t.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
    auto xml = wrapper::WrapTree(w, *t);
    if (!xml.ok()) {
      std::fprintf(stderr, "wrap failed: %s\n",
                   xml.status().ToString().c_str());
      return 1;
    }
    volatile size_t sink = xml->size();
    (void)sink;
  }
  auto t1 = std::chrono::steady_clock::now();
  const double cold_s = Seconds(t0, t1);

  runtime::RuntimeOptions opts;
  opts.num_threads = threads;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(w, "class");
  if (!handle.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 handle.status().ToString().c_str());
    return 1;
  }

  // First batch: cold caches (every distinct page parses once).
  auto t2 = std::chrono::steady_clock::now();
  auto first = rt.SubmitBatch(ViewBatch(*handle, corpus));
  auto t3 = std::chrono::steady_clock::now();
  // Second batch: warm caches.
  auto second = rt.SubmitBatch(ViewBatch(*handle, corpus));
  auto t4 = std::chrono::steady_clock::now();

  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!first[i].ok() || !second[i].ok() || *first[i] != *second[i]) {
      std::fprintf(stderr, "request %zu: cold/warm results diverge\n", i);
      return 1;
    }
  }

  const double firstbatch_s = Seconds(t2, t3);
  const double warm_s = Seconds(t3, t4);
  auto stats = rt.stats();

  std::printf("corpus: %d requests over %d distinct pages, %d items each\n",
              requests, distinct, items);
  std::printf("direct sequential (no runtime): %8.1f pages/s\n",
              requests / cold_s);
  std::printf("runtime first batch (%d thr):   %8.1f pages/s\n", threads,
              requests / firstbatch_s);
  std::printf("runtime warm batch  (%d thr):   %8.1f pages/s  (%.1fx)\n",
              threads, requests / warm_s, cold_s / warm_s);
  std::printf("document cache: %lld hits / %lld misses, %lld bytes, "
              "%lld evictions\n",
              static_cast<long long>(stats.document_cache.hits),
              static_cast<long long>(stats.document_cache.misses),
              static_cast<long long>(stats.document_cache.bytes_in_use),
              static_cast<long long>(stats.document_cache.evictions));
  std::printf("program cache:  %lld hits / %lld misses "
              "(%lld grounded plans)\n",
              static_cast<long long>(stats.program_cache.hits),
              static_cast<long long>(stats.program_cache.misses),
              static_cast<long long>(stats.program_cache.ground_plans));
  std::printf("result memo:    %lld hits / %lld misses, %lld bytes\n",
              static_cast<long long>(stats.memo_hits),
              static_cast<long long>(stats.memo_misses),
              static_cast<long long>(stats.memo_bytes));
  std::printf("evaluations:    %lld grounded, %lld native\n",
              static_cast<long long>(stats.grounded_evals),
              static_cast<long long>(stats.native_evals));
  return 0;
}
