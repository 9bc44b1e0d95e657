// The corpus store: "parse once, serve forever". Series:
//
//   BM_PreparePage_ColdParse     — document preparation by parsing (the old
//                                  cold path): parse + project + EDB object.
//   BM_PreparePage_MmapWarm      — the same preparation out of an open
//                                  corpus store: Find (which hashes the page
//                                  under the snapshot's key) + rehydrate, no
//                                  parse. Acceptance: ≥ 5× ColdParse per page.
//   BM_ServeFirstTouch_Parse     — fresh runtime serves N distinct pages
//   BM_ServeFirstTouch_Store       once each (first-touch latency, end to
//                                  end through Wrap), parse vs snapshot.
//   BM_HashBytes128/<bytes>      — the keyed page hash every request pays,
//                                  in bytes/s (64 B to 256 KiB).
//
// Other counters report pages/sec.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/runtime.h"
#include "src/store/corpus_store.h"
#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

constexpr int kDistinctPages = 16;
constexpr const char* kAttr = "class";

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

const std::vector<std::string>& Pages() {
  static const std::vector<std::string>* pages = [] {
    auto* p = new std::vector<std::string>;
    for (int i = 0; i < kDistinctPages; ++i) {
      util::Rng rng(3000 + i);
      html::CatalogOptions opts;
      opts.num_items = 20 + i % 13;
      opts.with_ads = (i % 3 != 0);
      p->push_back(html::ProductCatalogPage(rng, opts));
    }
    return p;
  }();
  return *pages;
}

/// One store holding Pages() under kAttr projection, built once on disk.
std::shared_ptr<const store::CorpusStore> Store() {
  static const std::shared_ptr<const store::CorpusStore> store = [] {
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_store.mdcs").string();
    store::CorpusStore::Builder b;
    for (const std::string& page : Pages()) {
      MD_CHECK(b.AddHtml(page, kAttr).ok());
    }
    MD_CHECK(b.Save(path).ok());
    auto opened = store::CorpusStore::Open(path);
    MD_CHECK(opened.ok());
    return *opened;
  }();
  return store;
}

// ---------------------------------------------------------------------------
// Document preparation: cold parse vs mmap-warm rehydration
// ---------------------------------------------------------------------------

void BM_PreparePage_ColdParse(benchmark::State& state) {
  const auto& pages = Pages();
  size_t i = 0;
  for (auto _ : state) {
    auto doc = runtime::CachedDocument::Parse(pages[i % pages.size()], kAttr);
    MD_CHECK(doc.ok());
    benchmark::DoNotOptimize((*doc)->tree().size());
    ++i;
  }
  state.counters["pages_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PreparePage_ColdParse);

void BM_PreparePage_MmapWarm(benchmark::State& state) {
  const auto& pages = Pages();
  auto store = Store();
  size_t i = 0;
  for (auto _ : state) {
    auto frozen = store->Find(pages[i % pages.size()], kAttr);
    MD_CHECK(frozen.ok());
    auto doc = runtime::CachedDocument::FromFrozen(*frozen, store);
    benchmark::DoNotOptimize(doc->tree().size());
    ++i;
  }
  state.counters["pages_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PreparePage_MmapWarm);

// ---------------------------------------------------------------------------
// First-touch serving, end to end through the runtime
// ---------------------------------------------------------------------------

void ServeFirstTouch(benchmark::State& state, bool with_store) {
  const auto& pages = Pages();
  const wrapper::Wrapper w = CatalogWrapper();
  for (auto _ : state) {
    // A fresh runtime per round: every page is a first touch (in-memory
    // miss); with_store decides whether the miss parses or rehydrates.
    runtime::RuntimeOptions opts;
    opts.result_memo.byte_budget = 0;
    if (with_store) opts.corpus_store = Store();
    runtime::WrapperRuntime rt(opts);
    auto handle = rt.Register(w, kAttr);
    MD_CHECK(handle.ok());
    for (const std::string& page : pages) {
      auto out = rt.Wrap(*handle, page);
      MD_CHECK(out.ok());
      benchmark::DoNotOptimize(out->size());
    }
    if (with_store) {
      MD_CHECK(rt.stats().document_cache.store_hits ==
               static_cast<int64_t>(pages.size()));
    }
  }
  state.counters["pages_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * pages.size(),
      benchmark::Counter::kIsRate);
}

void BM_ServeFirstTouch_Parse(benchmark::State& state) {
  ServeFirstTouch(state, /*with_store=*/false);
}
BENCHMARK(BM_ServeFirstTouch_Parse);

void BM_ServeFirstTouch_Store(benchmark::State& state) {
  ServeFirstTouch(state, /*with_store=*/true);
}
BENCHMARK(BM_ServeFirstTouch_Store);

// ---------------------------------------------------------------------------
// The page hash
// ---------------------------------------------------------------------------

void BM_HashBytes128(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::string bytes;
  for (size_t i = 0; bytes.size() < len; ++i) {
    bytes += Pages()[i % Pages().size()];
  }
  bytes.resize(len);
  for (auto _ : state) {
    const util::Hash128 h = util::HashBytes128(bytes);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_HashBytes128)->Arg(64)->Arg(1024)->Arg(32768)->Arg(262144);

}  // namespace

BENCHMARK_MAIN();
