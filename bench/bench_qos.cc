// Multi-tenant QoS benchmark: what happens to tenant A's hot-set serving
// when tenant B floods the document cache with cold one-hit pages.
//
//   BM_QosHotServe/flood:F/fair:S — each iteration, tenant B (when F=1)
//     first floods 64 distinct cold pages through the cache from the worker
//     pool (untimed), then tenant A re-serves its 6-page hot set (timed,
//     manual time). S toggles fair-share eviction protection.
//
//   flood:0/fair:1 — no flood: the undisturbed hot-serve baseline.
//   flood:1/fair:0 — unprotected: B's flood evicts A's hot set every
//     iteration, so every timed request pays a re-parse.
//   flood:1/fair:1 — protected: A's resident bytes sit within its
//     guaranteed share (weight 2 of 4 → half the cache), so the flood
//     bounces off A's entries and A keeps serving from cache.
//
// The acceptance bar (gated in CI via check_bench_regression.py
// --overhead-pair at 10%): protected hot-serve throughput must stay within
// 10% of the no-flood baseline, in the same run. TinyLFU admission is OFF
// throughout so the sketch cannot mask the property under test — fair share
// alone must carry it; the result memo is off so the document cache is
// exercised on every request.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

constexpr int kHotPages = 6;
constexpr int kFloodPages = 64;
constexpr runtime::TenantId kHotTenant = 1;    // registered first, weight 2
constexpr runtime::TenantId kFloodTenant = 2;  // registered second, weight 1

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

std::string Page(uint64_t seed) {
  util::Rng rng(seed);
  html::CatalogOptions opts;
  opts.num_items = 10;
  opts.with_ads = (seed % 3 != 0);
  return html::ProductCatalogPage(rng, opts);
}

const std::vector<std::string>& HotPages() {
  static const std::vector<std::string>* pages = [] {
    auto* p = new std::vector<std::string>;
    for (int i = 0; i < kHotPages; ++i) p->push_back(Page(1 + i));
    return p;
  }();
  return *pages;
}

const std::vector<std::string>& FloodPages() {
  static const std::vector<std::string>* pages = [] {
    auto* p = new std::vector<std::string>;
    for (int i = 0; i < kFloodPages; ++i) p->push_back(Page(5000 + i));
    return p;
  }();
  return *pages;
}

std::vector<runtime::Request> TenantBatch(const runtime::WrapperHandle& handle,
                                          const std::vector<std::string>& pages,
                                          runtime::TenantId tenant) {
  std::vector<runtime::Request> requests;
  requests.reserve(pages.size());
  for (const std::string& page : pages) {
    requests.push_back(
        {runtime::PageRef::View(page), handle, {.tenant = tenant}});
  }
  return requests;
}

/// The hot set's resident bytes, as the document cache charged them at
/// insert. Measured once by serving the hot set through a throwaway runtime
/// with an effectively unbounded cache.
int64_t HotSetServedBytes() {
  static const int64_t bytes = [] {
    runtime::RuntimeOptions opts;
    opts.num_threads = 2;
    opts.document_cache = {.byte_budget = 1 << 30, .num_shards = 1};
    opts.result_memo.byte_budget = 0;
    runtime::WrapperRuntime rt(opts);
    auto handle = rt.Register(CatalogWrapper(), "class");
    MD_CHECK(handle.ok());
    auto results = rt.SubmitBatch(TenantBatch(*handle, HotPages(), 0));
    for (const auto& r : results) MD_CHECK(r.ok());
    return rt.stats().document_cache.bytes_in_use;
  }();
  return bytes;
}

/// range(0) = flood on/off, range(1) = fair share on/off.
void BM_QosHotServe(benchmark::State& state) {
  const bool flood_on = state.range(0) != 0;
  const bool fair = state.range(1) != 0;

  runtime::RuntimeOptions opts;
  opts.num_threads = 8;
  // Budget 3× the served hot set, one shard: the hot tenant's guaranteed
  // half (weight 2 of total 4) covers its hot set with slack, and the flood
  // tenant has real room to churn in. TinyLFU off — see the file comment.
  opts.document_cache = {.byte_budget = 3 * HotSetServedBytes(),
                         .num_shards = 1,
                         .tinylfu_admission = false,
                         .fair_share = fair};
  opts.result_memo.byte_budget = 0;
  opts.tenants = {{.name = "hot", .cache_weight = 2.0},
                  {.name = "flood", .cache_weight = 1.0}};
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  MD_CHECK(handle.ok());

  // Warm-up: the hot tenant populates its working set.
  {
    auto warm = rt.SubmitBatch(TenantBatch(*handle, HotPages(), kHotTenant));
    for (const auto& r : warm) MD_CHECK(r.ok());
  }

  int64_t pages = 0;
  for (auto _ : state) {
    if (flood_on) {
      // Untimed: the adversary's cold scan, fanned across the pool.
      auto flooded =
          rt.SubmitBatch(TenantBatch(*handle, FloodPages(), kFloodTenant));
      for (const auto& r : flooded) MD_CHECK(r.ok());
    }
    auto batch = TenantBatch(*handle, HotPages(), kHotTenant);
    const auto t0 = std::chrono::steady_clock::now();
    auto results = rt.SubmitBatch(std::move(batch));
    const auto t1 = std::chrono::steady_clock::now();
    for (const auto& r : results) MD_CHECK(r.ok());
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    pages += kHotPages;
  }
  state.SetItemsProcessed(pages);
  state.counters["hot_pages_per_sec"] = benchmark::Counter(
      static_cast<double>(pages), benchmark::Counter::kIsRate);
  const auto hot = rt.tenant_stats(kHotTenant);
  state.counters["hot_doc_hits"] =
      static_cast<double>(hot.document_cache.hits);
  state.counters["hot_doc_misses"] =
      static_cast<double>(hot.document_cache.misses);
  state.counters["fair_share_rejects"] =
      static_cast<double>(rt.stats().document_cache.fair_share_rejects);
}
// Manual time: only the hot tenant's serve is measured; the flood phase is
// setup. The three configs run in one process so the 10% acceptance ratio
// is immune to machine-to-machine jitter.
BENCHMARK(BM_QosHotServe)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->ArgNames({"flood", "fair"})
    ->Args({0, 1})   // undisturbed baseline
    ->Args({1, 0})   // unprotected: the flood evicts the hot set
    ->Args({1, 1});  // fair share: the hot set is guaranteed

}  // namespace

BENCHMARK_MAIN();
