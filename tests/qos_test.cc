// Multi-tenant QoS: the keyed SipHash the caches route by, the tenant
// registry (cache shares, CPU token buckets, priority → deadline
// degradation) and fair-share eviction in ShardedLfuCache. The load-bearing
// properties pinned here:
//
//  * SipHash-2-4 matches the reference vectors — the keyed hash must be the
//    real thing, not a lookalike, for its collision-resistance argument to
//    transfer;
//
//  * a tenant whose resident bytes sit within its guaranteed share cannot be
//    evicted by another tenant's traffic — including an adversarial 8-thread
//    cold-scan flood against a hot set (and the control run with fair share
//    off shows the flood *would* have evicted it);
//
//  * over-quota degrades the deadline by priority class, never rejects, and
//    never loosens a deadline the caller already set;
//
//  * per-tenant accounting (counters, byte slices, hit/miss slices) stays
//    exactly consistent under concurrent traffic (runs under TSan via the
//    `tsan` label).

#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/runtime.h"
#include "src/runtime/sharded_lfu_cache.h"
#include "src/runtime/tenant.h"
#include "src/telemetry/metrics.h"
#include "src/util/deadline.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

// ---------------------------------------------------------------------------
// SipHash-2-4 reference vectors
// ---------------------------------------------------------------------------

/// The reference-implementation test key: k0/k1 are the little-endian reads
/// of the byte string 00 01 02 … 0f.
util::SipHashKey ReferenceKey() {
  return util::SipHashKey{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
}

TEST(SipHashTest, MatchesReferenceVectors) {
  // vectors_sip64 from the SipHash reference implementation: input is the
  // byte string 00 01 02 … of the given length, output read little-endian.
  const uint64_t kExpected[] = {
      0x726fdb47dd0e0e31ULL,  // len 0
      0x74f839c593dc67fdULL,  // len 1
      0x0d6c8009d9a94f5aULL,  // len 2
      0x85676696d7fb7e2dULL,  // len 3
      0xcf2794e0277187b7ULL,  // len 4
      0x18765564cd99a68dULL,  // len 5
      0xcbc9466e58fee3ceULL,  // len 6
      0xab0200f58b01d137ULL,  // len 7
      0x93f5f5799a932462ULL,  // len 8 (exactly one compression block)
  };
  unsigned char msg[8];
  for (int i = 0; i < 8; ++i) msg[i] = static_cast<unsigned char>(i);
  for (size_t len = 0; len < std::size(kExpected); ++len) {
    util::SipHasher h(ReferenceKey());
    h.Update(msg, len);
    EXPECT_EQ(h.Finish(), kExpected[len]) << "input length " << len;
  }
}

TEST(SipHashTest, ChunkedUpdatesMatchOneShot) {
  std::string msg;
  for (int i = 0; i < 64; ++i) msg.push_back(static_cast<char>(i * 7 + 3));
  util::SipHasher oneshot(ReferenceKey());
  oneshot.Update(msg);
  const uint64_t expected = oneshot.Finish();
  // Split at boundaries that exercise the partial-block buffer: mid-word,
  // word-aligned, and straddling.
  for (size_t cut1 : {size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{13},
                      size_t{32}}) {
    for (size_t cut2 : {cut1 + 1, cut1 + 8, size_t{63}}) {
      util::SipHasher h(ReferenceKey());
      h.Update(msg.substr(0, cut1));
      h.Update(msg.substr(cut1, cut2 - cut1));
      h.Update(msg.substr(cut2));
      EXPECT_EQ(h.Finish(), expected) << "cuts " << cut1 << "/" << cut2;
    }
  }
}

TEST(SipHashTest, Update64IsLittleEndianByteFeed) {
  const uint64_t v = 0x1122334455667788ULL;
  util::SipHasher word(ReferenceKey());
  word.Update64(v);
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  util::SipHasher raw(ReferenceKey());
  raw.Update(bytes, 8);
  EXPECT_EQ(word.Finish(), raw.Finish());
}

TEST(SipHashTest, ProcessKeyIsStableWithinProcessAndKeyed) {
  // Same input, same (process) key → same hash: cache keys must be stable
  // for the process lifetime.
  EXPECT_EQ(util::SipHash("some page bytes"), util::SipHash("some page bytes"));
  // A different key changes the hash — the whole point of keying. (A
  // coincidental 64-bit collision here has probability 2^-64.)
  const util::SipHashKey other{0xdeadbeefcafef00dULL, 0x0123456789abcdefULL};
  EXPECT_NE(util::SipHash("some page bytes", ReferenceKey()),
            util::SipHash("some page bytes", other));
}

// ---------------------------------------------------------------------------
// TenantRegistry: shares, token bucket, priority degradation
// ---------------------------------------------------------------------------

TEST(TenantRegistryTest, DefaultTenantIsAlwaysPresentAndUnmetered) {
  runtime::TenantRegistry tr;
  EXPECT_EQ(tr.num_tenants(), 1);
  EXPECT_EQ(tr.name(runtime::kDefaultTenant), "default");
  EXPECT_FALSE(tr.metered(runtime::kDefaultTenant));
  EXPECT_DOUBLE_EQ(tr.ShareOf(runtime::kDefaultTenant), 1.0);
  auto adm = tr.Admit(runtime::kDefaultTenant, util::Deadline());
  EXPECT_FALSE(adm.degraded);
  EXPECT_FALSE(adm.deadline.has_deadline());
  // Unknown ids serve as the default tenant rather than crashing.
  EXPECT_EQ(tr.name(42), "default");
  EXPECT_EQ(tr.counters(42), tr.counters(runtime::kDefaultTenant));
}

TEST(TenantRegistryTest, SharesAreWeightOverTotalWeight) {
  runtime::TenantRegistry tr;
  const auto a = tr.Register({.name = "a", .cache_weight = 2.0});
  const auto b = tr.Register({.name = "b", .cache_weight = 1.0});
  ASSERT_EQ(a, 1);
  ASSERT_EQ(b, 2);
  EXPECT_EQ(tr.num_tenants(), 3);
  // default(1) + a(2) + b(1) = 4.
  EXPECT_DOUBLE_EQ(tr.ShareOf(a), 0.5);
  EXPECT_DOUBLE_EQ(tr.ShareOf(b), 0.25);
  EXPECT_DOUBLE_EQ(tr.ShareOf(runtime::kDefaultTenant), 0.25);
  // A non-positive weight normalizes to 1 so ShareOf stays in (0, 1].
  const auto c = tr.Register({.name = "c", .cache_weight = -3.0});
  EXPECT_DOUBLE_EQ(tr.ShareOf(c), 0.2);
}

TEST(TenantRegistryTest, TokenBucketStartsFullAndOverdraftDegrades) {
  runtime::TenantRegistry tr;
  // Refill rate 1 ns of CPU per second of wall time: effectively frozen for
  // the duration of the test, so the arithmetic is deterministic.
  const auto t = tr.Register({.name = "metered",
                              .cpu_ns_per_sec = 1,
                              .cpu_burst_ns = 1 << 20});
  EXPECT_TRUE(tr.metered(t));
  // Starts full (bursts allowed), capped at the burst depth.
  EXPECT_LE(tr.cpu_balance_ns(t), 1 << 20);
  EXPECT_GE(tr.cpu_balance_ns(t), (1 << 20) - 8);
  // Within budget: no degradation.
  auto adm = tr.Admit(t, util::Deadline());
  EXPECT_FALSE(adm.degraded);
  // Overdraft: the balance goes negative (charging is not clamped) …
  tr.ChargeCpu(t, 1 << 21);
  EXPECT_LT(tr.cpu_balance_ns(t), 0);
  // … and the next admission degrades the deadline instead of rejecting.
  adm = tr.Admit(t, util::Deadline());
  EXPECT_TRUE(adm.degraded);
  EXPECT_TRUE(adm.deadline.has_deadline());
}

TEST(TenantRegistryTest, PriorityClassesDegradeDifferently) {
  runtime::TenantRegistry tr;
  auto metered = [&tr](const char* name, runtime::Priority p) {
    const auto id = tr.Register({.name = name,
                                 .cpu_ns_per_sec = 1,
                                 .cpu_burst_ns = 1000,
                                 .priority = p});
    tr.ChargeCpu(id, 1 << 20);  // deep overdraft, frozen refill
    return id;
  };
  const auto high = metered("high", runtime::Priority::kHigh);
  const auto low = metered("low", runtime::Priority::kLow);
  const auto normal = metered("normal", runtime::Priority::kNormal);

  // High priority never degrades: over quota keeps its latency contract.
  auto adm_high = tr.Admit(high, util::Deadline());
  EXPECT_FALSE(adm_high.degraded);
  EXPECT_FALSE(adm_high.deadline.has_deadline());

  // Low degrades harder than normal (5ms vs 25ms caps). Admitting low first
  // makes the comparison robust: normal's cap is anchored at a later "now",
  // so normal's deadline is strictly after low's.
  auto adm_low = tr.Admit(low, util::Deadline());
  auto adm_normal = tr.Admit(normal, util::Deadline());
  ASSERT_TRUE(adm_low.degraded);
  ASSERT_TRUE(adm_normal.degraded);
  ASSERT_TRUE(adm_low.deadline.has_deadline());
  ASSERT_TRUE(adm_normal.deadline.has_deadline());
  EXPECT_LT(adm_low.deadline.at(), adm_normal.deadline.at());
}

TEST(TenantRegistryTest, DegradationTightensButNeverLoosens) {
  runtime::TenantRegistry tr;
  const auto t = tr.Register({.name = "metered",
                              .cpu_ns_per_sec = 1,
                              .cpu_burst_ns = 1000});
  tr.ChargeCpu(t, 1 << 20);
  // The caller's own deadline is already tighter than the 25ms degradation
  // cap: it must survive unchanged (EarlierOf), with the over-quota flag set.
  const auto requested = util::Deadline::After(std::chrono::microseconds(100));
  auto adm = tr.Admit(t, requested);
  EXPECT_TRUE(adm.degraded);
  EXPECT_EQ(adm.deadline.at(), requested.at());
}

TEST(TenantRegistryTest, CountersAccumulateInTheSharedRegistry) {
  telemetry::MetricsRegistry metrics;
  runtime::TenantRegistry tr(&metrics);
  const auto t = tr.Register({.name = "alpha"});
  tr.Admit(t, util::Deadline());
  tr.Admit(t, util::Deadline());
  tr.ChargeCpu(t, 500);
  EXPECT_EQ(tr.counters(t)->requests->Value(), 2);
  EXPECT_EQ(tr.counters(t)->cpu_ns->Value(), 500);
  // The counters live under "tenant.<name>.*" in the caller's registry, so
  // they ride the standard exporters.
  EXPECT_EQ(metrics.GetCounter("tenant.alpha.requests")->Value(), 2);
  EXPECT_EQ(metrics.GetCounter("tenant.alpha.cpu_ns")->Value(), 500);
}

// ---------------------------------------------------------------------------
// Fair-share eviction on the cache template (deterministic, single shard)
// ---------------------------------------------------------------------------

using TestCache =
    runtime::ShardedLfuCache<uint64_t, std::string, std::hash<uint64_t>>;

int64_t SizeCost(const uint64_t&, const std::string& v) {
  return static_cast<int64_t>(v.size());
}

/// Distinct, well-mixed 64-bit hash per key (the caches use SipHash; the
/// template itself only needs *a* hash).
uint64_t MixHash(uint64_t key) {
  uint64_t x = key + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::shared_ptr<const std::string> Blob(size_t bytes) {
  return std::make_shared<const std::string>(bytes, 'x');
}

TEST(FairShareCacheTest, WithinShareTenantSurvivesAnotherTenantsFlood) {
  runtime::TenantRegistry tr;
  const auto a = tr.Register({.name = "a"});
  const auto b = tr.Register({.name = "b"});
  // default + a + b, equal weights: everyone's guaranteed share is 1/3 of
  // the 3000-byte single shard = 1000 bytes.
  runtime::CacheOptions opts{.byte_budget = 3000,
                             .num_shards = 1,
                             .tinylfu_admission = false};
  TestCache cache(opts, &SizeCost, &tr);

  // A fills exactly its guaranteed share: 5 × 200 bytes.
  for (uint64_t k = 1; k <= 5; ++k) {
    auto out = cache.Insert(k, MixHash(k), Blob(200), a);
    ASSERT_TRUE(out.admitted);
  }
  // B floods 40 cold entries. Once the shard fills, every eviction lands on
  // B's own older entries — A's are at the LRU tail but protected.
  for (uint64_t k = 100; k < 140; ++k) {
    cache.Insert(k, MixHash(k), Blob(200), b);
  }

  for (uint64_t k = 1; k <= 5; ++k) {
    EXPECT_NE(cache.Lookup(k, MixHash(k), a), nullptr) << "A's key " << k;
  }
  EXPECT_EQ(cache.tenant_stats(a).bytes, 1000);
  EXPECT_EQ(cache.tenant_stats(b).bytes, 2000);  // the rest of the budget
  EXPECT_EQ(cache.stats().fair_share_rejects, 0);
  // 40 B-inserts into 10 remaining slots: 30 of B's own evicted.
  EXPECT_EQ(cache.stats().evictions, 30);
}

TEST(FairShareCacheTest, FairShareOffLetsTheFloodEvictEverything) {
  runtime::TenantRegistry tr;
  const auto a = tr.Register({.name = "a"});
  const auto b = tr.Register({.name = "b"});
  runtime::CacheOptions opts{.byte_budget = 3000,
                             .num_shards = 1,
                             .tinylfu_admission = false,
                             .fair_share = false};
  TestCache cache(opts, &SizeCost, &tr);

  for (uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(cache.Insert(k, MixHash(k), Blob(200), a).admitted);
  }
  for (uint64_t k = 100; k < 140; ++k) {
    cache.Insert(k, MixHash(k), Blob(200), b);
  }
  // Plain LRU: A's older entries were the tail and are gone.
  for (uint64_t k = 1; k <= 5; ++k) {
    EXPECT_EQ(cache.Lookup(k, MixHash(k), a), nullptr) << "A's key " << k;
  }
  EXPECT_EQ(cache.tenant_stats(a).bytes, 0);
}

TEST(FairShareCacheTest, AllVictimsProtectedRejectsTheCandidateUncached) {
  runtime::TenantRegistry tr;
  const auto a = tr.Register({.name = "a"});
  const auto b = tr.Register({.name = "b"});
  // Guaranteed share: 2000/3 ≈ 666 bytes each.
  runtime::CacheOptions opts{.byte_budget = 2000,
                             .num_shards = 1,
                             .tinylfu_admission = false};
  TestCache cache(opts, &SizeCost, &tr);

  // A parks 9 small entries (630 bytes, within share) — more entries than
  // the victim-scan cap, so B's eviction walk sees only protected entries.
  for (uint64_t k = 1; k <= 9; ++k) {
    ASSERT_TRUE(cache.Insert(k, MixHash(k), Blob(70), a).admitted);
  }
  auto out = cache.Insert(500, MixHash(500), Blob(1500), b);
  EXPECT_FALSE(out.admitted);
  EXPECT_TRUE(out.fair_share_rejected);
  ASSERT_NE(out.value, nullptr);  // still served, just uncached
  EXPECT_EQ(out.value->size(), 1500u);
  EXPECT_EQ(cache.stats().fair_share_rejects, 1);
  EXPECT_EQ(cache.tenant_stats(b).fair_share_rejects, 1);
  // A's entries were not touched.
  EXPECT_EQ(cache.tenant_stats(a).bytes, 630);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(FairShareCacheTest, TenantsChurnWithinTheirOwnShare) {
  runtime::TenantRegistry tr;
  const auto a = tr.Register({.name = "a"});
  runtime::CacheOptions opts{.byte_budget = 1000,
                             .num_shards = 1,
                             .tinylfu_admission = false};
  TestCache cache(opts, &SizeCost, &tr);
  // A alone floods past the whole budget: fair share never protects a
  // tenant from itself, so this is plain LRU churn.
  for (uint64_t k = 1; k <= 20; ++k) {
    auto out = cache.Insert(k, MixHash(k), Blob(250), a);
    EXPECT_TRUE(out.admitted) << "key " << k;
  }
  EXPECT_EQ(cache.stats().fair_share_rejects, 0);
  EXPECT_EQ(cache.stats().evictions, 16);  // 4 resident at 250 bytes each
  EXPECT_LE(cache.tenant_stats(a).bytes, 1000);
}

// ---------------------------------------------------------------------------
// Adversarial: an 8-thread cold flood against another tenant's hot set
// ---------------------------------------------------------------------------

std::string CatalogPage(uint64_t seed) {
  util::Rng rng(seed);
  html::CatalogOptions opts;
  opts.num_items = 10;
  opts.with_ads = (seed % 3 != 0);
  return html::ProductCatalogPage(rng, opts);
}

/// Runs hot-tenant-vs-flood through a single-shard DocumentCache and returns
/// the hot tenant's miss delta when it re-requests its hot set after the
/// flood. 0 = fully protected.
int64_t HotSetMissesAfterFlood(bool fair_share) {
  runtime::TenantRegistry tr;
  // The hot tenant pays for twice the weight: its guaranteed share is half
  // the cache (hot(2) / [default(1) + hot(2) + flood(1)]).
  const auto hot = tr.Register({.name = "hot", .cache_weight = 2.0});
  const auto flood = tr.Register({.name = "flood", .cache_weight = 1.0});

  std::vector<std::string> hot_pages;
  int64_t hot_bytes = 0;
  for (uint64_t s = 1; s <= 4; ++s) {
    hot_pages.push_back(CatalogPage(s));
    auto probe = runtime::CachedDocument::Parse(hot_pages.back(), "class");
    EXPECT_TRUE(probe.ok());
    hot_bytes += (*probe)->ApproxBytes();
  }

  runtime::DocumentCacheOptions opts;
  // Budget 3× the hot set: the hot tenant's guaranteed half covers its hot
  // set with slack, and TinyLFU is off so only fair share can save it from
  // the flood (the admission filter would mask the property under test).
  opts.cache = {.byte_budget = 3 * hot_bytes,
                .num_shards = 1,
                .tinylfu_admission = false,
                .fair_share = fair_share};
  opts.tenants = &tr;
  runtime::DocumentCache cache(opts);

  // Phase 1: the hot tenant populates its working set.
  for (const auto& page : hot_pages) {
    auto doc = cache.GetOrParse(page, "class", util::HashBytes128(page),
                                nullptr, hot);
    EXPECT_TRUE(doc.ok());
  }
  EXPECT_EQ(cache.tenant_stats(hot).misses, 4);

  // Phase 2: 8 flood threads, 16 distinct cold pages each — 128 one-hit
  // pages against a 12-page budget.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &tr, flood, t] {
      for (int i = 0; i < 16; ++i) {
        const std::string page =
            CatalogPage(10000 + static_cast<uint64_t>(t) * 100 + i);
        auto doc = cache.GetOrParse(page, "class", util::HashBytes128(page),
                                    nullptr, flood);
        EXPECT_TRUE(doc.ok());
        // The flood also burns CPU quota — exercise the charge path under
        // concurrency while we're here.
        tr.ChargeCpu(flood, 1000);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Phase 3: the hot tenant returns. Count its new misses.
  const int64_t misses_before = cache.tenant_stats(hot).misses;
  for (const auto& page : hot_pages) {
    auto doc = cache.GetOrParse(page, "class", util::HashBytes128(page),
                                nullptr, hot);
    EXPECT_TRUE(doc.ok());
  }
  return cache.tenant_stats(hot).misses - misses_before;
}

TEST(FairShareAdversarialTest, HotSetSurvivesEightThreadColdFlood) {
  EXPECT_EQ(HotSetMissesAfterFlood(/*fair_share=*/true), 0);
}

TEST(FairShareAdversarialTest, ControlRunWithoutFairShareLosesTheHotSet) {
  // The same flood against plain LRU evicts the whole hot set — this is
  // what makes the protected run above meaningful.
  EXPECT_EQ(HotSetMissesAfterFlood(/*fair_share=*/false), 4);
}

// ---------------------------------------------------------------------------
// Concurrent accounting stress (TSan surface)
// ---------------------------------------------------------------------------

TEST(QosStressTest, ConcurrentAccountingStaysConsistent) {
  telemetry::MetricsRegistry metrics;
  runtime::TenantRegistry tr(&metrics);
  const auto a = tr.Register({.name = "a",
                              .cpu_ns_per_sec = 1,
                              .cpu_burst_ns = 1LL << 40});
  const auto b = tr.Register({.name = "b",
                              .cpu_ns_per_sec = 1,
                              .cpu_burst_ns = 1LL << 40});
  runtime::CacheOptions opts{.byte_budget = 64 << 10,
                             .num_shards = 4,
                             .tinylfu_admission = false};
  TestCache cache(opts, &SizeCost, &tr);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr int64_t kChargeNs = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto tenant = (t % 2 == 0) ? a : b;
      for (int i = 0; i < kIters; ++i) {
        tr.Admit(tenant, util::Deadline());
        tr.ChargeCpu(tenant, kChargeNs);
        const uint64_t key = static_cast<uint64_t>(t) * 100000 + i;
        cache.Insert(key, MixHash(key), Blob(64), tenant);
        cache.Lookup(key, MixHash(key), tenant);
        // Contended keys: all threads fight over the same 16 entries.
        const uint64_t shared_key = 1u + (i % 16);
        cache.Lookup(shared_key, MixHash(shared_key), tenant);
        cache.Insert(shared_key, MixHash(shared_key), Blob(64), tenant);
      }
    });
  }
  for (auto& t : threads) t.join();

  const int64_t per_tenant = (kThreads / 2) * kIters;
  EXPECT_EQ(tr.counters(a)->requests->Value(), per_tenant);
  EXPECT_EQ(tr.counters(b)->requests->Value(), per_tenant);
  EXPECT_EQ(tr.counters(a)->cpu_ns->Value(), per_tenant * kChargeNs);
  EXPECT_EQ(tr.counters(b)->cpu_ns->Value(), per_tenant * kChargeNs);
  // Every charged nanosecond left the bucket (refill is ~frozen at 1 ns/s).
  EXPECT_LE(tr.cpu_balance_ns(a), (1LL << 40) - per_tenant * kChargeNs);

  // The per-tenant slices partition the cache totals exactly — no lost or
  // double-counted bytes/hits/misses under contention.
  const auto total = cache.stats();
  runtime::TenantCacheStats sum;
  for (runtime::TenantId id : {runtime::kDefaultTenant, a, b}) {
    const auto s = cache.tenant_stats(id);
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.bytes += s.bytes;
    sum.fair_share_rejects += s.fair_share_rejects;
  }
  EXPECT_EQ(sum.hits, total.hits);
  EXPECT_EQ(sum.misses, total.misses);
  EXPECT_EQ(sum.bytes, total.bytes_in_use);
  EXPECT_EQ(sum.fair_share_rejects, total.fair_share_rejects);
  EXPECT_LE(total.bytes_in_use, total.byte_budget);
  EXPECT_EQ(total.bytes_in_use, static_cast<int64_t>(total.entries) * 64);
}

// ---------------------------------------------------------------------------
// End to end: tenant counters ride the runtime's Prometheus export
// ---------------------------------------------------------------------------

TEST(QosRuntimeTest, TenantCountersAppearInPrometheusExport) {
  runtime::RuntimeOptions opts;
  opts.num_threads = 2;
  opts.tenants = {{.name = "acme", .cache_weight = 2.0}};
  runtime::WrapperRuntime rt(opts);
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
  )");
  ASSERT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item"};
  auto handle = rt.Register(w, "class");
  ASSERT_TRUE(handle.ok());

  const std::string page = CatalogPage(77);
  runtime::RequestOptions as_acme;
  as_acme.tenant = 1;  // first configured tenant
  auto result =
      rt.Submit({runtime::PageRef::View(page), *handle, as_acme}).get();
  ASSERT_TRUE(result.ok());

  const auto ts = rt.tenant_stats(1);
  EXPECT_EQ(ts.name, "acme");
  EXPECT_EQ(ts.requests, 1);
  EXPECT_EQ(ts.pages_wrapped, 1);
  EXPECT_EQ(ts.document_cache.misses, 1);

  const std::string prom = rt.ExportPrometheus();
  EXPECT_NE(prom.find("mdatalog_tenant_acme_requests_total 1"),
            std::string::npos);
  EXPECT_NE(prom.find("mdatalog_tenant_acme_pages_wrapped_total 1"),
            std::string::npos);
  EXPECT_NE(prom.find("mdatalog_tenant_acme_document_cache_bytes"),
            std::string::npos);
}

}  // namespace
