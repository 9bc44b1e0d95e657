// The wrapper-serving runtime: compiled-program + shared-document caches and
// the thread-pool batch executor. The load-bearing property throughout is
// that every cached / parallel / arena-reusing path is byte-identical to the
// sequential, cache-free evaluation (and, at the datalog level, to the
// pre-rewrite reference oracle).

#include <barrier>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/core/grounder.h"
#include "src/elog/ast.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/program_cache.h"
#include "src/runtime/runtime.h"
#include "src/store/corpus_store.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"
#include "tests/support/reference_eval.h"

namespace {

using namespace mdatalog;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// bench_runtime's catalog wrapper: class-projected labels, Elog⁻ only
/// (so the Corollary 6.4 grounded pipeline compiles).
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

/// A wrapper over raw tag labels (no projection), for the board pages.
wrapper::Wrapper BoardWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    litem(X) <- anynode(P), subelem(P, "li", X).
    deepleaf(X) <- litem(X), leaf(X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"litem", "deepleaf"};
  return w;
}

/// One Request per page, borrowing the page bytes (the caller's vector
/// outlives the SubmitBatch join).
std::vector<runtime::Request> ViewBatch(
    const runtime::WrapperHandle& handle,
    const std::vector<std::string>& pages,
    const runtime::RequestOptions& options = {}) {
  std::vector<runtime::Request> requests;
  requests.reserve(pages.size());
  for (const std::string& page : pages) {
    requests.push_back({runtime::PageRef::View(page), handle, options});
  }
  return requests;
}

std::string CatalogPage(uint64_t seed, int32_t items) {
  util::Rng rng(seed);
  html::CatalogOptions opts;
  opts.num_items = items;
  opts.with_ads = true;
  return html::ProductCatalogPage(rng, opts);
}

std::string BoardPage(uint64_t seed, int32_t depth, int32_t fanout) {
  util::Rng rng(seed);
  return html::NestedBoardPage(rng, depth, fanout);
}

/// The cache-free, single-threaded reference the runtime must reproduce.
std::string SequentialXml(const wrapper::Wrapper& w, const std::string& html,
                          const std::string& attr) {
  auto doc = html::ParseHtml(html);
  EXPECT_TRUE(doc.ok());
  if (attr.empty()) {
    auto out = wrapper::WrapTree(w, doc->tree());
    EXPECT_TRUE(out.ok());
    return tree::ToXml(*out);
  }
  tree::Tree t = html::ProjectAttributeIntoLabels(*doc, attr);
  auto out = wrapper::WrapTree(w, t);
  EXPECT_TRUE(out.ok());
  return tree::ToXml(*out);
}

// ---------------------------------------------------------------------------
// DocumentCache
// ---------------------------------------------------------------------------

TEST(DocumentCacheTest, SharesOneParsePerDistinctContent) {
  runtime::DocumentCache cache(64 << 20);
  std::string page = BoardPage(1, 3, 3);
  auto a = cache.GetOrParse(page, "");
  auto b = cache.GetOrParse(page, "");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());  // literally the same shared document

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes_in_use, 0);

  // A different projection attribute is a different entry: the projected
  // tree differs even for identical bytes.
  auto c = cache.GetOrParse(page, "class");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(DocumentCacheTest, EvictsLruUnderByteBudget) {
  // Budget sized from a real document so the test tracks ApproxBytes drift.
  // Single shard, plain LRU: this test pins the recency semantics the
  // TinyLFU tests below build on.
  auto probe = runtime::CachedDocument::Parse(BoardPage(1, 3, 3), "");
  ASSERT_TRUE(probe.ok());
  const int64_t one_doc = (*probe)->ApproxBytes();
  runtime::DocumentCache cache(runtime::DocumentCacheOptions{
      .cache = {.byte_budget = 2 * one_doc + one_doc / 2,
                .num_shards = 1,
                .tinylfu_admission = false},
  });

  ASSERT_TRUE(cache.GetOrParse(BoardPage(1, 3, 3), "").ok());
  ASSERT_TRUE(cache.GetOrParse(BoardPage(2, 3, 3), "").ok());
  ASSERT_TRUE(cache.GetOrParse(BoardPage(3, 3, 3), "").ok());

  auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.entries, 2);
  EXPECT_LE(stats.bytes_in_use, stats.byte_budget);

  // The survivor is the most recently used: page 3 hits, page 1 re-misses.
  ASSERT_TRUE(cache.GetOrParse(BoardPage(3, 3, 3), "").ok());
  EXPECT_EQ(cache.stats().hits, 1);
  ASSERT_TRUE(cache.GetOrParse(BoardPage(1, 3, 3), "").ok());
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(DocumentCacheTest, ZeroBudgetDisablesCaching) {
  runtime::DocumentCache cache(0);
  std::string page = BoardPage(1, 2, 2);
  auto a = cache.GetOrParse(page, "");
  auto b = cache.GetOrParse(page, "");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(DocumentCacheTest, ChargesEachDocumentOnceAtInsert) {
  // Documents are immutable, so the charge taken at insert is final:
  // evaluations and hits leave the shard's byte count alone.
  runtime::RuntimeOptions opts;
  opts.result_memo.byte_budget = 0;  // every Wrap evaluates
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  const std::string page = CatalogPage(5, 10);
  auto probe = runtime::CachedDocument::Parse(page, "class");
  ASSERT_TRUE(probe.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rt.Wrap(*handle, page).ok());
    EXPECT_EQ(rt.stats().document_cache.bytes_in_use,
              (*probe)->ApproxBytes());
  }
  EXPECT_EQ(rt.stats().document_cache.hits, 2);
}

TEST(DocumentCacheTest, TinyLfuKeepsHotEntryAgainstColdScan) {
  // One shard so the hot page and the scan contend for the same budget.
  auto probe = runtime::CachedDocument::Parse(BoardPage(1, 3, 3), "");
  ASSERT_TRUE(probe.ok());
  const int64_t one_doc = (*probe)->ApproxBytes();
  runtime::DocumentCache cache(runtime::DocumentCacheOptions{
      .cache = {.byte_budget = 2 * one_doc + one_doc / 2,
                .num_shards = 1,
                .tinylfu_admission = true},
  });

  // Make page 1 hot: several accesses build up sketch frequency.
  std::string hot = BoardPage(1, 3, 3);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(cache.GetOrParse(hot, "").ok());
  const int64_t hits_before_scan = cache.stats().hits;

  // A one-hit scan of distinct cold pages. Plain LRU would evict the hot
  // page; TinyLFU must reject the one-hit candidates instead.
  for (uint64_t seed = 100; seed < 130; ++seed) {
    ASSERT_TRUE(cache.GetOrParse(BoardPage(seed, 3, 3), "").ok());
  }
  EXPECT_GT(cache.stats().admission_rejects, 0);

  // The hot page survived the scan: next access is a hit, not a re-parse.
  ASSERT_TRUE(cache.GetOrParse(hot, "").ok());
  EXPECT_EQ(cache.stats().hits, hits_before_scan + 1);
}

TEST(DocumentCacheTest, ShardsPartitionTheKeySpace) {
  runtime::DocumentCache cache(64 << 20);  // default options: 8 shards
  EXPECT_EQ(cache.num_shards(), 8);
  EXPECT_EQ(cache.stats().shards, 8);
  // Structurally distinct pages (item count varies), so every seed is a
  // distinct cache key.
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ASSERT_TRUE(
        cache.GetOrParse(CatalogPage(seed, static_cast<int32_t>(seed)), "")
            .ok());
  }
  // Ample budget: sharding must not change visible cache behavior — every
  // distinct page is resident wherever it hashed to.
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 16);
  EXPECT_EQ(stats.misses, 16);
  EXPECT_EQ(stats.evictions, 0);
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ASSERT_TRUE(
        cache.GetOrParse(CatalogPage(seed, static_cast<int32_t>(seed)), "")
            .ok());
  }
  EXPECT_EQ(cache.stats().hits, 16);
}

TEST(DocumentCacheTest, StoreHitsNotDoubleCountedUnderRace) {
  // Regression: store_hits used to be booked inside the rehydration itself,
  // so two threads missing concurrently on the same content hash both
  // counted a store hit even though only the insert-race winner's copy is
  // served. The count must be exactly one per distinct page, no matter how
  // the races resolve.
  constexpr int kRounds = 16;
  const std::string path =
      std::string(testing::TempDir()) + "/store_hits_race.mdcs";
  std::vector<std::string> pages;
  store::CorpusStore::Builder builder;
  for (int r = 0; r < kRounds; ++r) {
    pages.push_back(CatalogPage(700 + r, 4 + r % 3));
    ASSERT_TRUE(builder.AddHtml(pages.back(), "").ok());
  }
  ASSERT_TRUE(builder.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  runtime::DocumentCacheOptions options;
  options.cache.byte_budget = 64 << 20;
  options.cache.num_shards = 1;
  options.cache.tinylfu_admission = false;  // every miss admits: pure LRU
  options.corpus_store = *store;
  runtime::DocumentCache cache(options);

  // Both threads released onto the same fresh page at once, every round:
  // each round is one in-memory miss pair racing to rehydrate + insert.
  std::barrier<> gate(2);
  auto worker = [&] {
    for (int r = 0; r < kRounds; ++r) {
      gate.arrive_and_wait();
      auto doc = cache.GetOrParse(pages[r], "");
      ASSERT_TRUE(doc.ok());
      EXPECT_TRUE((*doc)->tree().frozen());  // served from the store
    }
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();

  auto stats = cache.stats();
  // Deterministic regardless of race outcome: the loser either serves the
  // winner's inserted copy (its own rehydration is discarded, uncounted) or
  // scores an in-memory hit. The buggy accounting reported up to 2x — which
  // manifests whenever both threads pass the miss check before either
  // inserts, i.e. reliably on multi-core runners.
  EXPECT_EQ(stats.store_hits, kRounds);
  EXPECT_EQ(stats.hits + stats.misses, 2 * kRounds);
  EXPECT_GE(stats.misses, kRounds);
}

// ---------------------------------------------------------------------------
// ProgramCache
// ---------------------------------------------------------------------------

TEST(ProgramCacheTest, CompilesOnceAndBuildsGroundPlan) {
  runtime::ProgramCache cache(8);
  wrapper::Wrapper w = CatalogWrapper();
  auto a = cache.GetOrCompile(w);
  auto b = cache.GetOrCompile(w);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  // The ground plan must have compiled, with one resolved pattern
  // predicate per extraction pattern.
  EXPECT_TRUE((*a)->has_ground_plan);
  EXPECT_EQ(cache.stats().ground_plans, 1);
  ASSERT_EQ((*a)->pattern_preds.size(), 2u);
  EXPECT_GE((*a)->pattern_preds[0], 0);
  EXPECT_GE((*a)->pattern_preds[1], 0);

  // Different pattern list ⇒ different fingerprint ⇒ separate entry.
  wrapper::Wrapper w2 = CatalogWrapper();
  w2.extraction_patterns = {"price"};
  auto c = cache.GetOrCompile(w2);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), c->get());
}

TEST(ProgramCacheTest, DeltaBuiltinProgramGetsAGroundPlan) {
  auto program = elog::ParseElog(
      "a0(X) <- root(R), subelem(R, \"a\", X), notafter(R, \"a\", X).\n");
  ASSERT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"a0"};
  runtime::ProgramCache cache(4);
  auto compiled = cache.GetOrCompile(w);
  ASSERT_TRUE(compiled.ok());
  // The builtin is a residual check of the plan, and the stream session's
  // incremental replay runs it too, at the end of input.
  EXPECT_TRUE((*compiled)->has_ground_plan);
  EXPECT_TRUE((*compiled)->ground_plan->streamable());
  EXPECT_EQ(cache.stats().ground_plans, 1);
}

TEST(ProgramCacheTest, CapacityEvictsLru) {
  runtime::ProgramCache cache(2);
  wrapper::Wrapper w = CatalogWrapper();
  wrapper::Wrapper w2 = CatalogWrapper();
  w2.extraction_patterns = {"item"};
  wrapper::Wrapper w3 = CatalogWrapper();
  w3.extraction_patterns = {"price"};
  ASSERT_TRUE(cache.GetOrCompile(w).ok());
  ASSERT_TRUE(cache.GetOrCompile(w2).ok());
  ASSERT_TRUE(cache.GetOrCompile(w3).ok());  // evicts w
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(cache.GetOrCompile(w).ok());  // re-compile, not a hit
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(ProgramCacheTest, RejectsInvalidPrograms) {
  elog::ElogProgram bad;
  elog::ElogRule r;
  r.head_pattern = "root";  // heads must not be "root" (Definition 6.2)
  r.head_var = "X";
  r.parent_pattern = "root";
  r.parent_var = "X";
  bad.AddRule(r);
  wrapper::Wrapper w;
  w.program = bad;
  runtime::ProgramCache cache(4);
  EXPECT_FALSE(cache.GetOrCompile(w).ok());
}

/// CatalogWrapper reformulated: rules permuted, variables renamed, one
/// duplicate rule added. Extraction-equivalent, so the canonical key must
/// match CatalogWrapper's exactly.
wrapper::Wrapper ReformulatedCatalogWrapper() {
  auto program = elog::ParseElog(R"(
    price(Q) <- item(I), subelem(I, "td@price", Q).
    item(N)  <- anynode(A), subelem(A, "tr@item", N).
    anynode(N) <- anynode(A), subelem(A, "_", N).
    anynode(R) <- root(R).
    item(Z)  <- anynode(W), subelem(W, "tr@item", Z).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};
  return w;
}

TEST(ProgramCacheTest, CanonicalKeySharesReformulatedWrapper) {
  runtime::ProgramCache cache(8);
  wrapper::Wrapper w = CatalogWrapper();
  wrapper::Wrapper re = ReformulatedCatalogWrapper();
  auto a = cache.GetOrCompile(w);
  ASSERT_TRUE(a.ok());
  // New text, same canonical key: the compiled plan is shared, not rebuilt.
  auto b = cache.GetOrCompile(re);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().canonical_key_hits, 1);
  EXPECT_EQ(cache.stats().entries, 1);
  // The reformulation is now aliased: repeat lookups hit on the cheap
  // syntactic fingerprint without recomputing the canonical key.
  auto c = cache.GetOrCompile(re);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->get(), c->get());
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().canonical_key_hits, 1);
  // Both formulations memo-key on one canonical fingerprint.
  EXPECT_EQ((*a)->canonical_fingerprint, (*b)->canonical_fingerprint);
}

TEST(ProgramCacheTest, CanonicalEntryEvictsAllAliases) {
  runtime::ProgramCache cache(2);
  wrapper::Wrapper w = CatalogWrapper();
  ASSERT_TRUE(cache.GetOrCompile(w).ok());
  ASSERT_TRUE(cache.GetOrCompile(ReformulatedCatalogWrapper()).ok());  // alias
  wrapper::Wrapper w2 = CatalogWrapper();
  w2.extraction_patterns = {"item"};
  wrapper::Wrapper w3 = CatalogWrapper();
  w3.extraction_patterns = {"price"};
  ASSERT_TRUE(cache.GetOrCompile(w2).ok());
  ASSERT_TRUE(cache.GetOrCompile(w3).ok());  // evicts the catalog entry
  EXPECT_EQ(cache.stats().entries, 2);
  // Both the original and the alias must miss now — no dangling index
  // entries pointing at the evicted program.
  ASSERT_TRUE(cache.GetOrCompile(w).ok());
  ASSERT_TRUE(cache.GetOrCompile(ReformulatedCatalogWrapper()).ok());
  EXPECT_EQ(cache.stats().canonical_key_hits, 2);  // re-merged after recompile
}

// ---------------------------------------------------------------------------
// GroundPlan replay + arena reuse (core-level): byte-identical to the
// one-shot grounded engine and to the pre-rewrite reference oracle.
// ---------------------------------------------------------------------------

TEST(GroundPlanTest, ReplayWithSharedArenaMatchesReferenceEval) {
  wrapper::Wrapper w = CatalogWrapper();
  auto datalog = elog::ElogToDatalog(w.program);
  ASSERT_TRUE(datalog.ok());
  auto tmnf = tmnf::ToTmnf(*datalog);
  ASSERT_TRUE(tmnf.ok());
  auto plan = core::GroundPlan::Compile(*tmnf);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::vector<core::PredId> pats;
  for (const std::string& p : w.extraction_patterns) {
    pats.push_back(tmnf->preds().Find("pat_" + p));
    ASSERT_GE(pats.back(), 0);
  }

  util::Rng rng(99);
  core::GroundArena arena;  // one arena, reused across all trees
  for (int trial = 0; trial < 10; ++trial) {
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(80)),
        {"table", "tr@item", "td@price", "a", "b"});
    auto replay = core::EvaluateGrounded(*plan, t, &arena);
    auto oneshot = core::EvaluateGrounded(*tmnf, t);
    core::TreeDatabase db(t);
    auto reference = core::EvaluateNaiveReference(*tmnf, db);
    ASSERT_TRUE(replay.ok());
    ASSERT_TRUE(oneshot.ok());
    ASSERT_TRUE(reference.ok());
    for (core::PredId p : pats) {
      EXPECT_EQ(replay->Unary(p), oneshot->Unary(p));
      EXPECT_EQ(replay->Unary(p), reference->Unary(p));
    }
    EXPECT_EQ(replay->num_derived(), oneshot->num_derived());
  }
}

// ---------------------------------------------------------------------------
// WrapperRuntime: correctness vs the sequential reference
// ---------------------------------------------------------------------------

TEST(WrapperRuntimeTest, MatchesSequentialWrapperOnRawLabels) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::string page = BoardPage(seed, 3, 3);
    auto got = rt.Wrap(*handle, page);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, SequentialXml(BoardWrapper(), page, ""));
  }
}

TEST(WrapperRuntimeTest, MatchesSequentialWrapperWithProjection) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::string page = CatalogPage(seed, 12);
    auto got = rt.Wrap(*handle, page);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, SequentialXml(CatalogWrapper(), page, "class"));
  }
  auto stats = rt.stats();
  EXPECT_EQ(stats.grounded_evals, 5);  // kAuto used the Corollary 6.4 plan
  EXPECT_EQ(stats.native_evals, 0);
}

TEST(WrapperRuntimeTest, EnginesProduceIdenticalOutput) {
  runtime::RuntimeOptions native_opts;
  native_opts.engine = runtime::RuntimeOptions::EngineMode::kNativeElog;
  native_opts.result_memo.byte_budget = 0;
  runtime::RuntimeOptions auto_opts;
  auto_opts.result_memo.byte_budget = 0;
  runtime::WrapperRuntime native(native_opts);
  runtime::WrapperRuntime grounded(auto_opts);  // kAuto: the ground plan
  auto hn = native.Register(CatalogWrapper(), "class");
  auto hg = grounded.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(hn.ok());
  ASSERT_TRUE(hg.ok());
  // Two passes: the second serves every page from the document cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t seed = 10; seed <= 14; ++seed) {
      std::string page = CatalogPage(seed, 8);
      auto a = native.Wrap(*hn, page);
      auto b = grounded.Wrap(*hg, page);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b);
      // The compiled semi-naive engine, from core, over the same tree.
      auto doc = runtime::CachedDocument::Parse(page, "class");
      ASSERT_TRUE(doc.ok());
      const core::TreeDatabase db((*doc)->tree());
      auto c = oracle::SemiNaiveXml(*hg->program, db, (*doc)->tree());
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      EXPECT_EQ(*a, *c);
    }
  }
  EXPECT_EQ(native.stats().native_evals, 10);
  EXPECT_EQ(grounded.stats().grounded_evals, 10);
  EXPECT_EQ(grounded.stats().native_evals, 0);
  // Neither engine changes a cached document, so both runtimes charge the
  // same bytes for the same pages.
  EXPECT_EQ(native.stats().document_cache.bytes_in_use,
            grounded.stats().document_cache.bytes_in_use);
}

TEST(WrapperRuntimeTest, AutoServesDeltaBuiltinsFromTheGroundPlan) {
  auto program = elog::ParseElog(
      "a0(X) <- root(R), subelem(R, \"a\", X), notafter(R, \"a\", X).\n");
  ASSERT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"a0"};

  // Elog⁻Δ replays its ground plan too; the native engine is the reference.
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(w);
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(handle->program->has_ground_plan);
  auto got = rt.Wrap(*handle, "<html><a>x</a></html>");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, SequentialXml(w, "<html><a>x</a></html>", ""));
  EXPECT_EQ(rt.stats().native_evals, 0);
  EXPECT_EQ(rt.stats().grounded_evals, 1);
}

TEST(WrapperRuntimeTest, MemoServesIdenticalBytesAndCounts) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  std::string page = CatalogPage(3, 10);
  auto first = rt.Wrap(*handle, page);
  auto second = rt.Wrap(*handle, page);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  auto stats = rt.stats();
  EXPECT_EQ(stats.memo_hits, 1);
  EXPECT_EQ(stats.pages_wrapped, 1);  // second request never re-evaluated
}

TEST(WrapperRuntimeTest, EquivalentWrapperRevisionsShareMemoizedResults) {
  runtime::WrapperRuntime rt;
  auto h1 = rt.Register(CatalogWrapper(), "class");
  auto h2 = rt.Register(ReformulatedCatalogWrapper(), "class");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  std::string page = CatalogPage(11, 10);
  auto first = rt.Wrap(*h1, page);
  auto second = rt.Wrap(*h2, page);  // revision: same canonical key
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  auto stats = rt.stats();
  EXPECT_EQ(stats.program_cache.canonical_key_hits, 1);
  EXPECT_EQ(stats.memo_hits, 1);      // the revision was served from memo
  EXPECT_EQ(stats.pages_wrapped, 1);  // never re-evaluated
}

// ---------------------------------------------------------------------------
// Concurrency: many threads × one shared document, many documents × one
// shared program — results byte-identical to the sequential reference.
// Memoization is disabled so every request actually evaluates concurrently.
// ---------------------------------------------------------------------------

TEST(WrapperRuntimeConcurrencyTest, ManyThreadsOneSharedDocument) {
  runtime::RuntimeOptions opts;
  opts.num_threads = 8;
  opts.result_memo.byte_budget = 0;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  std::string page = CatalogPage(7, 16);
  const std::string expected = SequentialXml(CatalogWrapper(), page, "class");

  std::vector<std::future<util::Result<std::string>>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(rt.Submit({runtime::PageRef::View(page), *handle, {}}));
  }
  for (auto& f : futures) {
    auto got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected);
  }
  // All 48 requests evaluated (no memo), over at most a handful of parses
  // (the document cache absorbs the rest — a racing first miss may parse a
  // couple of times, see DocumentCache::GetOrParse).
  auto stats = rt.stats();
  EXPECT_EQ(stats.pages_wrapped, 48);
  EXPECT_GE(stats.document_cache.hits, 40);
}

TEST(WrapperRuntimeConcurrencyTest, ManyDocumentsOneSharedProgram) {
  runtime::RuntimeOptions opts;
  opts.num_threads = 8;
  opts.result_memo.byte_budget = 0;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  std::vector<std::string> pages;
  std::vector<std::string> expected;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    pages.push_back(CatalogPage(seed, 4 + static_cast<int32_t>(seed % 9)));
    expected.push_back(SequentialXml(CatalogWrapper(), pages.back(), "class"));
  }
  // Submit each page twice, interleaved, to mix shared-document and
  // shared-program contention.
  std::vector<std::future<util::Result<std::string>>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& page : pages) {
      futures.push_back(
          rt.Submit({runtime::PageRef::View(page), *handle, {}}));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected[i % pages.size()]);
  }
  EXPECT_EQ(rt.stats().program_cache.entries, 1);
}

TEST(WrapperRuntimeConcurrencyTest, MemoUnderContentionStaysCorrect) {
  runtime::RuntimeOptions opts;
  opts.num_threads = 8;  // memo enabled: exercise the memo's own locking
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());
  std::string page = BoardPage(11, 3, 4);
  const std::string expected = SequentialXml(BoardWrapper(), page, "");
  std::vector<std::future<util::Result<std::string>>> futures;
  // PageRef::Copy: each request is self-contained (exercises the owning
  // flavor; the View flavor is covered above).
  for (int i = 0; i < 32; ++i) {
    futures.push_back(rt.Submit({runtime::PageRef::Copy(page), *handle, {}}));
  }
  for (auto& f : futures) {
    auto got = f.get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected);
  }
}

TEST(WrapperRuntimeConcurrencyTest, CancelledRequestsNeverCorruptShardState) {
  // 8 workers, shared cancel token fired mid-batch: every request must
  // resolve to either a full correct result or a clean kCancelled — and the
  // caches must afterwards serve byte-identical results, i.e. cancellation
  // unwound without corrupting any shard.
  runtime::RuntimeOptions opts;
  opts.num_threads = 8;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  std::vector<std::string> pages;
  std::vector<std::string> expected;
  for (uint64_t seed = 50; seed < 82; ++seed) {
    pages.push_back(CatalogPage(seed, 6 + static_cast<int32_t>(seed % 5)));
    expected.push_back(SequentialXml(CatalogWrapper(), pages.back(), "class"));
  }

  runtime::RequestOptions request;
  request.cancel = std::make_shared<util::CancelToken>();
  std::vector<std::future<util::Result<std::string>>> futures;
  for (const std::string& page : pages) {
    futures.push_back(
        rt.Submit({runtime::PageRef::View(page), *handle, request}));
  }
  // Let some requests land, then cancel the rest of the batch.
  futures.front().wait();
  request.cancel->Cancel();

  int64_t cancelled = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    if (got.ok()) {
      EXPECT_EQ(*got, expected[i]);
    } else {
      EXPECT_EQ(got.status().code(), util::StatusCode::kCancelled)
          << got.status().ToString();
      ++cancelled;
    }
  }
  EXPECT_EQ(rt.stats().cancelled, cancelled);

  // Shard-state integrity: the same corpus, no cancel, through the warm (and
  // partially populated) caches — every page byte-identical to sequential.
  auto results = rt.SubmitBatch(ViewBatch(*handle, pages));
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(*results[i], expected[i]);
  }
}

TEST(WrapperRuntimeConcurrencyTest, SubmitBatchIsDeterministicAndOrdered) {
  runtime::RuntimeOptions opts;
  opts.num_threads = 4;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  std::vector<std::string> pages;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    pages.push_back(CatalogPage(seed, 3 + static_cast<int32_t>(seed % 7)));
  }
  auto first = rt.SubmitBatch(ViewBatch(*handle, pages));
  auto second = rt.SubmitBatch(ViewBatch(*handle, pages));
  ASSERT_EQ(first.size(), pages.size());
  ASSERT_EQ(second.size(), pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    // Deterministic across runs, index-aligned with the input, and equal to
    // the sequential single-thread evaluation.
    EXPECT_EQ(*first[i], *second[i]);
    EXPECT_EQ(*first[i], SequentialXml(CatalogWrapper(), pages[i], "class"));
  }
}

}  // namespace
