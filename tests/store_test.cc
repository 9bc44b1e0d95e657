// The corpus store: pack → save → mmap-open → serve must be byte-identical
// to parsing, corrupt bytes must surface as typed errors (never as wrong
// answers or crashes), and a store-backed runtime must produce exactly the
// XML a parse-every-time runtime produces — under every engine mode.

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/elog/ast.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/runtime.h"
#include "src/store/corpus_store.h"
#include "src/store/format.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"

namespace {

using namespace mdatalog;

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

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Builds a store of `n` catalog pages under `attr` projection plus one
/// board page (raw labels), saved at `path`.
std::shared_ptr<const store::CorpusStore> BuildAndOpen(
    const std::string& path, int32_t n, const std::string& attr) {
  store::CorpusStore::Builder b;
  for (int32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(b.AddHtml(CatalogPage(100 + i, 8 + i % 5), attr).ok());
  }
  EXPECT_TRUE(b.AddHtml(BoardPage(7, 3, 3), "").ok());
  EXPECT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return *store;
}

// ---------------------------------------------------------------------------
// Format stability
// ---------------------------------------------------------------------------

uint64_t Fnv64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CorpusStoreTest, PackedBytesArePinned) {
  // Single-document snapshot files, digested. The tree content (label
  // order, no leftover "#document" symbol) is pinned since before the
  // in-place scanner replaced the token-vector parser; the digests are of
  // format version 2, whose files are the version 1 files with the unary-EDB
  // section dropped and the doc header re-laid out.
  std::vector<std::pair<std::string, std::string>> pages;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    html::CatalogOptions opts;
    opts.num_items = 5 + static_cast<int32_t>(seed);
    opts.with_ads = seed % 2 == 1;
    pages.emplace_back(html::ProductCatalogPage(rng, opts), "class");
  }
  {
    util::Rng rng(9);
    pages.emplace_back(html::NewsIndexPage(rng, 4), "class");
  }
  {
    util::Rng rng(10);
    pages.emplace_back(html::NestedBoardPage(rng, 3, 2), "");
  }
  const std::vector<std::string> edge_cases = {
      "<p>1 < 2 <3 <</p>",
      "<DIV CLASS=Big ID=Top><SPAN Class=X>t</SPAN></DIV>",
      "<div class=\"a&amp;b\"><p class=\'x &lt; y\'>t</p></div>",
      "<a href=/x?a=1 checked disabled title = \"q\" class=>l</a>",
      "<div><script>var x = 1;</SCRIPT><p>after</p></div>",
      "<div><script/><p>a</p></script><p>b</p></div>",
      "<p>x</p><!-",
      "<p>x</p><!-- never closed <p>y</p>",
      "<ul><li class=a class=b>1<li class=\"\" class=c>2</ul>",
      "text<b>bold</b>tail &amp; &#65;&#9999; &bogus;",
      "<table><tr><td>1<td>2<tr><td>3</table><br/>",
      "<div>\n  <p>x</p>\n</div>\n",
      "<!DOCTYPE html><html><head><style>p{}</style></head><body><p>a<b>b</p>"
      "c</body></html>",
      "<x-y:z data_k=v/>after",
  };
  for (const std::string& page : edge_cases) pages.emplace_back(page, "class");
  for (const std::string& page : edge_cases) pages.emplace_back(page, "");
  const std::vector<uint64_t> expected = {
      0xab67582174e063d6ull, 0x8b7e4d231e73b135ull, 0x0fee0ddd187a06cdull,
      0xb3f48f3e743ee6c0ull, 0xfc62bfb7d0d3eb6eull, 0x788a2756e96283a4ull,
      0x2976762df3b2c6e5ull, 0x53e5da6882ef3af5ull, 0x59aeb435e396f333ull,
      0x9306e9bcbe8b1087ull, 0x8272a755ae9fe49aull, 0x3430954f7305523bull,
      0x04ef6ef8cdc82d92ull, 0x674bdae44845df35ull, 0xd0574ca8c2b5ea3dull,
      0xa587ed7fadcd8f7full, 0xcd01a499346002d2ull, 0x419ee8fd45f1ce1bull,
      0xc4af69e291157bcbull, 0x4843fde1318b582cull, 0x3c48ec692bec27caull,
      0x50f619a71a5b103dull, 0x3085a45b6425c33aull, 0xff18fca888ca26f5ull,
      0x64f9994f328dbdfbull, 0x3c49ce56fbbecc12ull, 0x0b97eef8fad050b7ull,
      0xcd2ce018dc7786fdull, 0xfb5469f53f23ab41ull, 0x446277e0c60a8463ull,
      0x3cbde6bae45b3809ull, 0x8dad544ac81d78dfull, 0xc1906a80c7aca6dcull,
  };
  ASSERT_EQ(pages.size(), expected.size());
  const std::string path = TempPath("pinned.mdcs");
  for (size_t i = 0; i < pages.size(); ++i) {
    store::CorpusStore::Builder b;
    ASSERT_TRUE(b.AddHtml(pages[i].first, pages[i].second).ok()) << i;
    ASSERT_TRUE(b.Save(path).ok()) << i;
    EXPECT_EQ(Fnv64(ReadFile(path)), expected[i]) << "page " << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(CorpusStoreTest, RoundTripsTreesByteForByte) {
  const std::string path = TempPath("roundtrip.mdcs");
  auto store = BuildAndOpen(path, 4, "class");
  ASSERT_EQ(store->size(), 5);

  for (int32_t i = 0; i < 4; ++i) {
    const std::string page = CatalogPage(100 + i, 8 + i % 5);
    auto frozen = store->Find(util::HashBytes128(page), "class");
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    EXPECT_EQ(frozen->project_attr, "class");

    // The frozen tree must equal the tree the serving runtime would build by
    // parsing + projecting — structure, labels and texts.
    auto doc = html::ParseHtml(page);
    ASSERT_TRUE(doc.ok());
    const tree::Tree expected = html::ProjectAttributeIntoLabels(*doc, "class");
    const tree::Tree got = frozen->MakeTree();
    EXPECT_TRUE(got.frozen());
    EXPECT_TRUE(tree::TreesEqual(expected, got));
    // And serialize identically (exercises text() views over the mapping).
    EXPECT_EQ(tree::ToXml(expected), tree::ToXml(got));
  }

  // The raw (unprojected) board page lives under attr "".
  const std::string board = BoardPage(7, 3, 3);
  auto frozen = store->Find(util::HashBytes128(board), "");
  ASSERT_TRUE(frozen.ok());
  auto doc = html::ParseHtml(board);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(tree::TreesEqual(doc->tree(), frozen->MakeTree()));

  // Same bytes, different projection: not the same document.
  EXPECT_EQ(store->Find(util::HashBytes128(board), "class").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(store->Find(util::HashBytes128("<p>absent</p>"), "").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CorpusStoreTest, DedupsAndReplacesByContentAndAttr) {
  store::CorpusStore::Builder b;
  const std::string page = CatalogPage(1, 6);
  ASSERT_TRUE(b.AddHtml(page, "").ok());
  ASSERT_TRUE(b.AddHtml(page, "").ok());      // same key: replaced, not added
  ASSERT_TRUE(b.AddHtml(page, "class").ok()); // different projection: added
  EXPECT_EQ(b.num_documents(), 2);

  const std::string path = TempPath("dedup.mdcs");
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 2);
}

TEST(CorpusStoreTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.mdcs");
  store::CorpusStore::Builder b;
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->size(), 0);
  EXPECT_EQ((*store)->Find({1, 2}, "").status().code(),
            util::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Typed rejection of bad files
// ---------------------------------------------------------------------------

TEST(CorpusStoreTest, RejectsGarbageAsInvalidArgument) {
  const std::string path = TempPath("garbage.mdcs");
  WriteFile(path, std::string(256, 'x'));
  auto store = store::CorpusStore::Open(path);
  EXPECT_EQ(store.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CorpusStoreTest, RejectsTruncationAsDataLoss) {
  const std::string path = TempPath("trunc.mdcs");
  BuildAndOpen(path, 1, "");
  const std::string bytes = ReadFile(path);

  // Sub-header truncation.
  WriteFile(path, bytes.substr(0, 10));
  EXPECT_EQ(store::CorpusStore::Open(path).status().code(),
            util::StatusCode::kDataLoss);
  // Tail truncation (file_size mismatch).
  WriteFile(path, bytes.substr(0, bytes.size() - 13));
  EXPECT_EQ(store::CorpusStore::Open(path).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(CorpusStoreTest, RejectsWrongVersionAsFailedPrecondition) {
  const std::string path = TempPath("version.mdcs");
  BuildAndOpen(path, 1, "");
  const std::string bytes = ReadFile(path);
  // 1: a snapshot from before the unary-EDB section was dropped.
  for (const char version : {1, 99}) {
    std::string patched = bytes;
    patched[4] = version;  // FileHeader::version
    WriteFile(path, patched);
    EXPECT_EQ(store::CorpusStore::Open(path).status().code(),
              util::StatusCode::kFailedPrecondition)
        << int{version};
  }
}

TEST(CorpusStoreTest, RejectsFlippedPayloadByteAsDataLoss) {
  const std::string path = TempPath("bitrot.mdcs");
  BuildAndOpen(path, 1, "");
  std::string bytes = ReadFile(path);
  // First doc blob sits right after the file header; flip one byte inside
  // its payload (past the doc header).
  const size_t victim =
      sizeof(store::FileHeader) + sizeof(store::DocHeader) + 8;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  WriteFile(path, bytes);

  // The file-level structure is intact, so Open succeeds...
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // ...but serving the damaged document reports DataLoss, never bad data.
  EXPECT_EQ((*store)->Get(0).status().code(), util::StatusCode::kDataLoss);
}

TEST(CorpusStoreTest, MissingFileIsInvalidArgument) {
  EXPECT_EQ(
      store::CorpusStore::Open(TempPath("never_written.mdcs")).status().code(),
      util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Runtime integration: snapshot-served == parse-served, all engines
// ---------------------------------------------------------------------------

TEST(CorpusStoreRuntimeTest, SnapshotServingIsByteIdenticalAcrossEngines) {
  const std::string path = TempPath("serving.mdcs");
  constexpr int32_t kPages = 6;
  std::vector<std::string> pages;
  store::CorpusStore::Builder b;
  for (int32_t i = 0; i < kPages; ++i) {
    pages.push_back(CatalogPage(500 + i, 6 + i));
    ASSERT_TRUE(b.AddHtml(pages.back(), "class").ok());
  }
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  using Engine = runtime::RuntimeOptions::EngineMode;
  for (Engine engine : {Engine::kNativeElog, Engine::kAuto}) {
    runtime::RuntimeOptions plain_opts;
    plain_opts.engine = engine;
    plain_opts.result_memo.byte_budget = 0;  // compare evaluations, not memo hits
    runtime::WrapperRuntime plain(plain_opts);

    runtime::RuntimeOptions stored_opts = plain_opts;
    stored_opts.corpus_store = *store;
    runtime::WrapperRuntime stored(stored_opts);

    auto plain_handle = plain.Register(CatalogWrapper(), "class");
    auto stored_handle = stored.Register(CatalogWrapper(), "class");
    ASSERT_TRUE(plain_handle.ok() && stored_handle.ok());

    for (const std::string& page : pages) {
      auto want = plain.Wrap(*plain_handle, page);
      auto got = stored.Wrap(*stored_handle, page);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(*want, *got);  // byte-identical extraction output
    }
    // Every page was served out of the snapshot, none was parsed.
    EXPECT_EQ(stored.stats().document_cache.store_hits, kPages);
    EXPECT_EQ(plain.stats().document_cache.store_hits, 0);
  }

  // The compiled semi-naive engine, from core, over each rehydrated tree,
  // against the parse-served wrapper output.
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  for (const std::string& page : pages) {
    auto want = rt.Wrap(*handle, page);
    auto frozen = (*store)->Find(util::HashBytes128(page), "class");
    ASSERT_TRUE(want.ok() && frozen.ok());
    const tree::Tree t = frozen->MakeTree();
    const core::TreeDatabase db(t);
    auto got = oracle::SemiNaiveXml(*handle->program, db, t);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*want, *got);
  }
}

TEST(CorpusStoreRuntimeTest, FallsBackToParsingOnStoreMiss) {
  const std::string path = TempPath("fallback.mdcs");
  store::CorpusStore::Builder b;
  ASSERT_TRUE(b.AddHtml(CatalogPage(1, 5), "class").ok());
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  runtime::RuntimeOptions opts;
  opts.corpus_store = *store;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  // Not in the store: parsed, still served correctly.
  const std::string cold = CatalogPage(999, 7);
  auto got = rt.Wrap(*handle, cold);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->find("<item>"), std::string::npos);
  EXPECT_EQ(rt.stats().document_cache.store_hits, 0);

  // In the store: served from the snapshot.
  auto warm = rt.Wrap(*handle, CatalogPage(1, 5));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(rt.stats().document_cache.store_hits, 1);
}

TEST(CorpusStoreRuntimeTest, ConcurrentReadersShareOneMapping) {
  const std::string path = TempPath("concurrent.mdcs");
  constexpr int32_t kPages = 4;
  std::vector<std::string> pages;
  store::CorpusStore::Builder b;
  for (int32_t i = 0; i < kPages; ++i) {
    pages.push_back(CatalogPage(700 + i, 10));
    ASSERT_TRUE(b.AddHtml(pages[i], "class").ok());
  }
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  // Many threads rehydrate and evaluate the same frozen documents with no
  // coordination beyond the store's immutability.
  const wrapper::Wrapper w = CatalogWrapper();
  std::vector<std::string> expected;
  for (const auto& page : pages) {
    auto doc = html::ParseHtml(page);
    ASSERT_TRUE(doc.ok());
    auto out =
        wrapper::WrapTree(w, html::ProjectAttributeIntoLabels(*doc, "class"));
    ASSERT_TRUE(out.ok());
    expected.push_back(tree::ToXml(*out));
  }

  constexpr int32_t kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int32_t> failures(kThreads, 0);
  for (int32_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int32_t round = 0; round < 3; ++round) {
        for (size_t pi = 0; pi < pages.size(); ++pi) {
          auto frozen =
              (*store)->Find(util::HashBytes128(pages[pi]), "class");
          if (!frozen.ok()) { ++failures[ti]; continue; }
          const tree::Tree t = frozen->MakeTree();
          core::TreeDatabase edb(t);
          (void)edb.Get("leaf", 1);
          auto out = wrapper::WrapTree(w, t);
          if (!out.ok() || tree::ToXml(*out) != expected[pi]) ++failures[ti];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int32_t f : failures) EXPECT_EQ(f, 0);
}

}  // namespace
