// The corpus store: pack → save → mmap-open → serve must be byte-identical
// to parsing, corrupt bytes must surface as typed errors (never as wrong
// answers or crashes), and a store-backed runtime must produce exactly the
// XML a parse-every-time runtime produces — under every engine mode.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
#include "tests/support/edb.h"
#include "tests/support/fixtures.h"

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
  // Single-document snapshot files under a fixed builder key, digested. The
  // tree content (label order, no leftover "#document" symbol) is pinned
  // since before the in-place scanner replaced the token-vector parser; the
  // digests are of format version 3, whose files are the version 2 files
  // with the hash key added to the file header, the content hashes taken
  // under that key and the checksums under the new hash.
  const util::SipHashKey kPinKey{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
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
      0x1dfdad71f9a52e2eull, 0xb50c1bc92c8d3811ull, 0xb322904edc73c2aaull,
      0x90ec8e8534e11ff2ull, 0xc04acccfe0737ce3ull, 0xdb2f70ea6dc386eeull,
      0xd90a66dfe7302e66ull, 0x253da549f7bde873ull, 0xa24f052712f00201ull,
      0xdcb195340c73be87ull, 0xbe8f7170e5903ccaull, 0x98db8f91d242d227ull,
      0x1ed09ebebb5f0e44ull, 0x9f04989ca69a4327ull, 0xbf636b1622bd8936ull,
      0x930313a228c7e0c6ull, 0xb2990f9700f6cfd8ull, 0xdf51574445beff8dull,
      0x7f2db7c7164ab2a5ull, 0x9b26d89a7e6d631aull, 0xbe8d9e594232f913ull,
      0xf291c0c25a465bfaull, 0xaa9691e21970bca5ull, 0x187f54ac07aafea5ull,
      0xbe598be263b003ecull, 0xa221334443528343ull, 0xdca6e6e51b21f381ull,
      0x96e8bbf9917c86fbull, 0x790cbce92f46c50eull, 0xee1b0c116065b099ull,
      0xb61c4ada4ddcde6eull, 0xfe727795d9de0f2full, 0x63538d75c0da3fe7ull,
  };
  ASSERT_EQ(pages.size(), expected.size());
  const std::string path = TempPath("pinned.mdcs");
  for (size_t i = 0; i < pages.size(); ++i) {
    store::CorpusStore::Builder b(kPinKey);
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
    auto frozen = store->Find(page, "class");
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
  auto frozen = store->Find(board, "");
  ASSERT_TRUE(frozen.ok());
  auto doc = html::ParseHtml(board);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(tree::TreesEqual(doc->tree(), frozen->MakeTree()));

  // Same bytes, different projection: not the same document.
  EXPECT_EQ(store->Find(board, "class").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(store->Find("<p>absent</p>", "").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CorpusStoreTest, SnapshotsUnderDifferentKeysServeIdenticalTrees) {
  const util::SipHashKey keys[] = {{1, 2}, {0x9e3779b97f4a7c15ULL, 3}};
  std::vector<std::string> pages;
  for (int32_t i = 0; i < 4; ++i) pages.push_back(CatalogPage(300 + i, 6 + i));
  pages.push_back(BoardPage(8, 3, 2));
  std::vector<std::shared_ptr<const store::CorpusStore>> stores;
  std::vector<std::string> files;
  for (size_t k = 0; k < std::size(keys); ++k) {
    store::CorpusStore::Builder b(keys[k]);
    for (const std::string& page : pages) {
      ASSERT_TRUE(b.AddHtml(page, "class").ok());
    }
    const std::string path = TempPath(k == 0 ? "key_a.mdcs" : "key_b.mdcs");
    ASSERT_TRUE(b.Save(path).ok());
    files.push_back(ReadFile(path));
    auto store = store::CorpusStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    stores.push_back(*store);
  }
  EXPECT_EQ(files[0].size(), files[1].size());
  EXPECT_NE(files[0], files[1]);  // the key and every content hash differ
  for (const std::string& page : pages) {
    auto a = stores[0]->Find(page, "class");
    auto b = stores[1]->Find(page, "class");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NE(a->content_hash, b->content_hash);
    const tree::Tree ta = a->MakeTree();
    const tree::Tree tb = b->MakeTree();
    EXPECT_TRUE(tree::TreesEqual(ta, tb));
    EXPECT_EQ(tree::ToXml(ta), tree::ToXml(tb));
  }
}

TEST(CorpusStoreTest, PageWhoseBytesAreAbsentIsNotFound) {
  // Find hashes the bytes it is given, so a page is served only for exactly
  // the bytes it was packed under — not for a one-byte edit, an extension
  // by zero bytes, or other bytes that parse to the same tree.
  const std::string page = CatalogPage(42, 6);
  const std::string path = TempPath("absent.mdcs");
  store::CorpusStore::Builder b;
  ASSERT_TRUE(b.AddHtml(page, "class").ok());
  auto tree = html::ParseTree(page, "class");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(b.AddTree(*tree, "an opaque document id", "class").ok());
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  EXPECT_TRUE((*store)->Find(page, "class").ok());
  EXPECT_TRUE((*store)->Find("an opaque document id", "class").ok());
  std::string edited = page;
  edited[edited.size() / 2] ^= 1;
  for (const std::string& absent :
       {edited, page + std::string(1, '\0'), page + " ",
        page.substr(0, page.size() - 1), std::string("an opaque document"),
        std::string()}) {
    EXPECT_EQ((*store)->Find(absent, "class").status().code(),
              util::StatusCode::kNotFound)
        << absent.size();
  }
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
  EXPECT_EQ((*store)->Find("<p>x</p>", "").status().code(),
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
  // 1: a snapshot from before the unary-EDB section was dropped; 2: one
  // whose content hashes and checksums are the unkeyed byte-at-a-time hash.
  for (const char version : {1, 2, 99}) {
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

// The payload checksum's key is public, so anyone can edit a blob and
// recompute its checksum. Such a forged snapshot must still be refused with
// kDataLoss, never abort or read out of bounds.

/// Overwrites entry `node` of node column `column` (Tree::Columns order:
/// parent, first_child, last_child, prev_sibling, next_sibling, label).
void SetColumn(const store::DocHeader& h, unsigned char* blob, int32_t column,
               int32_t node, int32_t value) {
  std::memcpy(blob + h.off_nodes +
                  (size_t{static_cast<uint32_t>(column)} * h.num_nodes +
                   static_cast<uint32_t>(node)) *
                      sizeof(int32_t),
              &value, sizeof(value));
}

uint32_t GetOffset(const unsigned char* section, uint32_t i) {
  uint32_t v;
  std::memcpy(&v, section + i * sizeof(uint32_t), sizeof(v));
  return v;
}

void SetOffset(unsigned char* section, uint32_t i, uint32_t v) {
  std::memcpy(section + i * sizeof(uint32_t), &v, sizeof(v));
}

using Forge = std::function<void(const store::DocHeader&, unsigned char*)>;

/// Saves `page` as the only document of a snapshot at `path`, lets `forge`
/// edit its blob, and recomputes the payload checksum over the edit.
void WriteForgedSnapshot(const std::string& path, const std::string& page,
                         const Forge& forge) {
  store::CorpusStore::Builder b;
  ASSERT_TRUE(b.AddHtml(page, "class").ok());
  ASSERT_TRUE(b.Save(path).ok());
  std::string bytes = ReadFile(path);
  // The only blob sits right after the file header.
  unsigned char* blob = reinterpret_cast<unsigned char*>(bytes.data()) +
                        sizeof(store::FileHeader);
  store::DocHeader h;
  std::memcpy(&h, blob, sizeof(h));
  forge(h, blob);
  h.payload_checksum = store::Checksum64(blob + sizeof(h),
                                         h.blob_size - sizeof(h));
  std::memcpy(blob, &h, sizeof(h));
  WriteFile(path, bytes);
}

TEST(CorpusStoreTest, ForgedColumnsAreDataLoss) {
  const std::string page = CatalogPage(100, 8);
  const std::string path = TempPath("forged.mdcs");

  // Re-checksumming an untouched blob keeps it servable.
  WriteForgedSnapshot(path, page,
                      [](const store::DocHeader&, unsigned char*) {});
  {
    auto store = store::CorpusStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Get(0).ok());
    ASSERT_TRUE((*store)->Find(page, "class").ok());
  }

  const std::pair<const char*, Forge> forgeries[] = {
      {"root label id 2^28",
       [](const store::DocHeader& h, unsigned char* blob) {
         SetColumn(h, blob, 5, 0, 1 << 28);
       }},
      {"first_child[0] = 2^28",
       [](const store::DocHeader& h, unsigned char* blob) {
         SetColumn(h, blob, 1, 0, 1 << 28);
       }},
      {"text offset past the text bytes",
       [](const store::DocHeader& h, unsigned char* blob) {
         ASSERT_NE(h.off_texts, 0u);
         unsigned char* texts = blob + h.off_texts;
         SetOffset(texts, 1, GetOffset(texts, h.num_nodes) + 4096);
       }},
      {"parent after its child",
       [](const store::DocHeader& h, unsigned char* blob) {
         SetColumn(h, blob, 0, 1, static_cast<int32_t>(h.num_nodes) - 1);
       }},
      {"sibling cycle",
       [](const store::DocHeader& h, unsigned char* blob) {
         SetColumn(h, blob, 4, 1, 1);
       }},
      {"two labels with one name",
       [](const store::DocHeader& h, unsigned char* blob) {
         unsigned char* offs = blob + h.off_labels;
         unsigned char* bytes = offs + (h.num_labels + 1) * sizeof(uint32_t);
         const auto size = [&](uint32_t id) {
           return GetOffset(offs, id + 1) - GetOffset(offs, id);
         };
         for (uint32_t i = 0; i < h.num_labels; ++i) {
           for (uint32_t j = i + 1; j < h.num_labels; ++j) {
             if (size(i) != size(j)) continue;
             std::memcpy(bytes + GetOffset(offs, j),
                         bytes + GetOffset(offs, i), size(i));
             return;
           }
         }
         FAIL() << "no two labels of equal length";
       }},
  };
  for (const auto& [name, forge] : forgeries) {
    WriteForgedSnapshot(path, page, forge);
    auto store = store::CorpusStore::Open(path);
    ASSERT_TRUE(store.ok()) << name << ": " << store.status().ToString();
    EXPECT_EQ((*store)->Get(0).status().code(), util::StatusCode::kDataLoss)
        << name;
    EXPECT_EQ((*store)->Find(page, "class").status().code(),
              util::StatusCode::kDataLoss)
        << name;
  }
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

  // The reference oracle over each rehydrated tree, against the
  // parse-served wrapper output.
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  for (const std::string& page : pages) {
    auto want = rt.Wrap(*handle, page);
    auto frozen = (*store)->Find(page, "class");
    ASSERT_TRUE(want.ok() && frozen.ok());
    const tree::Tree t = frozen->MakeTree();
    const core::TreeDatabase db(t);
    auto got = oracle::ReferenceXml(*handle->program, db, t);
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
    auto t = html::ParseTree(page, "class");
    ASSERT_TRUE(t.ok());
    auto out = oracle::NativeXml(w, *t);
    ASSERT_TRUE(out.ok());
    expected.push_back(*out);
  }

  constexpr int32_t kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int32_t> failures(kThreads, 0);
  for (int32_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int32_t round = 0; round < 3; ++round) {
        for (size_t pi = 0; pi < pages.size(); ++pi) {
          auto frozen = (*store)->Find(pages[pi], "class");
          if (!frozen.ok()) { ++failures[ti]; continue; }
          const tree::Tree t = frozen->MakeTree();
          core::TreeDatabase edb(t);
          (void)edb.Get("leaf", 1);
          auto out = wrapper::WrapTree(w, t);
          if (!out.ok() || *out != expected[pi]) ++failures[ti];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int32_t f : failures) EXPECT_EQ(f, 0);
}

}  // namespace
