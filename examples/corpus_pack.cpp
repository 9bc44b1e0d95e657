// corpus_pack: build, inspect and verify corpus-store snapshots (src/store).
//
//   corpus_pack pack <out.mdcs> [--attr=A] <page.html> [page2.html ...]
//       Parse each HTML file (projecting attribute A into the labels when
//       given, e.g. --attr=class) and snapshot the prepared documents.
//   corpus_pack demo <out.mdcs> [num_pages] [--pages=DIR]
//       Pack a synthetic product-catalog corpus (class-projected) — a
//       self-contained way to try the store without input files. With
//       --pages, also write each page as DIR/page<i>.html, for verify.
//   corpus_pack info <store.mdcs>
//       Open (mmap) a store and print its header, per-document stats.
//   corpus_pack verify <store.mdcs> <page.html> [--attr=A]
//       End-to-end check: the snapshot of the page must rehydrate to a tree
//       identical to freshly parsing it. Exits 1 when the store does not
//       hold the page or the trees differ.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/store/corpus_store.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"

namespace {

using namespace mdatalog;

int Usage() {
  std::fprintf(stderr,
               "usage: corpus_pack pack <out.mdcs> [--attr=A] <page.html>...\n"
               "       corpus_pack demo <out.mdcs> [num_pages] "
               "[--pages=DIR]\n"
               "       corpus_pack info <store.mdcs>\n"
               "       corpus_pack verify <store.mdcs> <page.html> "
               "[--attr=A]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

int Pack(const std::string& out_path, const std::string& attr,
         const std::vector<std::string>& files) {
  store::CorpusStore::Builder builder;
  for (const std::string& file : files) {
    std::string html;
    if (!ReadFile(file, &html)) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 1;
    }
    util::Status st = builder.AddHtml(html, attr);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("packed %-40s (%zu bytes of HTML)\n", file.c_str(),
                html.size());
  }
  util::Status st = builder.Save(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld documents, %lld packed bytes\n",
              out_path.c_str(),
              static_cast<long long>(builder.num_documents()),
              static_cast<long long>(builder.packed_bytes()));
  return 0;
}

int Demo(const std::string& out_path, int32_t num_pages,
         const std::string& pages_dir) {
  store::CorpusStore::Builder builder;
  for (int32_t i = 0; i < num_pages; ++i) {
    util::Rng rng(1000 + i);
    html::CatalogOptions opts;
    opts.num_items = 10 + i % 20;
    opts.with_ads = (i % 3 == 0);
    const std::string page = html::ProductCatalogPage(rng, opts);
    util::Status st = builder.AddHtml(page, "class");
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (!pages_dir.empty()) {
      const std::string path =
          pages_dir + "/page" + std::to_string(i) + ".html";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << page;
      if (!out.flush()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }
  util::Status st = builder.Save(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld synthetic catalog pages (attr=class), "
              "%lld packed bytes\n",
              out_path.c_str(),
              static_cast<long long>(builder.num_documents()),
              static_cast<long long>(builder.packed_bytes()));
  return 0;
}

int Info(const std::string& path) {
  auto store = store::CorpusStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %lld documents, %lld bytes mapped\n", path.c_str(),
              static_cast<long long>((*store)->size()),
              static_cast<long long>((*store)->mapped_bytes()));
  for (int64_t i = 0; i < (*store)->size(); ++i) {
    auto doc = (*store)->Get(i);
    if (!doc.ok()) {
      std::printf("  [%3lld] %s\n", static_cast<long long>(i),
                  doc.status().ToString().c_str());
      continue;
    }
    std::printf("  [%3lld] hash=%016llx%016llx nodes=%d labels=%d attr=%.*s\n",
                static_cast<long long>(i),
                static_cast<unsigned long long>(doc->content_hash.hi),
                static_cast<unsigned long long>(doc->content_hash.lo),
                doc->view.num_nodes, doc->num_labels,
                static_cast<int>(doc->project_attr.size()),
                doc->project_attr.data());
  }
  return 0;
}

int Verify(const std::string& store_path, const std::string& page_path,
           const std::string& attr) {
  std::string html;
  if (!ReadFile(page_path, &html)) {
    std::fprintf(stderr, "cannot read %s\n", page_path.c_str());
    return 1;
  }
  auto store = store::CorpusStore::Open(store_path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  auto frozen = (*store)->Find(html, attr);
  if (!frozen.ok()) {
    std::fprintf(stderr, "%s\n", frozen.status().ToString().c_str());
    return 1;
  }
  auto expected = html::ParseTree(html, attr);
  if (!expected.ok()) {
    std::fprintf(stderr, "%s\n", expected.status().ToString().c_str());
    return 1;
  }
  if (!tree::TreesEqual(*expected, frozen->MakeTree())) {
    std::fprintf(stderr, "MISMATCH: snapshot differs from a fresh parse\n");
    return 1;
  }
  std::printf("ok: snapshot is identical to a fresh parse (%d nodes)\n",
              expected->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];

  std::string attr;
  std::string pages_dir;
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--attr=", 7) == 0) {
      attr = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--pages=", 8) == 0) {
      pages_dir = argv[i] + 8;
    } else {
      rest.emplace_back(argv[i]);
    }
  }

  if (cmd == "pack" && rest.size() >= 2) {
    return Pack(rest[0], attr, {rest.begin() + 1, rest.end()});
  }
  if (cmd == "demo" && !rest.empty()) {
    const int32_t n = rest.size() > 1 ? std::atoi(rest[1].c_str()) : 25;
    return Demo(rest[0], n, pages_dir);
  }
  if (cmd == "info" && rest.size() == 1) return Info(rest[0]);
  if (cmd == "verify" && rest.size() == 2) return Verify(rest[0], rest[1], attr);
  return Usage();
}
