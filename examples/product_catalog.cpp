// The Lixto scenario (Section 6.2): wrap an eBay-style product catalog.
// The wrapper is specified "visually" — by clicking nodes of an example
// page — then hardened against layout noise (ad rows, skeleton changes) and
// run on pages it has never seen.

#include <cstdio>
#include <string>
#include <string_view>

#include "src/elog/ast.h"
#include "src/elog/visual.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

mdatalog::tree::Tree LoadCatalog(uint64_t seed,
                                 const mdatalog::html::CatalogOptions& opts) {
  mdatalog::util::Rng rng(seed);
  // Remark 2.2: fold the class attribute into the labels so the wrapper can
  // address "tr@item" / "td@price" nodes.
  return *mdatalog::html::ParseTree(
      mdatalog::html::ProductCatalogPage(rng, opts), "class");
}

/// The number of top-level `element`s in wrapper output XML: the lines that
/// open one at the first indentation level below <result>.
int CountTopLevel(std::string_view xml, const std::string& element) {
  const std::string line = "\n  <" + element + ">";
  int count = 0;
  for (size_t at = xml.find(line); at != std::string_view::npos;
       at = xml.find(line, at + line.size())) {
    ++count;
  }
  return count;
}

}  // namespace

int main() {
  using namespace mdatalog;

  // --- the example document the user works on -----------------------------
  html::CatalogOptions opts;
  opts.num_items = 4;
  tree::Tree example = LoadCatalog(1, opts);

  // --- visual specification ------------------------------------------------
  elog::VisualSession session(example);
  // Click an item row.
  tree::NodeId item_row = tree::kNoNode;
  for (tree::NodeId n = 0; n < example.size(); ++n) {
    if (example.label_name(n) == "tr@item") {
      item_row = n;
      break;
    }
  }
  auto item_rule =
      session.SelectNode("item", "root", example.root(), item_row);
  if (!item_rule.ok()) return 1;
  std::printf("rule from the first click:\n  %s\n",
              elog::ToString(session.program().rules()[*item_rule]).c_str());

  // Click the price cell inside the first item.
  auto items = session.MatchesOf("item");
  tree::NodeId price_cell = tree::kNoNode;
  for (tree::NodeId c = example.first_child((*items)[0]); c != tree::kNoNode;
       c = example.next_sibling(c)) {
    if (example.label_name(c) == "td@price") price_cell = c;
  }
  (void)session.SelectNode("price", "item", (*items)[0], price_cell);
  (void)session.SelectNode("name", "item", (*items)[0],
                           example.first_child((*items)[0]));
  std::printf("patterns after three clicks: ");
  for (const auto& p : session.Patterns()) std::printf("%s ", p.c_str());
  std::printf("\n\n");

  // --- hardening: the recursive any-depth idiom ----------------------------
  // The clicked path pins the page skeleton. The robust form descends to
  // item rows at any depth and is immune to added wrapper divs and ad rows
  // (ad rows are tr@ad, never tr@item).
  auto robust = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    name(Y)  <- item(X), subelem(X, "td@name", Y).
    price(Y) <- item(X), subelem(X, "td@price", Y).
    seller(Y) <- item(X), subelem(X, "td@seller", Y).
  )");
  if (!robust.ok()) return 1;

  wrapper::Wrapper w;
  w.program = *robust;
  w.extraction_patterns = {"item", "name", "price", "seller"};

  // --- run on three pages the wrapper has never seen ----------------------
  struct Scenario {
    const char* what;
    html::CatalogOptions opts;
    uint64_t seed;
  } scenarios[] = {
      {"plain page, 6 items", {.num_items = 6}, 11},
      {"with ad rows", {.num_items = 6, .with_ads = true}, 12},
      {"alternative layout", {.num_items = 6, .with_ads = true,
                              .alt_layout = true}, 13},
  };
  for (const Scenario& s : scenarios) {
    tree::Tree page = LoadCatalog(s.seed, s.opts);
    auto xml = wrapper::WrapTree(w, page);
    if (!xml.ok()) return 1;
    std::printf("%-24s -> %d items extracted\n", s.what,
                CountTopLevel(*xml, "item"));
  }

  // Show one full result.
  tree::Tree page = LoadCatalog(11, {.num_items = 2});
  auto xml = wrapper::WrapTree(w, page);
  if (!xml.ok()) return 1;
  std::printf("\nsample output:\n%s", xml->c_str());
  return 0;
}
