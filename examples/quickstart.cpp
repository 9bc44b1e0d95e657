// Quickstart: parse an HTML page, inspect the paper's tree model, write a
// small Elog⁻ wrapper, and print the extraction result as XML.
//
// Covers: the τ_ur data model, the Figure 1 binary encoding, Elog⁻ parsing
// and evaluation, and the wrapper output construction of Section 6.

#include <cstdio>

#include "src/elog/ast.h"
#include "src/html/parser.h"
#include "src/tree/binary.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/wrapper/wrapper.h"

int main() {
  using namespace mdatalog;

  // 1. A Web page, as bytes.
  const char* page = R"(
    <html><body>
      <h1>Spring auctions</h1>
      <ul class=items>
        <li>Vintage camera <b>$120</b>
        <li>Mechanical keyboard <b>$45</b>
        <li>Antique clock <b>$310</b>
      </ul>
      <div class=footer>3 results</div>
    </body></html>)";

  // 2. Pre-parse into a document tree (the prerequisite of tree-based
  //    wrapping, Section 1), folding the class attribute into the labels
  //    (Remark 2.2): <ul class=items> becomes a node labeled "ul@items".
  auto doc = html::ParseTree(page, "class");
  if (!doc.ok()) {
    std::printf("parse failed: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::printf("document tree: %s\n\n", tree::ToDebugString(*doc).c_str());

  // 3. The Figure 1 view: every unranked tree *is* a binary tree through
  //    firstchild/nextsibling.
  tree::Tree fig1 = tree::PaperFigure1Tree();
  std::printf("Figure 1 tree %s encodes as:\n%s\n",
              tree::ToDebugString(fig1).c_str(),
              tree::ToDebugString(tree::EncodeFirstChildNextSibling(fig1))
                  .c_str());

  // 4. A two-pattern Elog⁻ wrapper: auction entries and their prices.
  auto program = elog::ParseElog(R"(
    entry(X) <- root(R), subelem(R, "body.ul@items.li", X).
    price(Y) <- entry(X), subelem(X, "b", Y).
  )");
  if (!program.ok()) {
    std::printf("wrapper error: %s\n", program.status().ToString().c_str());
    return 1;
  }

  // 5. Wrap: relabel the selected nodes, keep document order, drop the rest.
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"entry", "price"};
  auto xml = wrapper::WrapTree(w, *doc);
  if (!xml.ok()) {
    std::printf("wrap failed: %s\n", xml.status().ToString().c_str());
    return 1;
  }
  std::printf("extracted:\n%s", xml->c_str());
  return 0;
}
