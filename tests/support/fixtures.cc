#include "tests/support/fixtures.h"

#include <functional>

#include "src/util/check.h"

namespace mdatalog::core {

Program EvenDepthLeafProgram() {
  Program p;
  PredicateTable& preds = p.preds();
  PredId even = preds.MustIntern("even", 1);
  PredId odd = preds.MustIntern("odd", 1);
  PredId evenleaf = preds.MustIntern("evenleaf", 1);
  PredId root = preds.MustIntern("root", 1);
  PredId leaf = preds.MustIntern("leaf", 1);
  PredId firstchild = preds.MustIntern("firstchild", 2);
  PredId nextsibling = preds.MustIntern("nextsibling", 2);
  Term x = Term::Var(0), y = Term::Var(1);
  p.AddRule(MakeRule(MakeAtom(even, {x}), {MakeAtom(root, {x})}, {"x"}));
  // Depth changes through firstchild, is preserved through nextsibling.
  p.AddRule(MakeRule(MakeAtom(odd, {y}),
                     {MakeAtom(even, {x}), MakeAtom(firstchild, {x, y})},
                     {"x", "y"}));
  p.AddRule(MakeRule(MakeAtom(even, {y}),
                     {MakeAtom(odd, {x}), MakeAtom(firstchild, {x, y})},
                     {"x", "y"}));
  p.AddRule(MakeRule(MakeAtom(even, {y}),
                     {MakeAtom(even, {x}), MakeAtom(nextsibling, {x, y})},
                     {"x", "y"}));
  p.AddRule(MakeRule(MakeAtom(odd, {y}),
                     {MakeAtom(odd, {x}), MakeAtom(nextsibling, {x, y})},
                     {"x", "y"}));
  p.AddRule(MakeRule(MakeAtom(evenleaf, {x}),
                     {MakeAtom(even, {x}), MakeAtom(leaf, {x})}, {"x"}));
  p.set_query_pred(evenleaf);
  return p;
}

Program DomProgram() {
  Program p;
  PredicateTable& preds = p.preds();
  PredId dom = preds.MustIntern("dom", 1);
  PredId root = preds.MustIntern("root", 1);
  PredId firstchild = preds.MustIntern("firstchild", 2);
  PredId nextsibling = preds.MustIntern("nextsibling", 2);
  Term x = Term::Var(0), y = Term::Var(1);
  p.AddRule(MakeRule(MakeAtom(dom, {x}), {MakeAtom(root, {x})}, {"x"}));
  p.AddRule(MakeRule(MakeAtom(dom, {y}),
                     {MakeAtom(dom, {x}), MakeAtom(firstchild, {x, y})},
                     {"x", "y"}));
  p.AddRule(MakeRule(MakeAtom(dom, {y}),
                     {MakeAtom(dom, {x}), MakeAtom(nextsibling, {x, y})},
                     {"x", "y"}));
  p.set_query_pred(dom);
  return p;
}

}  // namespace mdatalog::core

namespace mdatalog::html {

std::string NestedBoardPage(util::Rng& rng, int32_t depth, int32_t fanout) {
  MD_CHECK(depth >= 0 && fanout >= 1);
  std::string out =
      "<html><body><h1>Forum</h1><ul class=thread>";
  int32_t counter = 0;
  std::function<void(int32_t)> emit = [&](int32_t d) {
    int32_t replies = 1 + static_cast<int32_t>(rng.Below(fanout));
    for (int32_t i = 0; i < replies; ++i) {
      out += "<li><span class=post>post " + std::to_string(++counter) +
             "</span>";
      if (d > 0) {
        out += "<ul class=replies>";
        emit(d - 1);
        out += "</ul>";
      }
      out += "</li>";
    }
  };
  emit(depth);
  out += "</ul></body></html>";
  return out;
}

}  // namespace mdatalog::html
