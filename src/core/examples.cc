#include "src/core/examples.h"

#include "src/core/tree_schema.h"
#include "src/util/check.h"

namespace mdatalog::core {

Program EvenAProgram(const std::vector<std::string>& other_labels) {
  Program p;
  PredicateTable& preds = p.preds();
  PredId b[2] = {preds.MustIntern("b0", 1), preds.MustIntern("b1", 1)};
  PredId c[2] = {preds.MustIntern("c0", 1), preds.MustIntern("c1", 1)};
  PredId r[2] = {preds.MustIntern("r0", 1), preds.MustIntern("r1", 1)};
  PredId leaf = preds.MustIntern("leaf", 1);
  PredId firstchild = preds.MustIntern("firstchild", 2);
  PredId nextsibling = preds.MustIntern("nextsibling", 2);
  PredId lastsibling = preds.MustIntern("lastsibling", 1);
  PredId label_a = preds.MustIntern(LabelPredName("a"), 1);

  Term x = Term::Var(0), x0 = Term::Var(0), x1 = Term::Var(1);

  // (1)  b0(x) ← leaf(x).
  p.AddRule(MakeRule(MakeAtom(b[0], {x}), {MakeAtom(leaf, {x})}, {"x"}));
  for (int i = 0; i < 2; ++i) {
    // (2)  b_i(x0) ← firstchild(x0, x), r_i(x).
    p.AddRule(MakeRule(MakeAtom(b[i], {x0}),
                       {MakeAtom(firstchild, {x0, x1}), MakeAtom(r[i], {x1})},
                       {"x0", "x"}));
    // (3)  c_{(i+1) mod 2}(x) ← b_i(x), label_a(x).
    p.AddRule(MakeRule(MakeAtom(c[(i + 1) % 2], {x}),
                       {MakeAtom(b[i], {x}), MakeAtom(label_a, {x})}, {"x"}));
    // (4)  c_i(x) ← b_i(x), label_l(x).   for l ∈ Σ − {a}
    for (const std::string& l : other_labels) {
      MD_CHECK(l != "a");
      PredId label_l = preds.MustIntern(LabelPredName(l), 1);
      p.AddRule(MakeRule(MakeAtom(c[i], {x}),
                         {MakeAtom(b[i], {x}), MakeAtom(label_l, {x})},
                         {"x"}));
    }
    // (5)  r_i(x) ← lastsibling(x), c_i(x).
    p.AddRule(MakeRule(MakeAtom(r[i], {x}),
                       {MakeAtom(lastsibling, {x}), MakeAtom(c[i], {x})},
                       {"x"}));
    // (6)  r_{(i+j) mod 2}(x0) ← c_j(x0), nextsibling(x0, x), r_i(x).
    for (int j = 0; j < 2; ++j) {
      p.AddRule(MakeRule(
          MakeAtom(r[(i + j) % 2], {x0}),
          {MakeAtom(c[j], {x0}), MakeAtom(nextsibling, {x0, x1}),
           MakeAtom(r[i], {x1})},
          {"x0", "x"}));
    }
  }
  p.set_query_pred(c[0]);
  return p;
}

Program HasAncestorProgram(const std::string& label) {
  Program p;
  PredicateTable& preds = p.preds();
  PredId q = preds.MustIntern("hasanc", 1);
  PredId label_l = preds.MustIntern(LabelPredName(label), 1);
  PredId firstchild = preds.MustIntern("firstchild", 2);
  PredId nextsibling = preds.MustIntern("nextsibling", 2);
  Term x = Term::Var(0), y = Term::Var(1);
  // hasanc(y) ← label_l(x), firstchild(x, y).
  p.AddRule(MakeRule(MakeAtom(q, {y}),
                     {MakeAtom(label_l, {x}), MakeAtom(firstchild, {x, y})},
                     {"x", "y"}));
  // hasanc(y) ← hasanc(x), firstchild(x, y).
  p.AddRule(MakeRule(MakeAtom(q, {y}),
                     {MakeAtom(q, {x}), MakeAtom(firstchild, {x, y})},
                     {"x", "y"}));
  // hasanc(y) ← hasanc(x), nextsibling(x, y).
  p.AddRule(MakeRule(MakeAtom(q, {y}),
                     {MakeAtom(q, {x}), MakeAtom(nextsibling, {x, y})},
                     {"x", "y"}));
  p.set_query_pred(q);
  return p;
}

Program ChainProgram(int32_t m) {
  MD_CHECK(m >= 1);
  Program p;
  PredicateTable& preds = p.preds();
  PredId root = preds.MustIntern("root", 1);
  Term x = Term::Var(0);
  PredId prev = preds.MustIntern("p0", 1);
  p.AddRule(MakeRule(MakeAtom(prev, {x}), {MakeAtom(root, {x})}, {"x"}));
  for (int32_t i = 1; i <= m; ++i) {
    PredId next =
        preds.MustIntern(std::string("p").append(std::to_string(i)), 1);
    p.AddRule(MakeRule(MakeAtom(next, {x}), {MakeAtom(prev, {x})}, {"x"}));
    prev = next;
  }
  p.set_query_pred(prev);
  return p;
}

}  // namespace mdatalog::core
