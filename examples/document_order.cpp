// Example 2.5: the document order relation ≺ as a caterpillar expression,
// checked against the preorder ranks, plus the Lemma 5.9 compilation of a
// caterpillar into monadic datalog (Example 5.10).

#include <cstdio>

#include "src/caterpillar/eval.h"
#include "src/caterpillar/expr.h"
#include "src/caterpillar/to_datalog.h"
#include "src/core/grounder.h"
#include "src/tree/generator.h"

int main() {
  using namespace mdatalog;

  caterpillar::ExprPtr order = caterpillar::DocumentOrderExpr();
  std::printf("document order (Example 2.5):\n  %s\n\n",
              caterpillar::ToString(order).c_str());

  tree::Tree t = tree::PaperFigure1Tree();
  std::printf("on the Figure 1 tree %s:\n", tree::ToDebugString(t).c_str());
  auto rel = caterpillar::EvalRelationReference(t, order);
  if (!rel.ok()) return 1;
  std::printf("  |[[<]]| = %zu pairs; chain: ", rel->size());
  // Nodes sorted by how many nodes precede them.
  std::vector<int32_t> before(t.size(), 0);
  for (const auto& [x, y] : *rel) before[y]++;
  for (int32_t k = 0; k < t.size(); ++k) {
    for (tree::NodeId n = 0; n < t.size(); ++n) {
      if (before[n] == k) std::printf("n%d%s", n + 1, k + 1 < t.size() ? " < " : "\n");
    }
  }

  // Example 5.10: p.child in monadic datalog, via the NFA of Lemma 5.9.
  core::Program program;
  core::PredId p = program.preds().MustIntern("p", 1);
  core::PredId label_a = program.preds().MustIntern("label_a", 1);
  program.AddRule(core::MakeRule(
      core::MakeAtom(p, {core::Term::Var(0)}),
      {core::MakeAtom(label_a, {core::Term::Var(0)})}, {"x"}));
  auto result_pred = caterpillar::AppendCaterpillarRules(
      &program, p, caterpillar::Rel("child"), "pchild");
  if (!result_pred.ok()) return 1;
  program.set_query_pred(*result_pred);
  std::printf("\nLemma 5.9 program for p.child (p = a-labeled nodes):\n%s\n",
              core::ToString(program).c_str());
  auto eval = core::EvaluateGrounded(program, t);
  if (!eval.ok()) return 1;
  std::printf("p.child on the Figure 1 tree = { ");
  for (int32_t n : eval->Query()) std::printf("n%d ", n + 1);
  std::printf("} (all non-root nodes: every node is labeled a)\n");
  return 0;
}
