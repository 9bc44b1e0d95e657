// Example 3.2, reproduced end to end: the monadic datalog program selecting
// nodes whose subtree contains an even number of a-labeled nodes, evaluated
// on the paper's 4-node tree with the full T_P fixpoint trace printed —
// compare with the stages T⁰…T⁷ shown in the paper. The trace comes from the
// naive fixpoint of Definition 3.1 (the reference oracle in tests/support/);
// the library's Theorem 4.2 engine then runs the same query on a larger tree.

#include <cstdio>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/tree/generator.h"
#include "tests/support/reference_eval.h"

int main() {
  using namespace mdatalog;

  core::Program program = core::EvenAProgram();
  std::printf("Program (Example 3.2):\n%s\n", core::ToString(program).c_str());

  tree::Tree t = tree::PaperExample32Tree();
  std::printf("Tree: %s   (n1=0, n2=1, n3=2, n4=3)\n\n",
              tree::ToDebugString(t).c_str());

  core::TreeDatabase db(t);
  auto result = core::EvaluateNaiveReference(program, db);
  if (!result.ok()) {
    std::printf("evaluation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  for (size_t i = 0; i < result->stages().size(); ++i) {
    std::printf("T%zu adds: ", i + 1);
    const std::vector<core::ReferenceAtom>& stage = result->stages()[i];
    for (size_t j = 0; j < stage.size(); ++j) {
      const core::ReferenceAtom& g = stage[j];
      std::printf("%s%s(n%d)", j ? ", " : "",
                  program.preds().Name(g.pred).c_str(), g.args[0] + 1);
    }
    std::printf("\n");
  }

  std::printf("\nQuery c0 = { ");
  for (int32_t n : result->Query()) std::printf("n%d ", n + 1);
  std::printf("}  (paper: {n1})\n");

  // The same query through the Theorem 4.2 linear-time engine, on a larger
  // tree, with grounding statistics.
  tree::Tree big = tree::CompleteBinaryTree(10, "a");  // 2047 nodes
  core::GroundStats stats;
  auto grounded = core::EvaluateGrounded(program, big, &stats);
  if (!grounded.ok()) return 1;
  std::printf(
      "\nTheorem 4.2 engine on a %d-node tree: %lld rule instances fired, "
      "%lld atoms derived, %zu selected nodes\n",
      big.size(), static_cast<long long>(stats.num_clauses),
      static_cast<long long>(grounded->num_derived()),
      grounded->Query().size());
  return 0;
}
