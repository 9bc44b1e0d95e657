// TMNF (Section 5): the Figure 3-style acyclicity chase and the full
// Theorem 5.2 pipeline, with a semantic equivalence check.

#include <cstdio>

#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/tmnf/acyclic.h"
#include "src/tmnf/normal_form.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

int main() {
  using namespace mdatalog;

  // A Figure 3-flavored rule: two parents of a sibling chain that the chase
  // must merge, child atoms to replace by firstchild + nextsibling*.
  const char* text =
      "q(X1) :- firstchild(X1, X5), child(X3, X6), nextsibling(X5, X6), "
      "child(X1, X7), nextsibling(X6, X7), label_a(X7).";
  auto program = core::ParseProgramWithQuery(text, "q");
  if (!program.ok()) return 1;
  std::printf("input rule:\n  %s\n\n",
              core::ToString(*program, program->rules()[0]).c_str());

  auto chased = tmnf::MakeRuleAcyclicUnranked(&*program, program->rules()[0]);
  if (!chased.ok()) return 1;
  std::printf("after the Lemma 5.5 chase (%d variable merges):\n  %s\n\n",
              chased->merged_vars,
              core::ToString(*program, chased->rule).c_str());

  tmnf::TmnfStats stats;
  auto tmnf_program = tmnf::ToTmnf(*program, &stats);
  if (!tmnf_program.ok()) {
    std::printf("pipeline failed: %s\n",
                tmnf_program.status().ToString().c_str());
    return 1;
  }
  std::printf("Theorem 5.2 pipeline: %d input rule(s) -> %d TMNF rules "
              "(checker: %s)\n\nTMNF program:\n%s\n",
              stats.input_rules, stats.output_rules,
              tmnf::IsTmnf(*tmnf_program) ? "pass" : "FAIL",
              core::ToString(*tmnf_program).c_str());

  // Equivalence spot check.
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    tree::Tree t = tree::RandomTree(rng, 30, {"a", "b"});
    auto lhs = core::EvaluateOnTree(*program, t);
    auto rhs = core::EvaluateGrounded(*tmnf_program, t);
    if (!lhs.ok() || !rhs.ok() || lhs->Query() != rhs->Query()) {
      std::printf("MISMATCH on trial %d\n", trial);
      return 1;
    }
  }
  std::printf("semantic equivalence on 5 random trees: pass\n");
  return 0;
}
