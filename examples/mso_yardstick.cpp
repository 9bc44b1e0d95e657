// The MSO yardstick (Theorem 4.4 / Corollary 4.17): one unary MSO query,
// evaluated three ways — by the reference semantics, by the compiled tree
// automaton, and by the monadic datalog program generated from it — all
// agreeing, with the datalog route running on the linear Theorem 4.2 engine.

#include <cstdio>

#include "src/core/grounder.h"
#include "src/mso/compile.h"
#include "src/mso/formula.h"
#include "src/mso/to_datalog.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

int main() {
  using namespace mdatalog;

  // φ(x): x has a b-labeled next sibling but is not itself a leaf.
  const char* text = "exists y. (nextsibling(x, y) & label_b(y)) & ~(leaf(x))";
  auto formula = mso::ParseFormula(text);
  if (!formula.ok()) return 1;
  std::printf("phi(x) = %s\n", mso::ToString(*formula).c_str());
  std::printf("quantifier rank: %d\n\n", mso::QuantifierRank(*formula));

  mso::MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = mso::CompileUnaryQuery(*formula, "x", opts);
  if (!bta.ok()) {
    std::printf("compile failed: %s\n", bta.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled automaton: %d states, %zu transitions\n",
              bta->num_states, bta->delta.size());

  auto program = mso::BtaToDatalog(*bta, opts.alphabet);
  if (!program.ok()) return 1;
  std::printf("generated datalog: %zu rules (over tau_ur, groundable: %s)\n\n",
              program->rules().size(),
              core::GroundableOverTree(*program) ? "yes" : "no");

  util::Rng rng(7);
  tree::Tree t = tree::RandomTree(rng, 12, {"a", "b"});
  std::printf("tree: %s\n", tree::ToDebugString(t).c_str());

  auto cls = mso::ClassOfNodes(t, opts.alphabet);
  auto by_reference = mso::EvalUnaryQueryReference(t, *formula, "x");
  auto by_automaton = mso::BtaUnaryQuery(*bta, t, *cls);
  auto by_datalog = core::EvaluateGrounded(*program, t);
  if (!by_reference.ok() || !by_automaton.ok() || !by_datalog.ok()) return 1;

  auto show = [](const char* label, const std::vector<int32_t>& nodes) {
    std::printf("%-22s{ ", label);
    for (int32_t n : nodes) std::printf("%d ", n);
    std::printf("}\n");
  };
  show("reference semantics:", *by_reference);
  show("tree automaton:", *by_automaton);
  show("monadic datalog:", by_datalog->Query());
  std::printf("\nall three agree: %s\n",
              (*by_reference == *by_automaton &&
               *by_automaton == by_datalog->Query())
                  ? "yes"
                  : "NO (bug!)");
  return 0;
}
