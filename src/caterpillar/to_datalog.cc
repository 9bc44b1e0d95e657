#include "src/caterpillar/to_datalog.h"

#include "src/caterpillar/nfa.h"
#include "src/core/tree_schema.h"

namespace mdatalog::caterpillar {

util::Result<core::PredId> AppendCaterpillarRules(
    core::Program* program, core::PredId source_pred, const ExprPtr& e,
    const std::string& prefix, const CaterpillarDatalogOptions& options) {
  using core::Atom;
  using core::MakeAtom;
  using core::MakeRule;
  using core::PredId;
  using core::Term;

  if (program->preds().Arity(source_pred) != 1) {
    return util::Status::InvalidArgument(
        "caterpillar source predicate must be unary");
  }
  CatNfa nfa = CompileToNfa(e, /*expand_derived=*/!options.ranked);

  std::vector<PredId> state_pred(nfa.NumStates());
  for (int32_t s = 0; s < nfa.NumStates(); ++s) {
    MD_ASSIGN_OR_RETURN(
        state_pred[s],
        program->preds().Intern(prefix + "_q" + std::to_string(s), 1));
  }
  MD_ASSIGN_OR_RETURN(PredId result,
                      program->preds().Intern(prefix + "_res", 1));

  Term x = Term::Var(0), x0 = Term::Var(1);

  // q_start(x) ← p(x).
  program->AddRule(MakeRule(MakeAtom(state_pred[nfa.start], {x}),
                            {MakeAtom(source_pred, {x})}, {"x"}));

  for (int32_t s = 0; s < nfa.NumStates(); ++s) {
    for (const NfaEdge& edge : nfa.states[s]) {
      switch (edge.type) {
        case NfaEdge::Type::kEps:
          program->AddRule(MakeRule(MakeAtom(state_pred[edge.target], {x}),
                                    {MakeAtom(state_pred[s], {x})}, {"x"}));
          break;
        case NfaEdge::Type::kTest: {
          MD_ASSIGN_OR_RETURN(PredId test,
                              program->preds().Intern(edge.name, 1));
          program->AddRule(MakeRule(
              MakeAtom(state_pred[edge.target], {x}),
              {MakeAtom(state_pred[s], {x}), MakeAtom(test, {x})}, {"x"}));
          break;
        }
        case NfaEdge::Type::kRel: {
          const std::optional<core::TreePred> tp =
              core::ClassifyTreePredicate(edge.name, 2);
          if (!tp.has_value() || !core::InTmnfSchema(*tp, options.ranked)) {
            return util::Status::InvalidArgument(
                "caterpillar-to-datalog supports only τ_ur relations after "
                "expansion; got '" +
                edge.name + "'");
          }
          MD_ASSIGN_OR_RETURN(PredId rel,
                              program->preds().Intern(edge.name, 2));
          Atom rel_atom = edge.inverted ? MakeAtom(rel, {x, x0})
                                        : MakeAtom(rel, {x0, x});
          program->AddRule(MakeRule(
              MakeAtom(state_pred[edge.target], {x}),
              {MakeAtom(state_pred[s], {x0}), std::move(rel_atom)},
              {"x", "x0"}));
          break;
        }
      }
    }
  }

  // result(x) ← q_accept(x).
  program->AddRule(MakeRule(MakeAtom(result, {x}),
                            {MakeAtom(state_pred[nfa.accept], {x})}, {"x"}));
  return result;
}

}  // namespace mdatalog::caterpillar
