#include "src/mso/to_datalog.h"

#include "src/core/tree_schema.h"
#include "src/core/validate.h"

namespace mdatalog::mso {

util::Result<core::Program> BtaToDatalog(
    const Bta& a, const std::vector<std::string>& alphabet) {
  using core::Atom;
  using core::MakeAtom;
  using core::MakeRule;
  using core::PredId;
  using core::Term;

  if (a.num_bits != 1) {
    return util::Status::InvalidArgument(
        "BtaToDatalog requires a 1-bit (unary query) automaton");
  }
  if (static_cast<int32_t>(alphabet.size()) != a.num_classes) {
    return util::Status::InvalidArgument(
        "alphabet size does not match the automaton's label classes");
  }

  core::Program program;
  auto& preds = program.preds();
  PredId root = preds.MustIntern("root", 1);
  PredId leaf = preds.MustIntern("leaf", 1);
  PredId lastsibling = preds.MustIntern("lastsibling", 1);
  PredId firstchild = preds.MustIntern("firstchild", 2);
  PredId nextsibling = preds.MustIntern("nextsibling", 2);
  PredId nons = preds.MustIntern("nons", 1);
  PredId query = preds.MustIntern("query", 1);
  auto up = [&](BtaState q) {
    return preds.MustIntern("up_" + std::to_string(q), 1);
  };
  auto ctx = [&](BtaState q) {
    return preds.MustIntern("ctx_" + std::to_string(q), 1);
  };
  auto label = [&](int32_t cls) {
    return preds.MustIntern(core::LabelPredName(alphabet[cls]), 1);
  };

  Term x = Term::Var(0), y1 = Term::Var(1), y2 = Term::Var(2);

  // nons(x): x has no next sibling (lastsibling or root).
  program.AddRule(
      MakeRule(MakeAtom(nons, {x}), {MakeAtom(lastsibling, {x})}, {"x"}));
  program.AddRule(MakeRule(MakeAtom(nons, {x}), {MakeAtom(root, {x})}, {"x"}));

  // ctx seeds: final states accept at the root.
  for (BtaState q = 0; q < a.num_states; ++q) {
    if (a.finals[q]) {
      program.AddRule(
          MakeRule(MakeAtom(ctx(q), {x}), {MakeAtom(root, {x})}, {"x"}));
    }
  }

  for (const auto& [key, q] : a.delta) {
    const auto& [sym, l, r] = key;
    int32_t cls = a.ClassOfSym(sym);
    bool marked = a.MaskOfSym(sym) != 0;

    // Body fragments for "left subtree is in state l" / "right is in r".
    auto left_atoms = [&](std::vector<Atom>* body) {
      if (l == kAbsent) {
        body->push_back(MakeAtom(leaf, {x}));
      } else {
        body->push_back(MakeAtom(firstchild, {x, y1}));
        body->push_back(MakeAtom(up(l), {y1}));
      }
    };
    auto right_atoms = [&](std::vector<Atom>* body) {
      if (r == kAbsent) {
        body->push_back(MakeAtom(nons, {x}));
      } else {
        body->push_back(MakeAtom(nextsibling, {x, y2}));
        body->push_back(MakeAtom(up(r), {y2}));
      }
    };

    if (!marked) {
      // up_q(x) ← label(x), <left>, <right>.
      std::vector<Atom> body = {MakeAtom(label(cls), {x})};
      left_atoms(&body);
      right_atoms(&body);
      program.AddRule(MakeRule(MakeAtom(up(q), {x}), std::move(body),
                               {"x", "y1", "y2"}));
      // ctx propagation into the child slots.
      if (l != kAbsent) {
        std::vector<Atom> cbody = {MakeAtom(ctx(q), {x}),
                                   MakeAtom(label(cls), {x}),
                                   MakeAtom(firstchild, {x, y1})};
        right_atoms(&cbody);
        program.AddRule(MakeRule(MakeAtom(ctx(l), {y1}), std::move(cbody),
                                 {"x", "y1", "y2"}));
      }
      if (r != kAbsent) {
        std::vector<Atom> cbody = {MakeAtom(ctx(q), {x}),
                                   MakeAtom(label(cls), {x}),
                                   MakeAtom(nextsibling, {x, y2})};
        left_atoms(&cbody);
        program.AddRule(MakeRule(MakeAtom(ctx(r), {y2}), std::move(cbody),
                                 {"x", "y1", "y2"}));
      }
    } else {
      // query(x) ← ctx_q(x), label(x), <left>, <right>.
      std::vector<Atom> body = {MakeAtom(ctx(q), {x}),
                                MakeAtom(label(cls), {x})};
      left_atoms(&body);
      right_atoms(&body);
      program.AddRule(MakeRule(MakeAtom(query, {x}), std::move(body),
                               {"x", "y1", "y2"}));
    }
  }

  program.set_query_pred(query);
  core::PruneUnderivableRules(&program);
  return program;
}

}  // namespace mdatalog::mso
