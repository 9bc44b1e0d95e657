#include "src/analysis/tmnf_view.h"

#include <unordered_map>

#include "src/core/tree_schema.h"

namespace mdatalog::analysis {

namespace {

using core::Atom;
using core::PredId;
using core::Program;
using core::Rule;
using core::Term;

}  // namespace

void TmnfView::RelabelInto(std::vector<std::string>* alphabet) {
  std::vector<int32_t> remap(labels.size(), -1);
  for (size_t i = 0; i < labels.size(); ++i) {
    for (size_t k = 0; k < alphabet->size(); ++k) {
      if ((*alphabet)[k] == labels[i]) {
        remap[i] = static_cast<int32_t>(k);
        break;
      }
    }
    if (remap[i] < 0) {
      remap[i] = static_cast<int32_t>(alphabet->size());
      alphabet->push_back(labels[i]);
    }
  }
  auto fix = [&](OperandRef& op) {
    if (op.is_edb && op.edb.kind == core::TreePred::Kind::kLabel) {
      op.edb.label = remap[op.edb.label];
    }
  };
  for (TmnfRuleView& r : rules) {
    fix(r.op0);
    fix(r.op1);
  }
  labels = *alphabet;
}

util::Result<TmnfView> TmnfView::Parse(const Program& program) {
  if (program.query_pred() < 0) {
    return util::Status::InvalidArgument(
        "containment analysis needs a query predicate");
  }
  const auto& preds = program.preds();
  std::vector<bool> intensional = program.IntensionalMask();

  TmnfView view;
  std::unordered_map<PredId, int32_t> idb_index;
  std::unordered_map<std::string, int32_t> label_index;
  auto idb_of = [&](PredId p) {
    auto it = idb_index.find(p);
    if (it != idb_index.end()) return it->second;
    int32_t id = static_cast<int32_t>(view.idb_preds.size());
    idb_index.emplace(p, id);
    view.idb_preds.push_back(p);
    return id;
  };

  // Resolves a unary body predicate into an EDB symbol or IDB index.
  auto resolve_unary = [&](PredId p) -> util::Result<OperandRef> {
    OperandRef op;
    if (intensional[p]) {
      op.is_edb = false;
      op.idb = idb_of(p);
      return op;
    }
    const std::string& name = preds.Name(p);
    const std::optional<core::TreePred> tp =
        core::ClassifyTreePredicate(name, 1);
    if (!tp.has_value()) {
      // A non-schema predicate with no rules: provably empty — model it as
      // an IDB predicate with no supporting rules.
      op.is_edb = false;
      op.idb = idb_of(p);
      return op;
    }
    op.is_edb = true;
    op.edb.kind = tp->kind;
    if (tp->kind == core::TreePred::Kind::kLabel) {
      std::string label = core::LabelFromPredName(name);
      auto it = label_index.find(label);
      if (it == label_index.end()) {
        it = label_index
                 .emplace(label, static_cast<int32_t>(view.labels.size()))
                 .first;
        view.labels.push_back(label);
      }
      op.edb.label = it->second;
    }
    return op;
  };

  const auto& rules = program.rules();
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& r = rules[ri];
    auto fail = [&](const std::string& why) {
      return util::Status::InvalidArgument(
          "rule " + std::to_string(ri) + " is not TMNF over τ_ur (" + why +
          "): " + core::ToString(program, r));
    };
    if (r.head.args.size() != 1 || !r.head.args[0].is_var()) {
      return fail("head is not a unary variable atom");
    }
    const int32_t head_var = r.head.args[0].value;
    TmnfRuleView rv;
    rv.head = idb_of(r.head.pred);
    rv.rule_index = static_cast<int32_t>(ri);

    // Split body into unary atoms and binary (structural) atoms.
    std::vector<const Atom*> unary, binary;
    for (const Atom& a : r.body) {
      for (const Term& t : a.args) {
        if (!t.is_var()) return fail("constants are not supported");
      }
      if (a.args.size() == 1) {
        unary.push_back(&a);
      } else if (a.args.size() == 2) {
        binary.push_back(&a);
      } else {
        return fail("body atom of arity " + std::to_string(a.args.size()));
      }
    }

    if (binary.empty()) {
      // Form (1) or (3): all unary atoms sit on the head variable.
      for (const Atom* a : unary) {
        if (a->args[0].value != head_var) {
          return fail("unary body atom off the head variable");
        }
      }
      if (unary.size() == 1) {
        rv.kind = TmnfRuleView::Kind::kCopy;
        MD_ASSIGN_OR_RETURN(rv.op0, resolve_unary(unary[0]->pred));
      } else if (unary.size() == 2) {
        rv.kind = TmnfRuleView::Kind::kAnd;
        MD_ASSIGN_OR_RETURN(rv.op0, resolve_unary(unary[0]->pred));
        MD_ASSIGN_OR_RETURN(rv.op1, resolve_unary(unary[1]->pred));
      } else {
        return fail("expected 1 or 2 unary body atoms");
      }
    } else if (binary.size() == 1 && unary.size() == 1) {
      // Form (2): p(x) ← p0(x0), B(x0, x) with B = R or R⁻¹.
      const Atom* b = binary[0];
      using K = core::TreePred::Kind;
      const std::optional<core::TreePred> rel =
          core::ClassifyTreePredicate(preds.Name(b->pred), 2);
      if (intensional[b->pred] || !rel.has_value() ||
          (rel->kind != K::kFirstChild && rel->kind != K::kNextSibling)) {
        return fail("binary atom is not firstchild/nextsibling");
      }
      const bool firstchild = rel->kind == K::kFirstChild;
      const int32_t a0 = b->args[0].value, a1 = b->args[1].value;
      const int32_t body_var = unary[0]->args[0].value;
      int32_t support_var;
      if (a1 == head_var && a0 != head_var) {
        support_var = a0;  // B(x0, x)
        rv.dir = firstchild ? StepDir::kFromParent : StepDir::kFromPrevSibling;
      } else if (a0 == head_var && a1 != head_var) {
        support_var = a1;  // B(x, x0): the inverse orientation
        rv.dir =
            firstchild ? StepDir::kFromFirstChild : StepDir::kFromNextSibling;
      } else {
        return fail("binary atom does not link head to a fresh variable");
      }
      if (body_var != support_var) {
        return fail("unary body atom off the step's source variable");
      }
      rv.kind = TmnfRuleView::Kind::kStep;
      MD_ASSIGN_OR_RETURN(rv.op0, resolve_unary(unary[0]->pred));
    } else {
      return fail("unsupported body shape");
    }
    view.rules.push_back(rv);
  }

  // The query predicate: a query with no rules still gets an IDB slot — with
  // no supporting rules its extent is empty, which is exactly the semantics
  // of an underivable pattern. A τ_ur schema predicate as the query would
  // have a real (non-IDB) extent; reject that rather than silently treating
  // it as empty.
  const PredId q = program.query_pred();
  if (!intensional[q] && core::IsTreePredicate(preds.Name(q), preds.Arity(q))) {
    return util::Status::InvalidArgument(
        "query predicate '" + preds.Name(q) + "' is a τ_ur schema predicate");
  }
  view.query = idb_of(q);
  return view;
}

}  // namespace mdatalog::analysis
