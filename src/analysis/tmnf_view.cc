#include "src/analysis/tmnf_view.h"

#include <unordered_map>

#include "src/core/tree_schema.h"
#include "src/tmnf/normal_form.h"

namespace mdatalog::analysis {

namespace {

using core::PredId;
using core::Program;
using core::Rule;

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

  // An operand is an EDB test when it names a unary tree predicate, else an
  // IDB index: intensional, or a non-schema predicate with no rules, which
  // is provably empty — modeled as an IDB predicate with no rules.
  auto resolve = [&](const tmnf::TmnfOperand& op) {
    OperandRef ref;
    if (!op.tree.has_value()) {
      ref.idb = idb_of(op.pred);
      return ref;
    }
    ref.is_edb = true;
    ref.edb.kind = op.tree->kind;
    if (op.tree->kind == core::TreePred::Kind::kLabel) {
      std::string label = core::LabelFromPredName(preds.Name(op.pred));
      auto it = label_index.find(label);
      if (it == label_index.end()) {
        it = label_index
                 .emplace(label, static_cast<int32_t>(view.labels.size()))
                 .first;
        view.labels.push_back(label);
      }
      ref.edb.label = it->second;
    }
    return ref;
  };

  const auto& rules = program.rules();
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& r = rules[ri];
    util::Result<tmnf::TmnfRule> read =
        tmnf::ReadTmnfRule(program, intensional, r, /*ranked=*/false);
    if (!read.ok()) {
      return util::Status::InvalidArgument(
          "rule " + std::to_string(ri) + " is not TMNF over τ_ur (" +
          read.status().message() + "): " + core::ToString(program, r));
    }
    TmnfRuleView rv;
    rv.kind = read->form;
    rv.head = idb_of(r.head.pred);
    rv.rule_index = static_cast<int32_t>(ri);
    rv.op0 = resolve(read->op0);
    if (read->form == TmnfRuleView::Kind::kAnd) rv.op1 = resolve(read->op1);
    if (read->form == TmnfRuleView::Kind::kStep) {
      const bool firstchild =
          read->rel.kind == core::TreePred::Kind::kFirstChild;
      if (read->inverse) {  // B(x, x0)
        rv.dir =
            firstchild ? StepDir::kFromFirstChild : StepDir::kFromNextSibling;
      } else {  // B(x0, x)
        rv.dir = firstchild ? StepDir::kFromParent : StepDir::kFromPrevSibling;
      }
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
