#include "src/core/eval.h"

#include "src/util/check.h"

namespace mdatalog::core {

bool EvalResult::NullaryTrue(PredId p) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->nullary_true;
}

bool EvalResult::ContainsUnary(PredId p, int32_t a) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->arity == 1 && f->unary.Contains(a);
}

std::vector<int32_t> EvalResult::Unary(PredId p) const {
  const PredFacts* f = FactsOf(p);
  if (f == nullptr || f->arity != 1) return {};
  return f->unary.ToVector();
}

const NodeSet* EvalResult::UnarySet(PredId p) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->arity == 1 ? &f->unary : nullptr;
}

std::vector<int32_t> EvalResult::Query() const {
  MD_CHECK(query_pred_ >= 0);
  return Unary(query_pred_);
}

}  // namespace mdatalog::core
