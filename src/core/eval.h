#pragma once

#include <cstdint>
#include <vector>

#include "src/core/ast.h"
#include "src/core/nodeset.h"

/// \file eval.h
/// The result of evaluating a monadic datalog program over a tree: the
/// fixpoint T^ω_P (Definition 3.1) restricted to intensional predicates.
/// The grounded engine (grounder.h) produces it.
///
/// Derived atoms live in the domain: a head whose constant falls outside
/// {0..DomainSize()-1} is not derivable (the engine and the reference
/// oracle agree on this rule).

namespace mdatalog::core {

/// The fixpoint T^ω_P restricted to intensional predicates.
///
/// Ordering guarantee: Unary() and Query() return members sorted ascending
/// (they iterate the backing bitset, which is naturally ordered).
class EvalResult {
 public:
  bool NullaryTrue(PredId p) const;
  bool ContainsUnary(PredId p, int32_t a) const;

  /// Members of a unary IDB predicate, sorted ascending.
  std::vector<int32_t> Unary(PredId p) const;
  /// The same members in place, or nullptr when `p` derived nothing or is
  /// not unary. Valid while this result lives.
  const NodeSet* UnarySet(PredId p) const;

  /// The distinguished query result {x | query_pred(x) ∈ T^ω_P}, sorted.
  /// Program must have a query predicate.
  std::vector<int32_t> Query() const;

  int64_t num_derived() const { return num_derived_; }

 private:
  template <typename TreeT>
  friend class GroundedEvaluator;

  /// Facts of one intensional predicate. arity == -1 means "no facts
  /// recorded" (the predicate never appeared in a derivation).
  struct PredFacts {
    int8_t arity = -1;
    bool nullary_true = false;
    NodeSet unary;
  };
  const PredFacts* FactsOf(PredId p) const {
    return (p >= 0 && static_cast<size_t>(p) < facts_.size() &&
            facts_[p].arity >= 0)
               ? &facts_[p]
               : nullptr;
  }

  std::vector<PredFacts> facts_;  // indexed by PredId (dense)
  PredId query_pred_ = -1;
  int64_t num_derived_ = 0;
};

}  // namespace mdatalog::core
