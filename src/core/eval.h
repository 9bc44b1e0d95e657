#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/ast.h"
#include "src/core/database.h"
#include "src/core/nodeset.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file eval.h
/// Fixpoint evaluation of datalog programs via the immediate consequence
/// operator T_P (Definition 3.1): the naive engine computes the sequence
/// T⁰_P, T¹_P, … exactly as defined (and can record it, used to reproduce the
/// Example 3.2 trace); the semi-naive engine computes the same fixpoint with
/// delta relations. Both work over arbitrary finite structures (EdbSource)
/// and support intensional predicates of arity 0, 1 and 2 (arity 2 covers the
/// non-monadic baselines of Section 3.2).
///
/// Both engines run over a CompiledProgram (compiled.h): join orders are
/// planned once per (rule, delta position), extensional atoms are resolved to
/// concrete relations once, and unary intensional relations are dense
/// bitsets (NodeSet) — the Theorem 4.2 O(|P|·|dom|) hot path without
/// per-tuple string lookups or re-planning.
///
/// Derived atoms live in the domain: a head whose constant falls outside
/// {0..DomainSize()-1} is not derivable (the seed engine's behavior for such
/// programs was out-of-bounds UB; all engines, including the reference
/// oracle, now agree on this rule).

namespace mdatalog::core {

/// A derived ground atom (for traces and goldens).
struct GroundAtom {
  PredId pred;
  std::vector<int32_t> args;
  bool operator==(const GroundAtom&) const = default;
  bool operator<(const GroundAtom& o) const {
    return pred != o.pred ? pred < o.pred : args < o.args;
  }
};

/// Newly derived atoms of one T_P iteration, each with the index of a rule
/// that derives it (as in the Example 3.2 trace annotations).
struct EvalStage {
  std::vector<GroundAtom> new_atoms;
  std::vector<int32_t> derived_by_rule;  // parallel to new_atoms
};

/// The fixpoint T^ω_P restricted to intensional predicates.
///
/// Ordering guarantee: Unary() and Query() return members sorted ascending
/// (they iterate the backing bitset, which is naturally ordered); Binary()
/// returns pairs sorted lexicographically (sorted once when the result is
/// built, not on every call).
class EvalResult {
 public:
  bool NullaryTrue(PredId p) const;
  bool ContainsUnary(PredId p, int32_t a) const;
  bool ContainsBinary(PredId p, int32_t a, int32_t b) const;

  /// Members of a unary IDB predicate, sorted ascending.
  std::vector<int32_t> Unary(PredId p) const;
  /// Pairs of a binary IDB predicate, sorted lexicographically.
  std::vector<std::pair<int32_t, int32_t>> Binary(PredId p) const;

  /// The distinguished query result {x | query_pred(x) ∈ T^ω_P}, sorted.
  /// Program must have a query predicate.
  std::vector<int32_t> Query() const;

  /// T_P stages (only recorded when EvalOptions::trace is set). stages[i]
  /// holds the atoms in T^{i+1} \ T^i.
  const std::vector<EvalStage>& stages() const { return stages_; }
  int64_t num_iterations() const { return num_iterations_; }
  int64_t num_derived() const { return num_derived_; }

 private:
  friend class FixpointEngine;
  template <typename TreeT>
  friend class GroundedEvaluator;

  /// Facts of one intensional predicate. arity == -1 means "no facts
  /// recorded" (the predicate never appeared in a derivation).
  struct PredFacts {
    int8_t arity = -1;
    bool nullary_true = false;
    NodeSet unary;
    std::vector<std::pair<int32_t, int32_t>> pairs;  // sorted
  };
  const PredFacts* FactsOf(PredId p) const {
    return (p >= 0 && static_cast<size_t>(p) < facts_.size() &&
            facts_[p].arity >= 0)
               ? &facts_[p]
               : nullptr;
  }

  std::vector<PredFacts> facts_;  // indexed by PredId (dense)
  PredId query_pred_ = -1;
  std::vector<EvalStage> stages_;
  int64_t num_iterations_ = 0;
  int64_t num_derived_ = 0;
};

struct EvalOptions {
  /// Record T_P stages (naive engine only; forces naive iteration order).
  bool trace = false;
  /// Abort with ResourceExhausted after this many derived atoms (guard for
  /// property tests over random programs). -1 = unlimited.
  int64_t max_derived = -1;
  /// Per-request deadline / cancellation, polled between rules and (strided)
  /// inside the join enumeration; evaluation unwinds with kDeadlineExceeded
  /// or kCancelled. nullptr = unbounded, zero overhead on the hot path.
  const util::EvalControl* control = nullptr;
};

/// Naive evaluation: literally iterates T_P until fixpoint.
util::Result<EvalResult> EvaluateNaive(const Program& program,
                                       const EdbSource& edb,
                                       const EvalOptions& options = {});

/// Semi-naive evaluation with delta relations; same fixpoint, fewer
/// rederivations. Does not record stages.
util::Result<EvalResult> EvaluateSemiNaive(const Program& program,
                                           const EdbSource& edb,
                                           const EvalOptions& options = {});

}  // namespace mdatalog::core
