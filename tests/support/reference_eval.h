#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/ast.h"
#include "src/util/result.h"
#include "tests/support/edb.h"

/// \file reference_eval.h
/// The test-only oracle: the naive fixpoint of Definition 3.1, iterating
/// T_P literally and recording each stage (the Example 3.2 trace).
///
/// It re-plans every rule on every enumeration, resolves every body atom
/// through the string-keyed EdbSource::Get per join step (edb.h), and stores
/// IDB relations in std::map — nothing it shares with the grounded engine
/// (grounder.h), which reads the tree directly. That independence is its one
/// job: the cross-engine equivalence tests check every engine against it,
/// and a bug would have to be written twice, in two very different
/// implementations, to go unnoticed. It also covers what the engine does not
/// ground: arbitrary finite structures, binary intensional predicates and
/// nextsibling_tc (the TMNF chase intermediates). Only tests call it.
///
/// Not for production use — O(|P|·|dom|) per T_P round with a much larger
/// constant.

namespace mdatalog::core {

/// A derived ground atom.
struct ReferenceAtom {
  PredId pred;
  std::vector<int32_t> args;
  bool operator==(const ReferenceAtom&) const = default;
  bool operator<(const ReferenceAtom& o) const {
    return pred != o.pred ? pred < o.pred : args < o.args;
  }
};

/// Fixpoint of the reference engine, restricted to intensional predicates.
class ReferenceResult {
 public:
  bool NullaryTrue(PredId p) const;
  bool ContainsUnary(PredId p, int32_t a) const;

  /// Members of a unary IDB predicate, sorted ascending.
  std::vector<int32_t> Unary(PredId p) const;
  /// Pairs of a binary IDB predicate, sorted.
  std::vector<std::pair<int32_t, int32_t>> Binary(PredId p) const;
  /// Query result, sorted. Program must have a query predicate.
  std::vector<int32_t> Query() const;

  /// The T_P stages: stages()[i] holds the atoms in T^{i+1}_P \ T^i_P,
  /// sorted by (predicate, arguments).
  const std::vector<std::vector<ReferenceAtom>>& stages() const {
    return stages_;
  }
  int64_t num_iterations() const { return num_iterations_; }
  int64_t num_derived() const { return num_derived_; }

 private:
  friend class ReferenceEngine;
  std::map<PredId, Relation> idb_;
  PredId query_pred_ = -1;
  std::vector<std::vector<ReferenceAtom>> stages_;
  int64_t num_iterations_ = 0;
  int64_t num_derived_ = 0;
};

/// Naive evaluation: literally iterates T_P until fixpoint.
util::Result<ReferenceResult> EvaluateNaiveReference(const Program& program,
                                                     const EdbSource& edb);

}  // namespace mdatalog::core
