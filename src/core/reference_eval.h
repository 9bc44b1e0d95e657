#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/ast.h"
#include "src/core/database.h"
#include "src/util/result.h"

/// \file reference_eval.h
/// The test-only oracle: the pre-compilation naive fixpoint engine, preserved
/// from before the vectorized rewrite (NodeSet relations + CompiledProgram
/// plans, eval.h).
///
/// It re-plans every rule on every enumeration, resolves every body atom
/// through the string-keyed EdbSource::Get per join step, and stores IDB
/// relations in std::map — nothing it shares with the production engines
/// but the EdbSource interface. That independence is its one job: the
/// cross-engine equivalence tests check every engine against it, and a bug
/// would have to be written twice, in two very different implementations,
/// to go unnoticed. Only tests call it.
///
/// Not for production use — O(|P|·|dom|) per T_P round with a much larger
/// constant.

namespace mdatalog::core {

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

  int64_t num_iterations() const { return num_iterations_; }
  int64_t num_derived() const { return num_derived_; }

 private:
  friend class ReferenceEngine;
  std::map<PredId, Relation> idb_;
  PredId query_pred_ = -1;
  int64_t num_iterations_ = 0;
  int64_t num_derived_ = 0;
};

/// Naive evaluation: literally iterates T_P until fixpoint.
util::Result<ReferenceResult> EvaluateNaiveReference(const Program& program,
                                                     const EdbSource& edb);

}  // namespace mdatalog::core
