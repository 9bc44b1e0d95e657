#pragma once

#include <cstdint>
#include <vector>

#include "src/core/ast.h"
#include "src/util/result.h"

/// \file minimize.h
/// Extraction-preserving minimization of monadic datalog programs over τ_ur.
///
/// Minimize(P) applies only *unconditionally sound* reductions — every
/// transformation below preserves the least model restricted to the root
/// predicates on every input tree, with a syntactic or tree-axiomatic proof
/// that does not depend on any depth bound:
///
///   kUnsatBody        the body is unsatisfiable on any tree: two distinct
///                     label tests on one variable, root combined with
///                     having a parent / previous sibling / being a
///                     (first/last) sibling, leaf with a child, lastsibling
///                     with a next sibling (Section 2 semantics).
///   kUnderivableBody  a body atom's predicate is IDB with no derivable
///                     rule (fixpoint over core::DerivablePreds).
///   kUnreachable      the head predicate cannot reach any root predicate
///                     (core::ReachablePreds over head → body edges).
///   kDuplicate        an identical earlier rule exists (modulo variable
///                     renaming by first occurrence).
///   kSubsumed         an earlier kept rule θ-subsumes this one: a
///                     substitution maps its head onto this head and its
///                     body into this body, so every derivation step through
///                     this rule is covered.
///
/// Kept rules may additionally lose *redundant literals* (condensation): a
/// body literal is dropped when the original rule θ-subsumes the reduced
/// rule, which makes the two rules derive exactly the same facts.
///
/// Passes iterate to a fixpoint — removing a predicate's last rule can make
/// further bodies underivable.

namespace mdatalog::analysis {

/// Why a rule was removed (or kept). Indexed by *original* rule position, so
/// lint surfaces can map fates 1:1 back to source rules.
enum class RuleFate : uint8_t {
  kKept,
  kUnsatBody,
  kUnderivableBody,
  kUnreachable,
  kDuplicate,
  kSubsumed,
};

struct MinimizeOptions {
  /// Output predicates whose extents must be preserved. Empty = the
  /// program's query predicate; if that is unset too, reachability pruning
  /// is skipped (every head counts as a root).
  std::vector<core::PredId> roots;
};

struct MinimizeResult {
  core::Program program;

  /// Per original rule index: kept, or why it was removed.
  std::vector<RuleFate> fates;
  /// Per original rule index: number of redundant body literals dropped
  /// (nonzero only for kKept rules).
  std::vector<int32_t> literals_removed;
};

/// Minimizes `program`. The result's predicate table is a copy of the
/// input's (same PredIds); only the rule list shrinks.
util::Result<MinimizeResult> Minimize(const core::Program& program,
                                      const MinimizeOptions& options = {});

/// True iff the earlier rule θ-subsumes the later: some substitution θ over
/// `subsumer`'s variables has θ(head) == later head and θ(body) ⊆ later
/// body (as a set). Exposed for tests.
bool Subsumes(const core::Rule& subsumer, const core::Rule& subsumee);

}  // namespace mdatalog::analysis
