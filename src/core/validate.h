#pragma once

#include <string>
#include <vector>

#include "src/core/ast.h"
#include "src/util/status.h"

/// \file validate.h
/// Structural checks on datalog programs and rules (Section 3.1 definitions:
/// safety, monadicity, guards, connectedness).

namespace mdatalog::core {

/// Safety: every variable in the head occurs in the body (facts are ground).
util::Status CheckSafety(const Program& program);

/// Monadic datalog: all intensional predicates have arity <= 1.
/// Arity-0 (propositional) intensional predicates are permitted — the paper's
/// own constructions introduce them (proof of Theorem 4.2).
util::Status CheckMonadic(const Program& program);

/// A body atom containing all variables of the rule (Section 3.1). Returns
/// the guard's index in the body, or -1.
int32_t FindGuard(const Rule& rule);

/// Variable connected components of a rule under the Theorem 4.2 graph.
/// Returns comp[v] in 0..k-1 for each VarId v.
std::vector<int32_t> RuleVarComponents(const Program& program,
                                       const Rule& rule);

/// Datalog LIT membership (Section 3.2): every rule body either consists of
/// monadic atoms only, or contains a guard.
bool IsDatalogLit(const Program& program);

/// Removes rules that can never fire because their body references a
/// predicate with an empty extension under the fixpoint semantics: an
/// extensional predicate that is neither a tree-schema predicate nor a Δ
/// builtin (grounder.h), or an intensional predicate with no surviving rule.
/// A predicate that heads a rule of the input counts as intensional even
/// after it lost its last rule, whatever its name. Iterates to a fixpoint —
/// removing rules may empty further predicates. The automata translations
/// use this to stay within the tree signature, the TMNF pipeline to drop
/// what the chase left unfireable, and EvaluateOnTree runs it before
/// grounding.
void PruneUnderivableRules(Program* program);

}  // namespace mdatalog::core
