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

/// Checks that all extensional predicates used by the program are predicates
/// of the tree schemata served by TreeDatabase (τ_rk/τ_ur and extensions).
/// `allow_extended` additionally admits child/lastchild/nextsibling_tc.
util::Status CheckTreeSignature(const Program& program,
                                bool allow_extended = true);

/// Names of extensional predicates used by the program (for diagnostics).
std::vector<std::string> ExtensionalPredNames(const Program& program);

/// A body atom containing all variables of the rule (Section 3.1). Returns
/// the guard's index in the body, or -1.
int32_t FindGuard(const Rule& rule);

/// Rule connectedness in the sense of the proof of Theorem 4.2: the graph on
/// Vars(r) joining the variables of every body atom with two or more (binary
/// tree atoms R(x,y); the ternary before window of Elog⁻Δ) is connected.
bool IsConnectedRule(const Program& program, const Rule& rule);

/// Variable connected components of a rule under the Theorem 4.2 graph.
/// Returns comp[v] in 0..k-1 for each VarId v.
std::vector<int32_t> RuleVarComponents(const Program& program,
                                       const Rule& rule);

/// Datalog LIT membership (Section 3.2): every rule body either consists of
/// monadic atoms only, or contains a guard.
bool IsDatalogLit(const Program& program);

/// Removes rules that can never fire because their body references a
/// predicate that is neither a tree-schema predicate nor the head of any
/// rule (such predicates have empty extensions under the fixpoint
/// semantics). Iterates to a fixpoint — removing rules may empty further
/// predicates. Machine-generated programs (automata translations, TMNF)
/// use this to stay within the tree signature.
void PruneUnderivableRules(Program* program);

}  // namespace mdatalog::core
