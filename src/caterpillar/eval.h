#pragma once

#include <vector>

#include "src/caterpillar/nfa.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file eval.h
/// Evaluation of caterpillar expressions over trees.
///
/// The production evaluator runs a BFS over the product of the expression's
/// NFA with the tree: O(|NFA| · |dom|) states, each expanded through
/// constant-degree moves (child edges contribute amortized O(|dom|) per NFA
/// state). The reference evaluator implements the denotational semantics
/// [[E]] of Section 2 literally and is used to cross-check the NFA evaluator
/// in property tests.

namespace mdatalog::caterpillar {

/// Supported binary relation names: firstchild, nextsibling, child,
/// lastchild, child<k>. Supported unary predicates: root, leaf, lastsibling,
/// firstsibling, label_<l>.

/// Image of `sources` under [[E]]: { y | ∃x ∈ sources, ⟨x,y⟩ ∈ [[E]] }.
/// Returned sorted ascending.
util::Result<std::vector<tree::NodeId>> EvalImage(
    const tree::Tree& t, const CatNfa& nfa,
    const std::vector<tree::NodeId>& sources);

/// Convenience: compile + EvalImage.
util::Result<std::vector<tree::NodeId>> EvalImage(
    const tree::Tree& t, const ExprPtr& e,
    const std::vector<tree::NodeId>& sources);

/// The full relation [[E]] by the direct denotational semantics. O(|E|·n³)
/// worst case — test-only. Pairs returned sorted.
util::Result<std::vector<std::pair<tree::NodeId, tree::NodeId>>>
EvalRelationReference(const tree::Tree& t, const ExprPtr& e);

}  // namespace mdatalog::caterpillar
