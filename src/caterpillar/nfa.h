#pragma once

#include <string>
#include <vector>

#include "src/caterpillar/expr.h"

/// \file nfa.h
/// Thompson construction of finite automata from caterpillar expressions.
/// Edge labels are the atomic moves of a caterpillar: follow a binary tree
/// relation (possibly inverted) or test a unary predicate in place. This is
/// exactly the automaton A_E of the proof of Lemma 5.9.

namespace mdatalog::caterpillar {

struct NfaEdge {
  enum class Type { kEps, kRel, kTest };
  Type type;
  int32_t target;
  std::string name;       ///< kRel: relation; kTest: predicate
  bool inverted = false;  ///< kRel only
};

/// ε-NFA with a single start and a single accept state (Thompson invariant).
struct CatNfa {
  std::vector<std::vector<NfaEdge>> states;  ///< adjacency by state
  int32_t start = 0;
  int32_t accept = 0;

  int32_t NumStates() const { return static_cast<int32_t>(states.size()); }
};

/// Compiles `e` to an ε-NFA in time O(|E|). Inversions are pushed down first
/// (Proposition 2.4); if `expand_derived` is set, child/lastchild are first
/// rewritten over firstchild/nextsibling (required when the NFA feeds the
/// Lemma 5.9 datalog translation, whose target signature is τ_ur).
CatNfa CompileToNfa(const ExprPtr& e, bool expand_derived = false);

}  // namespace mdatalog::caterpillar
