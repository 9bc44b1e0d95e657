#pragma once

#include <string>
#include <vector>

#include "src/core/ast.h"

/// \file examples.h
/// Monadic datalog programs from the paper, plus small reusable queries used
/// across tests, examples and benchmarks.

namespace mdatalog::core {

/// The Example 3.2 program: selects nodes that root subtrees containing an
/// even number of nodes labeled "a". Rules (1)–(6) with i, j ∈ {0,1} and one
/// instance of rule (4) per label in `other_labels` (= Σ − {a}). The query
/// predicate is c0.
Program EvenAProgram(const std::vector<std::string>& other_labels = {});

/// Selects nodes that have a proper ancestor labeled `label` (descendant
/// propagation through the firstchild/nextsibling encoding).
Program HasAncestorProgram(const std::string& label);

/// A program-size scaling family for Theorem 4.2 benchmarks: a chain
/// p0(x) ← root(x); p_{i+1}(x) ← p_i(x) for i < m. Query predicate p_m.
Program ChainProgram(int32_t m);

}  // namespace mdatalog::core
