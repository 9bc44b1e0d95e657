#pragma once

#include <string>
#include <vector>

#include "src/tree/tree.h"
#include "src/util/rng.h"

/// \file generator.h
/// Deterministic tree generators used by tests, property suites and the
/// benchmark harness. All generators build in document order.

namespace mdatalog::tree {

/// Uniform-ish random tree with `num_nodes` nodes; each new node attaches to a
/// random existing node, with a bias towards recent nodes (deeper trees) when
/// `depth_bias` is true. Labels drawn uniformly from `labels`.
Tree RandomTree(util::Rng& rng, int32_t num_nodes,
                const std::vector<std::string>& labels,
                bool depth_bias = false);

/// Complete binary tree of the given depth (depth 0 = single node); every
/// node labeled `label`. Size = 2^(depth+1) − 1. Workload of Example 4.21.
Tree CompleteBinaryTree(int32_t depth, const std::string& label);

/// Root labeled `root_label` with children labeled per `child_labels`
/// (workload of Theorem 6.6: children words a^n b^m).
Tree ChildrenWord(const std::string& root_label,
                  const std::vector<std::string>& child_labels);

/// The 4-node tree of Example 3.2: a root with three children, all labeled a.
Tree PaperExample32Tree();

/// The 6-node tree of Figure 1 / Example 2.5:
///   n1(a) with children n2, n3, n6; n3 with children n4, n5 (all labeled a).
Tree PaperFigure1Tree();

/// The 3-node binary tree of Example 4.9 (root with two leaf children, all a).
Tree PaperExample49Tree();

}  // namespace mdatalog::tree
