#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/tree/binary.h"
#include "src/tree/tree.h"
#include "src/util/result.h"
#include "src/util/rng.h"

/// \file trees.h
/// Tree generators and tree-model helpers only tests use: a unary chain, a
/// random tree of bounded arity, the decoding half of the Figure 1 binary
/// encoding, and strict ranked alphabets (Section 2).

namespace mdatalog::tree {

/// Unary chain of n nodes.
Tree ChainTree(int32_t num_nodes, const std::string& label);

/// Random tree whose arity never exceeds `max_arity` (for ranked-tree tests).
Tree RandomBoundedArityTree(util::Rng& rng, int32_t num_nodes,
                            const std::vector<std::string>& labels,
                            int32_t max_arity);

/// Decodes a binary tree back to the unranked original. The input is
/// untrusted: fails with InvalidArgument if the root has a right child (the
/// root of a valid encoding has no next sibling), if `root`, a `left` or a
/// `right` lies outside [0, nodes.size()), or if a node is reached twice (a
/// cycle or a shared child). Iterative, so depth is bounded only by memory.
util::Result<Tree> DecodeFirstChildNextSibling(const BinaryTree& b);

/// Σ with an arity per symbol: a node labeled a ∈ Σ_k must have exactly k
/// children.
class RankedAlphabet {
 public:
  /// Declares symbol `name` with rank `rank` (>= 0).
  void Declare(const std::string& name, int32_t rank);

  /// Rank of `name`, or -1 if undeclared.
  int32_t RankOf(const std::string& name) const;

  /// The maximum rank K.
  int32_t MaxRank() const { return max_rank_; }

  /// Checks that every node of `t` has exactly RankOf(label) children.
  util::Status Validate(const Tree& t) const;

 private:
  std::map<std::string, int32_t> ranks_;
  int32_t max_rank_ = 0;
};

}  // namespace mdatalog::tree
