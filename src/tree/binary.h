#pragma once

#include <string>
#include <vector>

#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file binary.h
/// The firstchild/nextsibling binary encoding of unranked trees (Figure 1).
///
/// The paper reduces the unranked case to the ranked one by renaming
/// "firstchild" to child_1 and "nextsibling" to child_2 (proof of Theorem 4.4).
/// A Tree already carries those two pointers, so most modules use the encoding
/// implicitly; this header materializes it explicitly so the bijection can be
/// tested, printed and fed to ranked-tree machinery.

namespace mdatalog::tree {

/// An explicit binary tree: every node has an optional left child
/// (= firstchild in the source tree) and optional right child (= nextsibling).
struct BinaryTree {
  struct BNode {
    std::string label;
    NodeId left = kNoNode;
    NodeId right = kNoNode;
  };
  std::vector<BNode> nodes;  // indexed by the *source* NodeId
  NodeId root = kNoNode;
};

/// Encodes an unranked tree (Figure 1 (a) → (b)). Node ids are preserved.
BinaryTree EncodeFirstChildNextSibling(const Tree& t);

/// Decodes a binary tree back to the unranked original. The input is
/// untrusted: fails with InvalidArgument if the root has a right child (the
/// root of a valid encoding has no next sibling), if `root`, a `left` or a
/// `right` lies outside [0, nodes.size()), or if a node is reached twice (a
/// cycle or a shared child). Iterative, so depth is bounded only by memory.
util::Result<Tree> DecodeFirstChildNextSibling(const BinaryTree& b);

/// Renders the encoding as lines "n1 -fc-> n2", "n2 -ns-> n3", ... in id order
/// (used by the quickstart example to reproduce Figure 1).
std::string ToDebugString(const BinaryTree& b);

}  // namespace mdatalog::tree
