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
/// implicitly; this header materializes it explicitly so it can be printed
/// (the decoding half, which tests use to check the bijection, lives in
/// tests/support/trees.h).

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

/// Renders the encoding as lines "n1 -fc-> n2", "n2 -ns-> n3", ... in id order
/// (used by the quickstart example to reproduce Figure 1).
std::string ToDebugString(const BinaryTree& b);

}  // namespace mdatalog::tree
