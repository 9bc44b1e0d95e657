#include "src/tree/binary.h"

#include <vector>

namespace mdatalog::tree {

BinaryTree EncodeFirstChildNextSibling(const Tree& t) {
  BinaryTree b;
  b.nodes.resize(t.size());
  b.root = t.root();
  for (NodeId n = 0; n < t.size(); ++n) {
    b.nodes[n].label = t.label_name(n);
    b.nodes[n].left = t.first_child(n);
    b.nodes[n].right = t.next_sibling(n);
  }
  return b;
}

util::Result<Tree> DecodeFirstChildNextSibling(const BinaryTree& b) {
  if (b.root == kNoNode || b.nodes.empty()) {
    return util::Status::InvalidArgument("empty binary tree");
  }
  const auto in_range = [&](NodeId n) {
    return n >= 0 && static_cast<size_t>(n) < b.nodes.size();
  };
  if (!in_range(b.root)) {
    return util::Status::InvalidArgument("binary tree root out of range");
  }
  if (b.nodes[b.root].right != kNoNode) {
    return util::Status::InvalidArgument(
        "root of a firstchild/nextsibling encoding must have no right child");
  }
  // Rebuild in document order without recursion: a node's first child
  // (left) comes before its next sibling (right), so the explicit stack
  // pushes right under left. Each source node must be reached exactly once;
  // a second visit means a cycle or a shared child.
  TreeBuilder builder;
  std::vector<bool> seen(b.nodes.size(), false);
  seen[b.root] = true;
  struct Pending {
    NodeId src;
    NodeId built_parent;
  };
  std::vector<Pending> stack;
  const auto push = [&](NodeId src, NodeId built_parent) -> util::Status {
    if (src == kNoNode) return util::Status::OK();
    if (!in_range(src)) {
      return util::Status::InvalidArgument(
          "binary tree child index out of range");
    }
    if (seen[src]) {
      return util::Status::InvalidArgument(
          "binary tree node reached twice (cycle or shared child)");
    }
    seen[src] = true;
    stack.push_back({src, built_parent});
    return util::Status::OK();
  };
  const NodeId built_root = builder.Root(b.nodes[b.root].label);
  MD_RETURN_NOT_OK(push(b.nodes[b.root].left, built_root));
  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();
    const NodeId built = builder.Child(p.built_parent, b.nodes[p.src].label);
    MD_RETURN_NOT_OK(push(b.nodes[p.src].right, p.built_parent));
    MD_RETURN_NOT_OK(push(b.nodes[p.src].left, built));
  }
  return builder.Build();
}

std::string ToDebugString(const BinaryTree& b) {
  std::string out;
  for (size_t n = 0; n < b.nodes.size(); ++n) {
    if (b.nodes[n].left != kNoNode) {
      out += "n" + std::to_string(n) + " -fc-> n" +
             std::to_string(b.nodes[n].left) + "\n";
    }
    if (b.nodes[n].right != kNoNode) {
      out += "n" + std::to_string(n) + " -ns-> n" +
             std::to_string(b.nodes[n].right) + "\n";
    }
  }
  return out;
}

}  // namespace mdatalog::tree
