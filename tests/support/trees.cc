#include "tests/support/trees.h"

#include <algorithm>
#include <functional>

namespace mdatalog::tree {

namespace {

const std::string& PickLabel(util::Rng& rng,
                             const std::vector<std::string>& labels) {
  MD_CHECK(!labels.empty());
  return labels[rng.Below(labels.size())];
}

}  // namespace

Tree ChainTree(int32_t num_nodes, const std::string& label) {
  MD_CHECK(num_nodes >= 1);
  TreeBuilder b;
  NodeId cur = b.Root(label);
  for (int32_t i = 1; i < num_nodes; ++i) cur = b.Child(cur, label);
  return b.Build();
}

Tree RandomBoundedArityTree(util::Rng& rng, int32_t num_nodes,
                            const std::vector<std::string>& labels,
                            int32_t max_arity) {
  MD_CHECK(num_nodes >= 1 && max_arity >= 1);
  std::vector<int32_t> parent(num_nodes, -1);
  std::vector<int32_t> arity(num_nodes, 0);
  std::vector<int32_t> open = {0};  // nodes with spare capacity
  for (int32_t i = 1; i < num_nodes; ++i) {
    size_t slot = rng.Below(open.size());
    int32_t p = open[slot];
    parent[i] = p;
    if (++arity[p] >= max_arity) {
      open[slot] = open.back();
      open.pop_back();
    }
    open.push_back(i);
  }
  std::vector<std::vector<int32_t>> kids(num_nodes);
  for (int32_t i = 1; i < num_nodes; ++i) kids[parent[i]].push_back(i);
  TreeBuilder b;
  b.Root(PickLabel(rng, labels));
  std::function<void(int32_t, NodeId)> attach = [&](int32_t src, NodeId dst) {
    for (int32_t k : kids[src]) {
      NodeId built = b.Child(dst, PickLabel(rng, labels));
      attach(k, built);
    }
  };
  attach(0, 0);
  return b.Build();
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

void RankedAlphabet::Declare(const std::string& name, int32_t rank) {
  MD_CHECK(rank >= 0);
  ranks_[name] = rank;
  max_rank_ = std::max(max_rank_, rank);
}

int32_t RankedAlphabet::RankOf(const std::string& name) const {
  auto it = ranks_.find(name);
  return it == ranks_.end() ? -1 : it->second;
}

util::Status RankedAlphabet::Validate(const Tree& t) const {
  for (NodeId n = 0; n < t.size(); ++n) {
    int32_t rank = RankOf(t.label_name(n));
    if (rank < 0) {
      return util::Status::InvalidArgument("undeclared symbol '" +
                                           t.label_name(n) + "'");
    }
    if (t.NumChildren(n) != rank) {
      return util::Status::InvalidArgument(
          "node " + std::to_string(n) + " labeled '" + t.label_name(n) +
          "' has " + std::to_string(t.NumChildren(n)) +
          " children, expected " + std::to_string(rank));
    }
  }
  return util::Status::OK();
}

}  // namespace mdatalog::tree
