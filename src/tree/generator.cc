#include "src/tree/generator.h"

#include <functional>

namespace mdatalog::tree {

namespace {

const std::string& PickLabel(util::Rng& rng,
                             const std::vector<std::string>& labels) {
  MD_CHECK(!labels.empty());
  return labels[rng.Below(labels.size())];
}

}  // namespace

Tree RandomTree(util::Rng& rng, int32_t num_nodes,
                const std::vector<std::string>& labels, bool depth_bias) {
  MD_CHECK(num_nodes >= 1);
  TreeBuilder b;
  b.Root(PickLabel(rng, labels));
  // To keep construction in document order, parents must only ever be the
  // most recent node on the current rightmost path... that would restrict
  // shapes. Instead we generate a parent array first, then build recursively.
  std::vector<int32_t> parent(num_nodes, -1);
  for (int32_t i = 1; i < num_nodes; ++i) {
    if (depth_bias && i > 1 && rng.Chance(2, 3)) {
      // Attach near the end for deeper shapes.
      parent[i] = static_cast<int32_t>(rng.Range(i / 2, i - 1));
    } else {
      parent[i] = static_cast<int32_t>(rng.Below(i));
    }
  }
  std::vector<std::vector<int32_t>> kids(num_nodes);
  for (int32_t i = 1; i < num_nodes; ++i) kids[parent[i]].push_back(i);
  // Build depth-first so ids are in document order.
  std::function<void(int32_t, NodeId)> attach = [&](int32_t src, NodeId dst) {
    for (int32_t k : kids[src]) {
      NodeId built = b.Child(dst, PickLabel(rng, labels));
      attach(k, built);
    }
  };
  attach(0, 0);
  return b.Build();
}

Tree CompleteBinaryTree(int32_t depth, const std::string& label) {
  MD_CHECK(depth >= 0);
  TreeBuilder b;
  NodeId root = b.Root(label);
  std::function<void(NodeId, int32_t)> grow = [&](NodeId n, int32_t d) {
    if (d == 0) return;
    NodeId left = b.Child(n, label);
    grow(left, d - 1);
    NodeId right = b.Child(n, label);
    grow(right, d - 1);
  };
  grow(root, depth);
  return b.Build();
}

Tree ChildrenWord(const std::string& root_label,
                  const std::vector<std::string>& child_labels) {
  TreeBuilder b;
  NodeId root = b.Root(root_label);
  for (const std::string& l : child_labels) b.Child(root, l);
  return b.Build();
}

Tree PaperExample32Tree() {
  return ChildrenWord("a", {"a", "a", "a"});
}

Tree PaperFigure1Tree() {
  TreeBuilder b;
  NodeId n1 = b.Root("a");
  b.Child(n1, "a");            // n2
  NodeId n3 = b.Child(n1, "a");
  b.Child(n3, "a");            // n4
  b.Child(n3, "a");            // n5
  b.Child(n1, "a");            // n6
  return b.Build();
}

Tree PaperExample49Tree() {
  return ChildrenWord("a", {"a", "a"});
}

}  // namespace mdatalog::tree
