#include "src/tree/binary.h"

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

std::string ToDebugString(const BinaryTree& b) {
  std::string out;
  for (size_t n = 0; n < b.nodes.size(); ++n) {
    if (b.nodes[n].left != kNoNode) {
      out.append("n").append(std::to_string(n)).append(" -fc-> n");
      out.append(std::to_string(b.nodes[n].left)).append("\n");
    }
    if (b.nodes[n].right != kNoNode) {
      out.append("n").append(std::to_string(n)).append(" -ns-> n");
      out.append(std::to_string(b.nodes[n].right)).append("\n");
    }
  }
  return out;
}

}  // namespace mdatalog::tree
