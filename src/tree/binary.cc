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
