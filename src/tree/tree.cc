#include "src/tree/tree.h"

#include <algorithm>
#include <utility>

namespace mdatalog::tree {

Tree& Tree::operator=(const Tree& other) {
  if (this == &other) return *this;
  size_ = other.size_;
  frozen_ = other.frozen_;
  parent_ = other.parent_;
  first_child_ = other.first_child_;
  last_child_ = other.last_child_;
  prev_sibling_ = other.prev_sibling_;
  next_sibling_ = other.next_sibling_;
  label_ = other.label_;
  text_offsets_ = other.text_offsets_;
  text_base_ = other.text_base_;
  own_parent_ = other.own_parent_;
  own_first_child_ = other.own_first_child_;
  own_last_child_ = other.own_last_child_;
  own_prev_sibling_ = other.own_prev_sibling_;
  own_next_sibling_ = other.own_next_sibling_;
  own_label_ = other.own_label_;
  texts_ = other.texts_;
  labels_ = other.labels_;
  Rebind();
  return *this;
}

Tree& Tree::operator=(Tree&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  frozen_ = other.frozen_;
  parent_ = other.parent_;
  first_child_ = other.first_child_;
  last_child_ = other.last_child_;
  prev_sibling_ = other.prev_sibling_;
  next_sibling_ = other.next_sibling_;
  label_ = other.label_;
  text_offsets_ = other.text_offsets_;
  text_base_ = other.text_base_;
  own_parent_ = std::move(other.own_parent_);
  own_first_child_ = std::move(other.own_first_child_);
  own_last_child_ = std::move(other.own_last_child_);
  own_prev_sibling_ = std::move(other.own_prev_sibling_);
  own_next_sibling_ = std::move(other.own_next_sibling_);
  own_label_ = std::move(other.own_label_);
  texts_ = std::move(other.texts_);
  labels_ = std::move(other.labels_);
  other.size_ = 0;
  other.Rebind();
  Rebind();
  return *this;
}

void Tree::Rebind() {
  if (frozen_) return;  // views reference external memory; nothing to fix
  parent_ = own_parent_.data();
  first_child_ = own_first_child_.data();
  last_child_ = own_last_child_.data();
  prev_sibling_ = own_prev_sibling_.data();
  next_sibling_ = own_next_sibling_.data();
  label_ = own_label_.data();
  size_ = static_cast<int32_t>(own_label_.size());
}

Tree Tree::FromFrozenView(const FrozenView& view, util::Interner labels) {
  MD_CHECK(view.num_nodes > 0);
  Tree t;
  t.frozen_ = true;
  t.size_ = view.num_nodes;
  t.parent_ = view.parent;
  t.first_child_ = view.first_child;
  t.last_child_ = view.last_child;
  t.prev_sibling_ = view.prev_sibling;
  t.next_sibling_ = view.next_sibling;
  t.label_ = view.label;
  t.text_offsets_ = view.text_offsets;
  t.text_base_ = view.text_base;
  t.labels_ = std::move(labels);
  return t;
}

std::vector<NodeId> Tree::Children(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNoNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

int32_t Tree::NumChildren(NodeId n) const {
  int32_t count = 0;
  for (NodeId c = first_child(n); c != kNoNode; c = next_sibling(c)) {
    ++count;
  }
  return count;
}

NodeId Tree::ChildK(NodeId n, int32_t k) const {
  MD_DCHECK(k >= 1);
  NodeId c = first_child(n);
  for (int32_t i = 1; i < k && c != kNoNode; ++i) c = next_sibling(c);
  return c;
}

int32_t Tree::Depth(NodeId n) const {
  int32_t d = 0;
  for (NodeId p = parent(n); p != kNoNode; p = parent(p)) ++d;
  return d;
}

bool Tree::IsAncestor(NodeId anc, NodeId n) const {
  for (NodeId p = parent(n); p != kNoNode; p = parent(p)) {
    if (p == anc) return true;
  }
  return false;
}

std::vector<NodeId> Tree::Preorder() const {
  std::vector<NodeId> order;
  order.reserve(size_);
  WalkSubtree(
      *this, root(), [&](NodeId n) { order.push_back(n); }, [](NodeId) {});
  return order;
}

std::vector<int32_t> Tree::PreorderRanks() const {
  std::vector<int32_t> rank(size_, 0);
  std::vector<NodeId> order = Preorder();
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<int32_t>(i);
  }
  return rank;
}

int32_t Tree::MaxArity() const {
  int32_t best = 0;
  for (NodeId n = 0; n < size(); ++n) {
    best = std::max(best, NumChildren(n));
  }
  return best;
}

int32_t Tree::Height() const {
  int32_t best = 0;
  for (NodeId n = 0; n < size(); ++n) {
    if (IsLeaf(n)) best = std::max(best, Depth(n));
  }
  return best;
}

std::string Tree::SubtreeText(NodeId n) const {
  std::string out;
  WalkSubtree(
      *this, n, [&](NodeId m) { out += text(m); }, [](NodeId) {});
  return out;
}

int64_t Tree::ApproxBytes() const {
  int64_t bytes = labels_.ApproxBytes();
  if (frozen_) return bytes + static_cast<int64_t>(sizeof(Tree));
  for (const auto* col :
       {&own_parent_, &own_first_child_, &own_last_child_, &own_prev_sibling_,
        &own_next_sibling_, &own_label_}) {
    bytes += static_cast<int64_t>(col->capacity()) * sizeof(int32_t);
  }
  bytes += static_cast<int64_t>(texts_.capacity()) * sizeof(std::string);
  for (const std::string& t : texts_) {
    bytes += static_cast<int64_t>(t.capacity());
  }
  return bytes;
}

NodeId TreeBuilder::Root(std::string_view label) {
  MD_CHECK(tree_.own_label_.empty());
  tree_.own_parent_.push_back(kNoNode);
  tree_.own_first_child_.push_back(kNoNode);
  tree_.own_last_child_.push_back(kNoNode);
  tree_.own_prev_sibling_.push_back(kNoNode);
  tree_.own_next_sibling_.push_back(kNoNode);
  tree_.own_label_.push_back(tree_.labels_.Intern(label));
  return 0;
}

NodeId TreeBuilder::Child(NodeId parent, std::string_view label) {
  MD_CHECK(!tree_.own_label_.empty());
  MD_CHECK(parent >= 0 &&
           static_cast<size_t>(parent) < tree_.own_label_.size());
  const NodeId id = static_cast<NodeId>(tree_.own_label_.size());
  const NodeId prev = tree_.own_last_child_[parent];
  tree_.own_parent_.push_back(parent);
  tree_.own_first_child_.push_back(kNoNode);
  tree_.own_last_child_.push_back(kNoNode);
  tree_.own_prev_sibling_.push_back(prev);
  tree_.own_next_sibling_.push_back(kNoNode);
  tree_.own_label_.push_back(tree_.labels_.Intern(label));
  if (prev == kNoNode) {
    tree_.own_first_child_[parent] = id;
  } else {
    tree_.own_next_sibling_[prev] = id;
  }
  tree_.own_last_child_[parent] = id;
  return id;
}

void TreeBuilder::SetText(NodeId n, std::string_view text) {
  MD_CHECK(n >= 0 && static_cast<size_t>(n) < tree_.own_label_.size());
  if (tree_.texts_.size() <= static_cast<size_t>(n)) {
    tree_.texts_.resize(n + 1);
  }
  tree_.texts_[n] = std::string(text);
}

Tree TreeBuilder::Build() {
  MD_CHECK(!tree_.own_label_.empty());
  tree_.Rebind();
  return std::move(tree_);
}

namespace {

/// The column entry for an id one below: references to the dropped root
/// (id 0) become kNoNode.
int32_t ShiftDown(int32_t v) { return v > 0 ? v - 1 : kNoNode; }

}  // namespace

Tree TreeBuilder::BuildDroppingRoot() {
  Tree& t = tree_;
  MD_CHECK(t.own_label_.size() >= 2 && t.own_first_child_[0] == 1 &&
           t.own_last_child_[0] == 1);
  for (auto* col : {&t.own_parent_, &t.own_first_child_, &t.own_last_child_,
                    &t.own_prev_sibling_, &t.own_next_sibling_}) {
    col->erase(col->begin());
    for (int32_t& v : *col) v = ShiftDown(v);
  }
  const LabelId dropped = t.own_label_[0];
  t.own_label_.erase(t.own_label_.begin());
  if (std::find(t.own_label_.begin(), t.own_label_.end(), dropped) ==
      t.own_label_.end()) {
    t.labels_.Erase(dropped);
    for (LabelId& l : t.own_label_) {
      if (l > dropped) --l;
    }
  }
  if (!t.texts_.empty()) t.texts_.erase(t.texts_.begin());
  return Build();
}

bool TreesEqual(const Tree& a, const Tree& b) {
  if (a.size() != b.size()) return false;
  // A preorder sequence of (label, text, child count) determines an ordered
  // tree, so comparing the two sequences compares the trees.
  const std::vector<NodeId> pa = a.Preorder();
  const std::vector<NodeId> pb = b.Preorder();
  for (size_t i = 0; i < pa.size(); ++i) {
    if (a.label_name(pa[i]) != b.label_name(pb[i]) ||
        a.text(pa[i]) != b.text(pb[i]) ||
        a.NumChildren(pa[i]) != b.NumChildren(pb[i])) {
      return false;
    }
  }
  return true;
}

std::string ToDebugString(const Tree& t) {
  std::string out;
  WalkSubtree(
      t, t.root(),
      [&](NodeId n) {
        if (n != t.root() && t.prev_sibling(n) != kNoNode) out += ',';
        out += t.label_name(n);
        if (!t.IsLeaf(n)) out += '(';
      },
      [&](NodeId n) {
        if (!t.IsLeaf(n)) out += ')';
      });
  return out;
}

}  // namespace mdatalog::tree
