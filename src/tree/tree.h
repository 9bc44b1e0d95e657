#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/check.h"
#include "src/util/interner.h"

/// \file tree.h
/// Finite ordered labeled trees — the data model of the paper (Section 2).
///
/// A Tree is a structure-of-arrays node arena: six parallel int32 columns
/// (parent, first_child, last_child, prev_sibling, next_sibling, label — the
/// untangle `baseTree_t` idiom of preallocated uint32 arrays), an optional
/// text payload per node, and an interned label alphabet Σ. Every column is
/// offsets-not-pointers, so a finished tree freezes into one relocatable
/// blob: the accessors read through column pointers that reference either
/// the tree's own vectors (built trees) or an external read-only region
/// (frozen trees mmap'd back by src/store/ — zero copies, zero parsing).
///
/// The accessors expose exactly the relations of the unranked tree schema
///   τ_ur = ⟨dom, root, leaf, (label_a), firstchild, nextsibling, lastsibling⟩
/// plus the derived relations child, lastchild and firstsibling used in
/// Section 5/6. The pair (firstchild, nextsibling) *is* the binary encoding of
/// Figure 1; see binary.h for the explicit encode/decode round trip.

namespace mdatalog::tree {

/// Node handle: index into the tree's node arena. Stable for the lifetime of
/// the tree.
using NodeId = int32_t;
/// Interned label (alphabet symbol).
using LabelId = util::SymbolId;

inline constexpr NodeId kNoNode = -1;

/// An immutable ordered labeled tree with at least one node (the paper's
/// trees are nonempty). Build with TreeBuilder, or rehydrate a frozen one
/// with FromFrozenView.
class Tree {
 public:
  Tree() = default;
  Tree(const Tree& other) { *this = other; }
  Tree(Tree&& other) noexcept { *this = std::move(other); }
  Tree& operator=(const Tree& other);
  Tree& operator=(Tree&& other) noexcept;

  /// Borrowed column views over a frozen tree blob. All arrays have
  /// `num_nodes` entries except text_offsets (num_nodes + 1, prefix offsets
  /// into text_base; both may be null when no node carries text). The
  /// referenced memory must outlive every Tree built from the view — the
  /// corpus store keeps its mapping alive for exactly this reason.
  struct FrozenView {
    int32_t num_nodes = 0;
    const int32_t* parent = nullptr;
    const int32_t* first_child = nullptr;
    const int32_t* last_child = nullptr;
    const int32_t* prev_sibling = nullptr;
    const int32_t* next_sibling = nullptr;
    const int32_t* label = nullptr;
    const uint32_t* text_offsets = nullptr;
    const char* text_base = nullptr;
  };
  /// A zero-copy tree over `view`: node columns and texts are read in place;
  /// only the (small) label alphabet is owned. See src/store/.
  static Tree FromFrozenView(const FrozenView& view, util::Interner labels);

  /// The tree's own columns, for freezing. Valid while the tree is alive.
  /// Texts are not part of the view (built trees hold them per node) — a
  /// packer serializes them through text().
  struct Columns {
    const int32_t* parent;
    const int32_t* first_child;
    const int32_t* last_child;
    const int32_t* prev_sibling;
    const int32_t* next_sibling;
    const int32_t* label;
  };
  Columns columns() const {
    return {parent_, first_child_, last_child_, prev_sibling_, next_sibling_,
            label_};
  }
  /// True iff the node columns live in an external (mmap'd) region.
  bool frozen() const { return frozen_; }

  /// Number of nodes, |dom|.
  int32_t size() const { return size_; }

  /// The unique root node.
  NodeId root() const { return 0; }

  // --- τ_ur relations ------------------------------------------------------

  bool IsRoot(NodeId n) const { return n == 0; }
  bool IsLeaf(NodeId n) const { return first_child(n) == kNoNode; }
  /// lastsibling: n is the rightmost child of its parent. The root is *not*
  /// a last sibling (it has no parent) — paper, Section 2.
  bool IsLastSibling(NodeId n) const {
    return n != 0 && next_sibling(n) == kNoNode;
  }
  /// firstsibling: symmetric to lastsibling (used by Elog⁻, Definition 6.2).
  bool IsFirstSibling(NodeId n) const {
    return n != 0 && prev_sibling(n) == kNoNode;
  }

  LabelId label(NodeId n) const {
    MD_DCHECK(InRange(n));
    return label_[n];
  }
  const std::string& label_name(NodeId n) const {
    return labels_.Name(label(n));
  }
  bool HasLabel(NodeId n, std::string_view name) const {
    return labels_.Find(name) == label(n);
  }

  NodeId parent(NodeId n) const {
    MD_DCHECK(InRange(n));
    return parent_[n];
  }
  NodeId first_child(NodeId n) const {
    MD_DCHECK(InRange(n));
    return first_child_[n];
  }
  NodeId last_child(NodeId n) const {
    MD_DCHECK(InRange(n));
    return last_child_[n];
  }
  NodeId next_sibling(NodeId n) const {
    MD_DCHECK(InRange(n));
    return next_sibling_[n];
  }
  NodeId prev_sibling(NodeId n) const {
    MD_DCHECK(InRange(n));
    return prev_sibling_[n];
  }

  // --- derived navigation --------------------------------------------------

  /// Children of n in sibling order. O(#children).
  std::vector<NodeId> Children(NodeId n) const;
  int32_t NumChildren(NodeId n) const;
  /// k-th child (1-based, as in the paper's child_k), or kNoNode.
  NodeId ChildK(NodeId n, int32_t k) const;
  /// Depth of n (root has depth 0).
  int32_t Depth(NodeId n) const;
  /// True iff `anc` is a proper ancestor of `n`.
  bool IsAncestor(NodeId anc, NodeId n) const;

  /// All nodes in document order (preorder, Example 2.5). O(size).
  std::vector<NodeId> Preorder() const;
  /// rank[n] = position of node n in document order.
  std::vector<int32_t> PreorderRanks() const;
  /// Maximum number of children over all nodes.
  int32_t MaxArity() const;
  /// Height (leaves-only tree has height 0).
  int32_t Height() const;

  // --- payload / alphabet --------------------------------------------------

  /// Text payload of n ("" unless set; used for HTML character data). For
  /// frozen trees this is a view into the mapped blob — no copy.
  std::string_view text(NodeId n) const {
    MD_DCHECK(InRange(n));
    if (frozen_) {
      if (text_offsets_ == nullptr) return {};
      return std::string_view(text_base_ + text_offsets_[n],
                              text_offsets_[n + 1] - text_offsets_[n]);
    }
    if (static_cast<size_t>(n) < texts_.size()) return texts_[n];
    return {};
  }
  bool HasText(NodeId n) const { return !text(n).empty(); }

  const util::Interner& labels() const { return labels_; }
  /// Label id for `name` in this tree's alphabet, or util::kInvalidSymbol.
  LabelId FindLabel(std::string_view name) const { return labels_.Find(name); }
  /// Concatenated text of n's subtree in document order.
  std::string SubtreeText(NodeId n) const;
  /// Approximate heap footprint in bytes (nodes, texts, label alphabet) —
  /// used by the serving runtime's document-cache byte accounting. Frozen
  /// trees report only their owned heap (the label alphabet): the node
  /// columns and texts live in the store's shared, kernel-reclaimable
  /// mapping, which the cache deliberately does not charge against its heap
  /// budget.
  int64_t ApproxBytes() const;

 private:
  friend class TreeBuilder;

  bool InRange(NodeId n) const {
    return n >= 0 && n < size_;
  }
  /// Points the column views at the owned vectors (no-op for frozen trees,
  /// whose views reference external memory). Must be called after any
  /// member-wise copy/move — vector buffers move with their vector, but a
  /// copy reallocates.
  void Rebind();

  int32_t size_ = 0;
  bool frozen_ = false;

  // Column views the accessors read; never null for a nonempty tree.
  const int32_t* parent_ = nullptr;
  const int32_t* first_child_ = nullptr;
  const int32_t* last_child_ = nullptr;
  const int32_t* prev_sibling_ = nullptr;
  const int32_t* next_sibling_ = nullptr;
  const int32_t* label_ = nullptr;
  const uint32_t* text_offsets_ = nullptr;  // frozen only; size_ + 1 entries
  const char* text_base_ = nullptr;         // frozen only

  // Owned storage (built trees; empty when frozen).
  std::vector<int32_t> own_parent_, own_first_child_, own_last_child_;
  std::vector<int32_t> own_prev_sibling_, own_next_sibling_, own_label_;
  std::vector<std::string> texts_;  // may be shorter than size_ (lazy)

  util::Interner labels_;
};

/// Incremental construction of a Tree. Nodes are created root-first; children
/// are appended in left-to-right order. NodeIds are assigned in creation
/// order, so building in document order (as all parsers and generators here
/// do) makes NodeId order coincide with document order — but no code relies
/// on that; use Tree::PreorderRanks for order-sensitive logic.
class TreeBuilder {
 public:
  /// Creates the root. Must be called exactly once, first.
  NodeId Root(std::string_view label);
  /// Appends a new rightmost child under `parent`.
  NodeId Child(NodeId parent, std::string_view label);
  /// Sets the text payload of a node.
  void SetText(NodeId n, std::string_view text);

  int32_t size() const { return static_cast<int32_t>(tree_.own_label_.size()); }
  bool has_root() const { return !tree_.own_label_.empty(); }

  // Read access to the partially-built tree. The streaming front (src/stream/)
  // emits results for nodes whose subtrees have closed while later siblings
  // are still being parsed — these let it read labels/texts/structure without
  // finalizing the builder.
  NodeId parent(NodeId n) const { return At(tree_.own_parent_, n); }
  NodeId first_child(NodeId n) const { return At(tree_.own_first_child_, n); }
  NodeId last_child(NodeId n) const { return At(tree_.own_last_child_, n); }
  NodeId prev_sibling(NodeId n) const { return At(tree_.own_prev_sibling_, n); }
  NodeId next_sibling(NodeId n) const { return At(tree_.own_next_sibling_, n); }
  LabelId label(NodeId n) const { return At(tree_.own_label_, n); }
  const std::string& label_name(NodeId n) const {
    return tree_.labels_.Name(label(n));
  }
  std::string_view text(NodeId n) const {
    if (static_cast<size_t>(n) < tree_.texts_.size()) return tree_.texts_[n];
    return {};
  }

  /// Finalizes the tree. The builder must not be reused afterwards.
  Tree Build();
  /// Finalizes the tree without its root, whose only child becomes the new
  /// root: every column shifts down by one id (O(n), no copy of labels or
  /// texts), and the root's label leaves the alphabet unless another node
  /// carries it. When nodes were created in document order — as every
  /// parser here does — this is the subtree copy of the root's child, same
  /// ids and same label order. The root must have exactly one child.
  Tree BuildDroppingRoot();

 private:
  int32_t At(const std::vector<int32_t>& col, NodeId n) const {
    MD_DCHECK(n >= 0 && static_cast<size_t>(n) < col.size());
    return col[n];
  }

  Tree tree_;
};

/// Visits the subtree of `t` rooted at `n` in document order without
/// recursion or an explicit stack (it climbs the parent column): enter(m) on
/// the way down, leave(m) once m's whole subtree has been visited. Depth is
/// unbounded — HTML pages can nest arbitrarily deep.
template <typename Enter, typename Leave>
void WalkSubtree(const Tree& t, NodeId n, Enter&& enter, Leave&& leave) {
  NodeId m = n;
  for (;;) {
    enter(m);
    if (const NodeId c = t.first_child(m); c != kNoNode) {
      m = c;
      continue;
    }
    for (;;) {
      leave(m);
      if (m == n) return;
      if (const NodeId s = t.next_sibling(m); s != kNoNode) {
        m = s;
        break;
      }
      m = t.parent(m);
    }
  }
}

/// Structural + label + text equality (labels compared by name, so trees with
/// different interners compare correctly).
bool TreesEqual(const Tree& a, const Tree& b);

/// One-line debug rendering, e.g. "a(b,c(d))".
std::string ToDebugString(const Tree& t);

}  // namespace mdatalog::tree
