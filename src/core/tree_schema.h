#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/tree/tree.h"

/// \file tree_schema.h
/// The tree-schema predicates — the schemata τ_rk / τ_ur of Section 2 plus
/// the Section 5/6 extensions — and what each one means on a tree. This is
/// the one place that knows it:
///
///   τ_ur:   root/1, leaf/1, lastsibling/1, label_<l>/1,
///           firstchild/2, nextsibling/2
///   τ_rk:   child1/2 … child<K>/2 (child_k of Section 2)
///   ext:    firstsibling/1, child/2, lastchild/2,
///           nextsibling_tc/2 (the reflexive-transitive closure nextsibling*
///           used by the TMNF chase, Lemma 5.5)
///
/// ClassifyTreePredicate maps a name and arity to a TreePred — one of the
/// kinds root, leaf, firstsibling, lastsibling, label (unary) and
/// firstchild, nextsibling, child, child_k, lastchild, nextsibling_tc
/// (binary), with k for child_k. Readers switch on TreePred and read its
/// meaning from HoldsUnary / StepForward / StepBackward; no reader compares
/// a predicate name with a tree predicate's spelling. Emitters spell names
/// (`MustIntern("child", 2)`, LabelPredName).
///
/// label_<l> for a label l not occurring in a tree is the empty relation,
/// consistent with the infinite-alphabet reading of Remark 2.2.

namespace mdatalog::core {

/// What a tree-schema predicate means: its kind, and for child_k its k.
struct TreePred {
  // The binary kinds come first, numbered from 0: the grounder's per-step
  // switch over them is hot, and with the unary kinds first a catalog
  // page's evaluation measured 3% slower.
  enum class Kind : uint8_t {
    // Binary.
    kFirstChild,
    kNextSibling,
    kChildK,
    kChild,
    kLastChild,
    kNextSiblingTc,
    // Unary.
    kRoot,
    kLeaf,
    kLastSibling,
    kFirstSibling,
    kLabel,  ///< label_<l>; the label is LabelFromPredName(name)
  };
  Kind kind = Kind::kRoot;
  int32_t k = 0;  ///< kChildK: the child position (>= 1); else 0

  bool unary() const { return kind >= Kind::kRoot; }
  bool operator==(const TreePred&) const = default;
};
static_assert(sizeof(TreePred) == 8);

/// The meaning of `name`/`arity` if it is one of the tree-schema predicates
/// above, else nullopt (child0, child<k> beyond INT32_MAX, "label_" with no
/// label, a wrong arity).
std::optional<TreePred> ClassifyTreePredicate(std::string_view name,
                                              int32_t arity);

/// True iff `name`/`arity` is one of the tree-schema predicates above.
bool IsTreePredicate(const std::string& name, int32_t arity);

/// Whether `p` is in the schema TMNF programs read (Definition 5.1): root,
/// leaf, lastsibling and the labels, with firstchild and nextsibling (τ_ur)
/// or, when `ranked`, child_k (τ_rk).
bool InTmnfSchema(const TreePred& p, bool ranked);

/// Name of the label predicate for label `l` ("label_" + l).
std::string LabelPredName(const std::string& label);
/// If `name` is a label predicate, returns the label; otherwise "".
std::string LabelFromPredName(const std::string& name);
/// If `name` is child<k> (1 <= k <= INT32_MAX), returns k; otherwise -1.
int32_t ChildKIndex(const std::string& name);

// The meaning of each kind on a tree. TreeT is tree::Tree or any view with
// its navigation interface (the incremental replay's growing tree).

/// Whether the unary predicate `kind` holds of node n; `label` is the label
/// id a kLabel test reads, resolved against t's alphabet. False for binary
/// kinds.
template <typename TreeT>
bool HoldsUnary(const TreeT& t, TreePred::Kind kind, tree::LabelId label,
                tree::NodeId n) {
  switch (kind) {
    case TreePred::Kind::kRoot: return t.IsRoot(n);
    case TreePred::Kind::kLeaf: return t.IsLeaf(n);
    case TreePred::Kind::kFirstSibling: return t.IsFirstSibling(n);
    case TreePred::Kind::kLastSibling: return t.IsLastSibling(n);
    case TreePred::Kind::kLabel: return t.label(n) == label;
    default: return false;
  }
}

/// The y with r(x, y) where r is functional forward (Proposition 4.1:
/// firstchild, nextsibling, child_k, and lastchild), or kNoNode. child and
/// nextsibling_tc are not functional forward: callers enumerate them.
template <typename TreeT>
tree::NodeId StepForward(const TreeT& t, TreePred r, tree::NodeId x) {
  switch (r.kind) {
    case TreePred::Kind::kFirstChild: return t.first_child(x);
    case TreePred::Kind::kNextSibling: return t.next_sibling(x);
    case TreePred::Kind::kChildK: return t.ChildK(x, r.k);
    case TreePred::Kind::kLastChild: return t.last_child(x);
    default: return tree::kNoNode;
  }
}

/// The x with r(x, y), or kNoNode. Every binary kind but nextsibling_tc is
/// functional backward: the parent of a first, k-th or last child, or of
/// any child, and the previous sibling.
template <typename TreeT>
tree::NodeId StepBackward(const TreeT& t, TreePred r, tree::NodeId y) {
  switch (r.kind) {
    case TreePred::Kind::kFirstChild:
      return t.prev_sibling(y) == tree::kNoNode ? t.parent(y) : tree::kNoNode;
    case TreePred::Kind::kNextSibling:
      return t.prev_sibling(y);
    case TreePred::Kind::kChild:
      return t.parent(y);
    case TreePred::Kind::kChildK: {
      // y must be exactly the k-th child of its parent.
      tree::NodeId c = y;
      for (int32_t steps = 1; steps < r.k; ++steps) {
        c = t.prev_sibling(c);
        if (c == tree::kNoNode) return tree::kNoNode;
      }
      return t.prev_sibling(c) == tree::kNoNode ? t.parent(y) : tree::kNoNode;
    }
    case TreePred::Kind::kLastChild:
      return t.IsLastSibling(y) ? t.parent(y) : tree::kNoNode;
    default: return tree::kNoNode;
  }
}

}  // namespace mdatalog::core
