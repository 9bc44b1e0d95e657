#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/nodeset.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file database.h
/// Extensional databases: relation storage plus the two ways an EDB arises in
/// this library — explicitly (arbitrary finite structures, Section 3.2) or as
/// the relational view of a tree (the schemata τ_rk / τ_ur of Section 2, plus
/// the Section 5/6 extensions child, lastchild, firstsibling, nextsibling*).

namespace mdatalog::core {

/// A finite relation of arity 0..2 over domain {0..domain_size-1}, with the
/// access paths the evaluators need. Arity 0 relations are "true/false"
/// (tuples empty or one empty tuple).
class Relation {
 public:
  explicit Relation(int32_t arity, int32_t domain_size)
      : arity_(arity), domain_size_(domain_size) {}

  int32_t arity() const { return arity_; }
  int32_t domain_size() const { return domain_size_; }

  void AddUnary(int32_t a);
  void AddBinary(int32_t a, int32_t b);
  void SetNullaryTrue() { nullary_true_ = true; }

  bool nullary_true() const { return nullary_true_; }
  bool ContainsUnary(int32_t a) const;
  bool ContainsBinary(int32_t a, int32_t b) const;

  /// All members of a unary relation.
  const std::vector<int32_t>& unary_tuples() const { return unary_; }
  /// All pairs of a binary relation.
  const std::vector<std::pair<int32_t, int32_t>>& binary_tuples() const {
    return pairs_;
  }
  /// Successors of `a` (pairs (a, b)).
  const std::vector<int32_t>& Forward(int32_t a) const;
  /// Predecessors of `b` (pairs (a, b)).
  const std::vector<int32_t>& Backward(int32_t b) const;

  /// True iff every element has at most one successor (predecessor). The
  /// binary tree predicates firstchild / nextsibling / child_k are functional
  /// in both directions (Proposition 4.1); the compiled engine exploits this
  /// with O(1) array probes instead of adjacency-list walks.
  bool forward_functional() const { return fwd_functional_; }
  bool backward_functional() const { return bwd_functional_; }
  /// The unique successor of `a`, or -1. Requires forward_functional().
  int32_t ForwardOne(int32_t a) const {
    MD_DCHECK(fwd_functional_);
    return (a < 0 || a >= domain_size_ || fwd_fn_.empty()) ? -1 : fwd_fn_[a];
  }
  /// The unique predecessor of `b`, or -1. Requires backward_functional().
  int32_t BackwardOne(int32_t b) const {
    MD_DCHECK(bwd_functional_);
    return (b < 0 || b >= domain_size_ || bwd_fn_.empty()) ? -1 : bwd_fn_[b];
  }

  int64_t size() const {
    if (arity_ == 0) return nullary_true_ ? 1 : 0;
    if (arity_ == 1) return static_cast<int64_t>(unary_.size());
    return static_cast<int64_t>(pairs_.size());
  }

 private:
  int32_t arity_;
  int32_t domain_size_;
  bool nullary_true_ = false;
  // unary
  std::vector<int32_t> unary_;
  NodeSet unary_set_;
  // binary
  std::vector<std::pair<int32_t, int32_t>> pairs_;
  std::vector<std::vector<int32_t>> fwd_;
  std::vector<std::vector<int32_t>> bwd_;
  // functional fast path: y = fwd_fn_[x] / x = bwd_fn_[y], -1 = no image;
  // valid only while the corresponding *_functional_ flag holds.
  std::vector<int32_t> fwd_fn_;
  std::vector<int32_t> bwd_fn_;
  bool fwd_functional_ = true;
  bool bwd_functional_ = true;
  static const std::vector<int32_t> kEmpty;
};

/// Hash for the (name, arity) relation keys of the databases below.
struct RelKeyHash {
  size_t operator()(const std::pair<std::string, int32_t>& k) const {
    return std::hash<std::string>{}(k.first) * 31 +
           static_cast<size_t>(k.second);
  }
};

/// Where extensional facts come from. Implementations return nullptr for
/// predicates with no extension (legal: such predicates are empty).
class EdbSource {
 public:
  virtual ~EdbSource() = default;
  /// Relation for predicate `name` of the given arity, or nullptr if empty.
  virtual const Relation* Get(const std::string& name, int32_t arity) const = 0;
  /// Domain size (constants and variables range over 0..DomainSize()-1).
  virtual int32_t DomainSize() const = 0;
};

/// An arbitrary finite structure, stated fact by fact.
class ExplicitDatabase : public EdbSource {
 public:
  explicit ExplicitDatabase(int32_t domain_size) : domain_size_(domain_size) {}

  void AddFact(const std::string& pred);                          // arity 0
  void AddFact(const std::string& pred, int32_t a);               // arity 1
  void AddFact(const std::string& pred, int32_t a, int32_t b);    // arity 2

  const Relation* Get(const std::string& name, int32_t arity) const override;
  int32_t DomainSize() const override { return domain_size_; }

 private:
  Relation* GetOrCreate(const std::string& name, int32_t arity);
  int32_t domain_size_;
  std::unordered_map<std::pair<std::string, int32_t>, Relation, RelKeyHash>
      rels_;
};

/// The relational view of a tree. Serves, lazily materialized:
///
///   τ_ur:   root/1, leaf/1, lastsibling/1, label_<l>/1,
///           firstchild/2, nextsibling/2
///   τ_rk:   child1/2 … child<K>/2 (child_k of Section 2)
///   ext:    firstsibling/1, child/2, lastchild/2,
///           nextsibling_tc/2 (the reflexive-transitive closure nextsibling*
///           used by the TMNF chase, Lemma 5.5)
///
/// label_<l> for a label l not occurring in the tree is the empty relation,
/// consistent with the infinite-alphabet reading of Remark 2.2.
///
/// Thread safety: the lazy materialization cache is mutex-guarded, so a
/// single TreeDatabase may serve concurrent Get() calls from many evaluation
/// threads. Returned Relation pointers stay valid for the database's
/// lifetime — the node-based map never invalidates values — and Relations
/// are immutable once published. The lock is only taken on the Get path,
/// which engines hit once per (program, atom) at plan-compile time, never
/// per tuple.
class TreeDatabase : public EdbSource {
 public:
  explicit TreeDatabase(const tree::Tree& t) : tree_(t) {}
  // The database only references the tree; binding a temporary would dangle.
  explicit TreeDatabase(tree::Tree&&) = delete;

  const Relation* Get(const std::string& name, int32_t arity) const override;
  int32_t DomainSize() const override { return tree_.size(); }

  const tree::Tree& tree() const { return tree_; }

  /// True iff `name`/`arity` is one of the tree-schema predicate names above.
  static bool IsTreePredicate(const std::string& name, int32_t arity);

 private:
  /// Requires mu_ held.
  const Relation* Materialize(const std::string& name, int32_t arity) const;

  const tree::Tree& tree_;
  mutable std::mutex mu_;
  mutable std::unordered_map<std::pair<std::string, int32_t>, Relation,
                             RelKeyHash>
      cache_;
};

/// Name of the label predicate for label `l` ("label_" + l).
std::string LabelPredName(const std::string& label);
/// If `name` is a label predicate, returns the label; otherwise "".
std::string LabelFromPredName(const std::string& name);
/// If `name` is child<k> (1 <= k <= INT32_MAX), returns k; otherwise -1.
int32_t ChildKIndex(const std::string& name);

}  // namespace mdatalog::core
