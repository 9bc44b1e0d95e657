#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/nodeset.h"
#include "src/core/tree_schema.h"
#include "src/tree/tree.h"

/// \file edb.h
/// Extensional databases for the reference oracle (reference_eval.h):
/// relation storage plus the two ways an EDB arises — explicitly (arbitrary
/// finite structures, Section 3.2) or as the relational view of a tree (the
/// predicates of tree_schema.h). The grounded engine reads the tree itself
/// and never materializes a relation; these views exist so the oracle shares
/// nothing with it.

namespace mdatalog::core {

/// A finite relation of arity 0..2 over domain {0..domain_size-1}, with the
/// access paths the oracle's joins need. Arity 0 relations are "true/false"
/// (tuples empty or one empty tuple).
class Relation {
 public:
  explicit Relation(int32_t arity, int32_t domain_size)
      : arity_(arity), domain_size_(domain_size) {}

  int32_t arity() const { return arity_; }

  void AddUnary(int32_t a);
  void AddBinary(int32_t a, int32_t b);
  void SetNullaryTrue() { nullary_true_ = true; }

  bool nullary_true() const { return nullary_true_; }
  bool ContainsUnary(int32_t a) const;
  bool ContainsBinary(int32_t a, int32_t b) const;

  /// All members of a unary relation, in insertion order.
  const std::vector<int32_t>& unary_tuples() const { return unary_; }
  /// All pairs of a binary relation, in insertion order.
  const std::vector<std::pair<int32_t, int32_t>>& binary_tuples() const {
    return pairs_;
  }
  /// Successors of `a` (pairs (a, b)).
  const std::vector<int32_t>& Forward(int32_t a) const;
  /// Predecessors of `b` (pairs (a, b)).
  const std::vector<int32_t>& Backward(int32_t b) const;

  int64_t size() const {
    if (arity_ == 0) return nullary_true_ ? 1 : 0;
    if (arity_ == 1) return static_cast<int64_t>(unary_.size());
    return static_cast<int64_t>(pairs_.size());
  }

 private:
  int32_t arity_;
  int32_t domain_size_;
  bool nullary_true_ = false;
  std::vector<int32_t> unary_;
  NodeSet unary_set_;
  std::vector<std::pair<int32_t, int32_t>> pairs_;
  std::vector<std::vector<int32_t>> fwd_;
  std::vector<std::vector<int32_t>> bwd_;
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

  void AddFact(const std::string& pred);                        // arity 0
  void AddFact(const std::string& pred, int32_t a);             // arity 1
  void AddFact(const std::string& pred, int32_t a, int32_t b);  // arity 2

  const Relation* Get(const std::string& name, int32_t arity) const override;
  int32_t DomainSize() const override { return domain_size_; }

 private:
  int32_t domain_size_;
  std::unordered_map<std::pair<std::string, int32_t>, Relation, RelKeyHash>
      rels_;
};

/// The relational view of a tree: every predicate of tree_schema.h,
/// materialized on first Get. Other names (and tree names at the wrong
/// arity) have no extension. Not thread-safe: Get fills a cache.
class TreeDatabase : public EdbSource {
 public:
  explicit TreeDatabase(const tree::Tree& t) : tree_(t) {}
  // The database only references the tree; binding a temporary would dangle.
  explicit TreeDatabase(tree::Tree&&) = delete;

  const Relation* Get(const std::string& name, int32_t arity) const override;
  int32_t DomainSize() const override { return tree_.size(); }

 private:
  const tree::Tree& tree_;
  mutable std::unordered_map<std::pair<std::string, int32_t>, Relation,
                             RelKeyHash>
      cache_;
};

}  // namespace mdatalog::core
