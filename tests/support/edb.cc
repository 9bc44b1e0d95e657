#include "tests/support/edb.h"

#include <algorithm>

#include "src/util/check.h"

namespace mdatalog::core {

namespace {
const std::vector<int32_t> kEmpty;
}  // namespace

void Relation::AddUnary(int32_t a) {
  MD_DCHECK(arity_ == 1);
  MD_DCHECK(a >= 0 && a < domain_size_);
  if (unary_set_.domain_size() != domain_size_) unary_set_.Reset(domain_size_);
  if (!unary_set_.Insert(a)) return;
  unary_.push_back(a);
}

void Relation::AddBinary(int32_t a, int32_t b) {
  MD_DCHECK(arity_ == 2);
  MD_DCHECK(a >= 0 && a < domain_size_ && b >= 0 && b < domain_size_);
  if (fwd_.empty()) {
    fwd_.resize(domain_size_);
    bwd_.resize(domain_size_);
  }
  pairs_.emplace_back(a, b);
  fwd_[a].push_back(b);
  bwd_[b].push_back(a);
}

bool Relation::ContainsUnary(int32_t a) const {
  MD_DCHECK(arity_ == 1);
  return unary_set_.Contains(a);
}

bool Relation::ContainsBinary(int32_t a, int32_t b) const {
  const std::vector<int32_t>& succ = Forward(a);
  return std::find(succ.begin(), succ.end(), b) != succ.end();
}

const std::vector<int32_t>& Relation::Forward(int32_t a) const {
  MD_DCHECK(arity_ == 2);
  if (fwd_.empty() || a < 0 || a >= domain_size_) return kEmpty;
  return fwd_[a];
}

const std::vector<int32_t>& Relation::Backward(int32_t b) const {
  MD_DCHECK(arity_ == 2);
  if (bwd_.empty() || b < 0 || b >= domain_size_) return kEmpty;
  return bwd_[b];
}

void ExplicitDatabase::AddFact(const std::string& pred) {
  rels_.try_emplace({pred, 0}, 0, domain_size_).first->second.SetNullaryTrue();
}
void ExplicitDatabase::AddFact(const std::string& pred, int32_t a) {
  rels_.try_emplace({pred, 1}, 1, domain_size_).first->second.AddUnary(a);
}
void ExplicitDatabase::AddFact(const std::string& pred, int32_t a, int32_t b) {
  rels_.try_emplace({pred, 2}, 2, domain_size_).first->second.AddBinary(a, b);
}

const Relation* ExplicitDatabase::Get(const std::string& name,
                                      int32_t arity) const {
  auto it = rels_.find(std::make_pair(name, arity));
  return it == rels_.end() ? nullptr : &it->second;
}

const Relation* TreeDatabase::Get(const std::string& name,
                                  int32_t arity) const {
  using tree::kNoNode;
  using tree::NodeId;
  if (!IsTreePredicate(name, arity)) return nullptr;
  auto [it, inserted] =
      cache_.try_emplace(std::make_pair(name, arity), arity, tree_.size());
  Relation& rel = it->second;
  if (!inserted) return &rel;
  const tree::Tree& t = tree_;
  if (arity == 1) {
    const std::string label = LabelFromPredName(name);
    if (name == "root" || name == "leaf" || name == "lastsibling" ||
        name == "firstsibling") {
      for (NodeId n = 0; n < t.size(); ++n) {
        const bool in = name == "root"          ? t.IsRoot(n)
                        : name == "leaf"        ? t.IsLeaf(n)
                        : name == "lastsibling" ? t.IsLastSibling(n)
                                                : t.IsFirstSibling(n);
        if (in) rel.AddUnary(n);
      }
    } else if (tree::LabelId id = t.FindLabel(label);
               id != util::kInvalidSymbol) {
      for (NodeId n = 0; n < t.size(); ++n) {
        if (t.label(n) == id) rel.AddUnary(n);
      }
    }
    // else: label not in the alphabet — empty relation (Remark 2.2).
    return &rel;
  }
  const int32_t k = ChildKIndex(name);
  for (NodeId n = 0; n < t.size(); ++n) {
    if (name == "firstchild") {
      if (t.first_child(n) != kNoNode) rel.AddBinary(n, t.first_child(n));
    } else if (name == "nextsibling") {
      if (t.next_sibling(n) != kNoNode) rel.AddBinary(n, t.next_sibling(n));
    } else if (name == "child") {
      for (NodeId c = t.first_child(n); c != kNoNode; c = t.next_sibling(c)) {
        rel.AddBinary(n, c);
      }
    } else if (name == "lastchild") {
      if (t.last_child(n) != kNoNode) rel.AddBinary(n, t.last_child(n));
    } else if (name == "nextsibling_tc") {
      // Reflexive-transitive closure of nextsibling ([[E*]] is reflexive on
      // the whole domain, Section 2).
      rel.AddBinary(n, n);
      for (NodeId s = t.next_sibling(n); s != kNoNode; s = t.next_sibling(s)) {
        rel.AddBinary(n, s);
      }
    } else if (k >= 1) {
      const NodeId c = t.ChildK(n, k);
      if (c != kNoNode) rel.AddBinary(n, c);
    }
  }
  return &rel;
}

}  // namespace mdatalog::core
