#include "src/core/database.h"

#include <algorithm>

#include "src/telemetry/trace.h"
#include "src/util/check.h"

namespace mdatalog::core {

const std::vector<int32_t> Relation::kEmpty;

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
    fwd_fn_.assign(domain_size_, -1);
    bwd_fn_.assign(domain_size_, -1);
  }
  pairs_.emplace_back(a, b);
  fwd_[a].push_back(b);
  bwd_[b].push_back(a);
  if (fwd_fn_[a] != -1 && fwd_fn_[a] != b) fwd_functional_ = false;
  fwd_fn_[a] = b;
  if (bwd_fn_[b] != -1 && bwd_fn_[b] != a) bwd_functional_ = false;
  bwd_fn_[b] = a;
}

bool Relation::ContainsUnary(int32_t a) const {
  MD_DCHECK(arity_ == 1);
  return unary_set_.Contains(a);
}

bool Relation::ContainsBinary(int32_t a, int32_t b) const {
  MD_DCHECK(arity_ == 2);
  if (fwd_.empty() || a < 0 || a >= domain_size_) return false;
  if (fwd_functional_) return b >= 0 && fwd_fn_[a] == b;
  const std::vector<int32_t>& succ = fwd_[a];
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
  GetOrCreate(pred, 0)->SetNullaryTrue();
}
void ExplicitDatabase::AddFact(const std::string& pred, int32_t a) {
  GetOrCreate(pred, 1)->AddUnary(a);
}
void ExplicitDatabase::AddFact(const std::string& pred, int32_t a, int32_t b) {
  GetOrCreate(pred, 2)->AddBinary(a, b);
}

Relation* ExplicitDatabase::GetOrCreate(const std::string& name,
                                        int32_t arity) {
  auto key = std::make_pair(name, arity);
  auto it = rels_.find(key);
  if (it == rels_.end()) {
    it = rels_.emplace(key, Relation(arity, domain_size_)).first;
  }
  return &it->second;
}

const Relation* ExplicitDatabase::Get(const std::string& name,
                                      int32_t arity) const {
  auto it = rels_.find(std::make_pair(name, arity));
  return it == rels_.end() ? nullptr : &it->second;
}

std::string LabelPredName(const std::string& label) { return "label_" + label; }

std::string LabelFromPredName(const std::string& name) {
  if (name.rfind("label_", 0) == 0) return name.substr(6);
  return "";
}

int32_t ChildKIndex(const std::string& name) {
  if (name.rfind("child", 0) != 0 || name.size() <= 5) return -1;
  int32_t k = 0;
  for (size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    k = k * 10 + (name[i] - '0');
  }
  return k >= 1 ? k : -1;
}

bool TreeDatabase::IsTreePredicate(const std::string& name, int32_t arity) {
  if (arity == 1) {
    return name == "root" || name == "leaf" || name == "lastsibling" ||
           name == "firstsibling" || !LabelFromPredName(name).empty();
  }
  if (arity == 2) {
    return name == "firstchild" || name == "nextsibling" || name == "child" ||
           name == "lastchild" || name == "nextsibling_tc" ||
           ChildKIndex(name) >= 1;
  }
  return false;
}

const Relation* TreeDatabase::Get(const std::string& name,
                                  int32_t arity) const {
  if (!IsTreePredicate(name, arity)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(name, arity);
  auto it = cache_.find(key);
  if (it != cache_.end()) return &it->second;
  return Materialize(name, arity);
}

const Relation* TreeDatabase::Materialize(const std::string& name,
                                          int32_t arity) const {
  using tree::kNoNode;
  using tree::NodeId;
  const tree::Tree& t = tree_;
  // Span tags must be static strings; collapse the per-label / per-k
  // predicate families onto one tag each.
  telemetry::TraceSpan span(telemetry::CurrentTrace(), "edb.materialize");
  if (span) {
    span.Tag(name == "root"            ? "root"
             : name == "leaf"          ? "leaf"
             : name == "lastsibling"   ? "lastsibling"
             : name == "firstsibling"  ? "firstsibling"
             : name == "firstchild"    ? "firstchild"
             : name == "nextsibling"   ? "nextsibling"
             : name == "child"         ? "child"
             : name == "lastchild"     ? "lastchild"
             : name == "nextsibling_tc" ? "nextsibling_tc"
             : ChildKIndex(name) >= 1  ? "child_k"
                                       : "label");
    span.Value("nodes", t.size());
  }
  Relation rel(arity, t.size());

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
      // Compare interned ids, not strings: one int compare per node.
      for (NodeId n = 0; n < t.size(); ++n) {
        if (t.label(n) == id) rel.AddUnary(n);
      }
    }
    // else: label not in the alphabet — empty relation (Remark 2.2).
  } else {
    int32_t k = ChildKIndex(name);
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
        NodeId c = t.ChildK(n, k);
        if (c != kNoNode) rel.AddBinary(n, c);
      }
    }
  }

  auto [it, inserted] =
      cache_.emplace(std::make_pair(name, arity), std::move(rel));
  MD_CHECK(inserted);
  return &it->second;
}

}  // namespace mdatalog::core
