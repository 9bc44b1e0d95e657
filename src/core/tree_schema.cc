#include "src/core/tree_schema.h"

#include <climits>

namespace mdatalog::core {

namespace {

/// k if `digits` spells a child position 1 <= k <= INT32_MAX, else -1.
int32_t ParseChildPosition(std::string_view digits) {
  if (digits.empty()) return -1;
  int64_t k = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    k = k * 10 + (c - '0');
    if (k > INT32_MAX) return -1;  // no such child position, not a wrap
  }
  return k >= 1 ? static_cast<int32_t>(k) : -1;
}

}  // namespace

std::optional<TreePred> ClassifyTreePredicate(std::string_view name,
                                              int32_t arity) {
  using K = TreePred::Kind;
  if (arity == 1) {
    if (name == "root") return TreePred{K::kRoot};
    if (name == "leaf") return TreePred{K::kLeaf};
    if (name == "firstsibling") return TreePred{K::kFirstSibling};
    if (name == "lastsibling") return TreePred{K::kLastSibling};
    if (name.starts_with("label_") && name.size() > 6) {
      return TreePred{K::kLabel};
    }
    return std::nullopt;
  }
  if (arity != 2) return std::nullopt;
  if (name == "firstchild") return TreePred{K::kFirstChild};
  if (name == "nextsibling") return TreePred{K::kNextSibling};
  if (name == "child") return TreePred{K::kChild};
  if (name == "lastchild") return TreePred{K::kLastChild};
  if (name == "nextsibling_tc") return TreePred{K::kNextSiblingTc};
  if (name.starts_with("child")) {
    const int32_t k = ParseChildPosition(name.substr(5));
    if (k >= 1) return TreePred{K::kChildK, k};
  }
  return std::nullopt;
}

bool IsTreePredicate(const std::string& name, int32_t arity) {
  return ClassifyTreePredicate(name, arity).has_value();
}

bool InTmnfSchema(const TreePred& p, bool ranked) {
  using K = TreePred::Kind;
  switch (p.kind) {
    case K::kRoot:
    case K::kLeaf:
    case K::kLastSibling:
    case K::kLabel:
      return true;
    case K::kFirstChild:
    case K::kNextSibling:
      return !ranked;
    case K::kChildK:
      return ranked;
    default:
      return false;
  }
}

std::string LabelPredName(const std::string& label) { return "label_" + label; }

std::string LabelFromPredName(const std::string& name) {
  if (name.rfind("label_", 0) == 0) return name.substr(6);
  return "";
}

int32_t ChildKIndex(const std::string& name) {
  if (name.rfind("child", 0) != 0) return -1;
  return ParseChildPosition(std::string_view(name).substr(5));
}

}  // namespace mdatalog::core
