#include "src/caterpillar/eval.h"

#include <algorithm>
#include <set>

#include "src/core/tree_schema.h"

namespace mdatalog::caterpillar {

using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

util::Status UnknownRel(const std::string& name) {
  return util::Status::InvalidArgument("unknown binary relation '" + name +
                                       "' in caterpillar expression");
}

util::Status UnknownTest(const std::string& name) {
  return util::Status::InvalidArgument("unknown unary predicate '" + name +
                                       "' in caterpillar expression");
}

bool IsKnownRel(const std::string& name) {
  return name == "firstchild" || name == "nextsibling" || name == "child" ||
         name == "lastchild" || core::ChildKIndex(name) >= 1;
}

util::Result<bool> CheckTest(const Tree& t, const std::string& name,
                             NodeId n) {
  if (name == "root") return t.IsRoot(n);
  if (name == "leaf") return t.IsLeaf(n);
  if (name == "lastsibling") return t.IsLastSibling(n);
  if (name == "firstsibling") return t.IsFirstSibling(n);
  std::string label = core::LabelFromPredName(name);
  if (!label.empty()) return t.label_name(n) == label;
  return UnknownTest(name);
}

/// Applies one kRel move from node n, invoking `emit` per successor node.
template <typename Emit>
util::Status ApplyRel(const Tree& t, const std::string& name, bool inverted,
                      NodeId n, Emit emit) {
  if (name == "firstchild") {
    if (!inverted) {
      if (t.first_child(n) != kNoNode) emit(t.first_child(n));
    } else if (t.IsFirstSibling(n)) {
      emit(t.parent(n));
    }
    return util::Status::OK();
  }
  if (name == "nextsibling") {
    NodeId m = inverted ? t.prev_sibling(n) : t.next_sibling(n);
    if (m != kNoNode) emit(m);
    return util::Status::OK();
  }
  if (name == "child") {
    if (!inverted) {
      for (NodeId c = t.first_child(n); c != kNoNode; c = t.next_sibling(c)) {
        emit(c);
      }
    } else if (t.parent(n) != kNoNode) {
      emit(t.parent(n));
    }
    return util::Status::OK();
  }
  if (name == "lastchild") {
    if (!inverted) {
      if (t.last_child(n) != kNoNode) emit(t.last_child(n));
    } else if (t.IsLastSibling(n)) {
      emit(t.parent(n));
    }
    return util::Status::OK();
  }
  int32_t k = core::ChildKIndex(name);
  if (k >= 1) {
    if (!inverted) {
      NodeId c = t.ChildK(n, k);
      if (c != kNoNode) emit(c);
    } else {
      // n must be exactly the k-th child.
      NodeId c = n;
      int32_t steps = 1;
      while (steps < k && c != kNoNode) {
        c = t.prev_sibling(c);
        ++steps;
      }
      if (c != kNoNode && t.prev_sibling(c) == kNoNode &&
          t.parent(n) != kNoNode && steps == k) {
        emit(t.parent(n));
      }
    }
    return util::Status::OK();
  }
  return UnknownRel(name);
}

}  // namespace

util::Result<std::vector<NodeId>> EvalImage(
    const Tree& t, const CatNfa& nfa, const std::vector<NodeId>& sources) {
  const int64_t n = t.size();
  const int64_t num_states = nfa.NumStates();
  std::vector<bool> visited(static_cast<size_t>(n * num_states), false);
  std::vector<std::pair<int32_t, NodeId>> worklist;
  auto push = [&](int32_t state, NodeId node) {
    size_t key = static_cast<size_t>(state) * n + node;
    if (!visited[key]) {
      visited[key] = true;
      worklist.emplace_back(state, node);
    }
  };
  for (NodeId src : sources) push(nfa.start, src);

  while (!worklist.empty()) {
    auto [state, node] = worklist.back();
    worklist.pop_back();
    for (const NfaEdge& edge : nfa.states[state]) {
      switch (edge.type) {
        case NfaEdge::Type::kEps:
          push(edge.target, node);
          break;
        case NfaEdge::Type::kTest: {
          auto ok = CheckTest(t, edge.name, node);
          if (!ok.ok()) return ok.status();
          if (*ok) push(edge.target, node);
          break;
        }
        case NfaEdge::Type::kRel: {
          util::Status st = ApplyRel(t, edge.name, edge.inverted, node,
                                     [&](NodeId m) { push(edge.target, m); });
          if (!st.ok()) return st;
          break;
        }
      }
    }
  }

  std::vector<NodeId> out;
  for (NodeId m = 0; m < t.size(); ++m) {
    if (visited[static_cast<size_t>(nfa.accept) * n + m]) out.push_back(m);
  }
  return out;
}

util::Result<std::vector<NodeId>> EvalImage(
    const Tree& t, const ExprPtr& e, const std::vector<NodeId>& sources) {
  return EvalImage(t, CompileToNfa(e), sources);
}

namespace {

using PairSet = std::set<std::pair<NodeId, NodeId>>;

util::Result<PairSet> Denote(const Tree& t, const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon: {
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) out.emplace(n, n);
      return out;
    }
    case Expr::Kind::kTest: {
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) {
        MD_ASSIGN_OR_RETURN(bool ok, CheckTest(t, e->name, n));
        if (ok) out.emplace(n, n);
      }
      return out;
    }
    case Expr::Kind::kRel: {
      if (!IsKnownRel(e->name)) return UnknownRel(e->name);
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) {
        util::Status st =
            ApplyRel(t, e->name, e->inverted, n,
                     [&](NodeId m) { out.emplace(n, m); });
        if (!st.ok()) return st;
      }
      return out;
    }
    case Expr::Kind::kConcat: {
      MD_ASSIGN_OR_RETURN(PairSet acc, Denote(t, e->children[0]));
      for (size_t i = 1; i < e->children.size(); ++i) {
        MD_ASSIGN_OR_RETURN(PairSet next, Denote(t, e->children[i]));
        PairSet joined;
        for (const auto& [x, y] : acc) {
          auto it = next.lower_bound({y, 0});
          for (; it != next.end() && it->first == y; ++it) {
            joined.emplace(x, it->second);
          }
        }
        acc = std::move(joined);
      }
      return acc;
    }
    case Expr::Kind::kUnion: {
      PairSet out;
      for (const ExprPtr& c : e->children) {
        MD_ASSIGN_OR_RETURN(PairSet part, Denote(t, c));
        out.insert(part.begin(), part.end());
      }
      return out;
    }
    case Expr::Kind::kStar: {
      MD_ASSIGN_OR_RETURN(PairSet base, Denote(t, e->children[0]));
      // Reflexive closure + per-node BFS for transitivity.
      std::vector<std::vector<NodeId>> succ(t.size());
      for (const auto& [x, y] : base) succ[x].push_back(y);
      PairSet out;
      for (NodeId src = 0; src < t.size(); ++src) {
        std::vector<bool> seen(t.size(), false);
        std::vector<NodeId> stack = {src};
        seen[src] = true;
        while (!stack.empty()) {
          NodeId u = stack.back();
          stack.pop_back();
          out.emplace(src, u);
          for (NodeId v : succ[u]) {
            if (!seen[v]) {
              seen[v] = true;
              stack.push_back(v);
            }
          }
        }
      }
      return out;
    }
    case Expr::Kind::kInverse: {
      MD_ASSIGN_OR_RETURN(PairSet base, Denote(t, e->children[0]));
      PairSet out;
      for (const auto& [x, y] : base) out.emplace(y, x);
      return out;
    }
  }
  return util::Status::Internal("unreachable expression kind");
}

}  // namespace

util::Result<std::vector<std::pair<NodeId, NodeId>>> EvalRelationReference(
    const Tree& t, const ExprPtr& e) {
  MD_ASSIGN_OR_RETURN(PairSet pairs, Denote(t, e));
  return std::vector<std::pair<NodeId, NodeId>>(pairs.begin(), pairs.end());
}

}  // namespace mdatalog::caterpillar
