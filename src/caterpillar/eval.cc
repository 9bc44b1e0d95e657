#include "src/caterpillar/eval.h"

#include <algorithm>
#include <set>

#include "src/core/tree_schema.h"

namespace mdatalog::caterpillar {

using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

/// One atom of an expression (a kRel or kTest NFA edge or expression node),
/// classified once against the tree before any node is visited.
struct Move {
  core::TreePred pred;      ///< unary for a test
  bool inverted = false;    ///< steps only
  tree::LabelId label = 0;  ///< label tests: the label's id in the tree
};

util::Result<Move> ClassifyMove(const Tree& t, bool is_test,
                                const std::string& name, bool inverted) {
  const std::optional<core::TreePred> pred =
      core::ClassifyTreePredicate(name, is_test ? 1 : 2);
  if (!pred.has_value() ||
      pred->kind == core::TreePred::Kind::kNextSiblingTc) {
    return util::Status::InvalidArgument(
        std::string(is_test ? "unknown unary predicate '"
                            : "unknown binary relation '") +
        name + "' in caterpillar expression");
  }
  Move m{*pred, inverted};
  if (pred->kind == core::TreePred::Kind::kLabel) {
    m.label = t.FindLabel(core::LabelFromPredName(name));
  }
  return m;
}

/// Applies one move from node n, invoking `emit` per successor node: n
/// itself when a test holds, else every node a step reaches.
template <typename Emit>
void ApplyMove(const Tree& t, const Move& m, NodeId n, Emit emit) {
  if (m.pred.unary()) {
    if (core::HoldsUnary(t, m.pred.kind, m.label, n)) emit(n);
    return;
  }
  if (m.pred.kind == core::TreePred::Kind::kChild && !m.inverted) {
    for (NodeId c = t.first_child(n); c != kNoNode; c = t.next_sibling(c)) {
      emit(c);
    }
    return;
  }
  const NodeId next = m.inverted ? core::StepBackward(t, m.pred, n)
                                 : core::StepForward(t, m.pred, n);
  if (next != kNoNode) emit(next);
}

}  // namespace

util::Result<std::vector<NodeId>> EvalImage(
    const Tree& t, const CatNfa& nfa, const std::vector<NodeId>& sources) {
  const int64_t n = t.size();
  const int64_t num_states = nfa.NumStates();
  // Per state, per edge: the classified move (unused for ε edges).
  std::vector<std::vector<Move>> moves(nfa.states.size());
  for (size_t s = 0; s < nfa.states.size(); ++s) {
    for (const NfaEdge& edge : nfa.states[s]) {
      Move m;
      if (edge.type != NfaEdge::Type::kEps) {
        const bool is_test = edge.type == NfaEdge::Type::kTest;
        MD_ASSIGN_OR_RETURN(m,
                            ClassifyMove(t, is_test, edge.name, edge.inverted));
      }
      moves[s].push_back(m);
    }
  }
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
    const std::vector<NfaEdge>& edges = nfa.states[state];
    for (size_t i = 0; i < edges.size(); ++i) {
      const int32_t target = edges[i].target;
      if (edges[i].type == NfaEdge::Type::kEps) {
        push(target, node);
      } else {
        ApplyMove(t, moves[state][i], node,
                  [&](NodeId m) { push(target, m); });
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
    case Expr::Kind::kTest:
    case Expr::Kind::kRel: {
      MD_ASSIGN_OR_RETURN(const Move m,
                          ClassifyMove(t, e->kind == Expr::Kind::kTest,
                                       e->name, e->inverted));
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) {
        ApplyMove(t, m, n, [&](NodeId y) { out.emplace(n, y); });
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
    case Expr::Kind::kStar:
    case Expr::Kind::kPlus: {
      MD_ASSIGN_OR_RETURN(PairSet base, Denote(t, e->children[0]));
      // Per-node DFS for transitivity; E* adds the reflexive pairs, E+ only
      // the pairs reached by at least one step.
      std::vector<std::vector<NodeId>> succ(t.size());
      for (const auto& [x, y] : base) succ[x].push_back(y);
      const bool reflexive = e->kind == Expr::Kind::kStar;
      PairSet out;
      for (NodeId src = 0; src < t.size(); ++src) {
        std::vector<bool> seen(t.size(), false);
        std::vector<NodeId> stack;
        auto visit = [&](NodeId v) {
          if (!seen[v]) {
            seen[v] = true;
            stack.push_back(v);
          }
        };
        if (reflexive) {
          visit(src);
        } else {
          for (NodeId v : succ[src]) visit(v);
        }
        while (!stack.empty()) {
          const NodeId u = stack.back();
          stack.pop_back();
          out.emplace(src, u);
          for (NodeId v : succ[u]) visit(v);
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
