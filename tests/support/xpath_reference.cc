#include "tests/support/xpath_reference.h"

#include <set>

#include "src/util/check.h"

namespace mdatalog::xpath {

namespace {

using NodeSet = std::set<tree::NodeId>;

NodeSet AxisImage(const tree::Tree& t, Axis axis, const NodeSet& from) {
  NodeSet out;
  // Iterative: a chain of any depth must not exhaust the stack.
  auto add_descendants = [&](tree::NodeId n) {
    tree::WalkSubtree(
        t, n, [&](tree::NodeId m) { if (m != n) out.insert(m); },
        [](tree::NodeId) {});
  };
  for (tree::NodeId n : from) {
    switch (axis) {
      case Axis::kSelf:
        out.insert(n);
        break;
      case Axis::kChild:
        for (tree::NodeId c = t.first_child(n); c != tree::kNoNode;
             c = t.next_sibling(c)) {
          out.insert(c);
        }
        break;
      case Axis::kDescendant:
        add_descendants(n);
        break;
      case Axis::kDescendantOrSelf:
        out.insert(n);
        add_descendants(n);
        break;
      case Axis::kParent:
        if (t.parent(n) != tree::kNoNode) out.insert(t.parent(n));
        break;
      case Axis::kAncestor:
        for (tree::NodeId p = t.parent(n); p != tree::kNoNode;
             p = t.parent(p)) {
          out.insert(p);
        }
        break;
      case Axis::kAncestorOrSelf:
        for (tree::NodeId p = n; p != tree::kNoNode; p = t.parent(p)) {
          out.insert(p);
        }
        break;
      case Axis::kFollowingSibling:
        for (tree::NodeId s = t.next_sibling(n); s != tree::kNoNode;
             s = t.next_sibling(s)) {
          out.insert(s);
        }
        break;
      case Axis::kPrecedingSibling:
        for (tree::NodeId s = t.prev_sibling(n); s != tree::kNoNode;
             s = t.prev_sibling(s)) {
          out.insert(s);
        }
        break;
    }
  }
  return out;
}

bool EvalPredicate(const tree::Tree& t, const ExprP& e, tree::NodeId n);

NodeSet EvalSteps(const tree::Tree& t, NodeSet current,
                  const std::vector<Step>& steps);

/// Absolute paths start at the *virtual document node* above the root
/// element (standard XPath): its only child is the root; its descendants are
/// all nodes; every other axis from it is empty.
NodeSet AbsoluteSeed(const tree::Tree& t, Axis axis) {
  NodeSet out;
  switch (axis) {
    case Axis::kChild:
      out.insert(t.root());
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      for (tree::NodeId n = 0; n < t.size(); ++n) out.insert(n);
      break;
    default:
      break;  // self/parent/ancestor/siblings of the document node: empty
  }
  return out;
}

NodeSet FilterStep(const tree::Tree& t, NodeSet moved, const Step& step) {
  NodeSet filtered;
  for (tree::NodeId n : moved) {
    if (!step.label.empty() && t.label_name(n) != step.label) continue;
    bool ok = true;
    for (const ExprP& pred : step.predicates) {
      if (!EvalPredicate(t, pred, n)) {
        ok = false;
        break;
      }
    }
    if (ok) filtered.insert(n);
  }
  return filtered;
}

NodeSet EvalPathFromContext(const tree::Tree& t, const Path& path,
                            NodeSet relative_context) {
  if (!path.absolute) {
    return EvalSteps(t, std::move(relative_context), path.steps);
  }
  MD_CHECK(!path.steps.empty());
  NodeSet seed = FilterStep(t, AbsoluteSeed(t, path.steps[0].axis),
                            path.steps[0]);
  std::vector<Step> rest(path.steps.begin() + 1, path.steps.end());
  return EvalSteps(t, std::move(seed), rest);
}

NodeSet EvalSteps(const tree::Tree& t, NodeSet current,
                  const std::vector<Step>& steps) {
  for (const Step& step : steps) {
    current = FilterStep(t, AxisImage(t, step.axis, current), step);
  }
  return current;
}

bool EvalPredicate(const tree::Tree& t, const ExprP& e, tree::NodeId n) {
  switch (e->kind) {
    case Expr::Kind::kPath:
      return !EvalPathFromContext(t, e->path, {n}).empty();
    case Expr::Kind::kNot:
      return !EvalPredicate(t, e->children[0], n);
    case Expr::Kind::kAnd:
      for (const ExprP& c : e->children) {
        if (!EvalPredicate(t, c, n)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const ExprP& c : e->children) {
        if (EvalPredicate(t, c, n)) return true;
      }
      return false;
  }
  return false;
}

bool UsesNegation(const ExprP& e) {
  if (e->kind == Expr::Kind::kNot) return true;
  if (e->kind == Expr::Kind::kPath) return PathUsesNegation(e->path);
  for (const ExprP& c : e->children) {
    if (UsesNegation(c)) return true;
  }
  return false;
}

}  // namespace

bool PathUsesNegation(const Path& p) {
  for (const Step& s : p.steps) {
    for (const ExprP& pred : s.predicates) {
      if (UsesNegation(pred)) return true;
    }
  }
  return false;
}

util::Result<std::vector<tree::NodeId>> EvalXPathReference(
    const tree::Tree& t, const Path& path) {
  NodeSet everywhere;
  for (tree::NodeId n = 0; n < t.size(); ++n) everywhere.insert(n);
  NodeSet result = EvalPathFromContext(t, path, std::move(everywhere));
  return std::vector<tree::NodeId>(result.begin(), result.end());
}

}  // namespace mdatalog::xpath
