#include "src/elog/eval.h"

#include <algorithm>
#include <set>

#include "src/util/check.h"

namespace mdatalog::elog {

using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

const std::vector<NodeId>& ElogResult::Of(const std::string& pattern) const {
  static const std::vector<NodeId> kEmpty;
  auto it = matches.find(pattern);
  return it == matches.end() ? kEmpty : it->second;
}

std::vector<NodeId> PathTargets(const Tree& t, NodeId start,
                                const ElogPath& path) {
  std::vector<NodeId> frontier = {start};
  for (const std::string& step : path.steps) {
    std::vector<NodeId> next;
    for (NodeId n : frontier) {
      for (NodeId c = t.first_child(n); c != kNoNode; c = t.next_sibling(c)) {
        if (step == "_" || t.label_name(c) == step) next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  return frontier;
}

namespace {

/// Evaluation state: pattern extents as bitsets.
class ElogEvaluator {
 public:
  /// `patterns` (optional) is the precomputed program.Patterns() list — a
  /// prepared program supplies it so repeated evaluation skips the per-page
  /// rule walk along with the validation.
  ElogEvaluator(const ElogProgram& program, const Tree& t, int64_t budget,
                bool validate = true,
                const std::vector<std::string>* patterns = nullptr,
                const util::EvalControl* control = nullptr)
      : program_(program),
        t_(t),
        budget_(budget),
        validate_(validate),
        patterns_(patterns),
        control_(control),
        ticker_(control),
        ranks_(t.PreorderRanks()) {
    extents_["root"] = std::set<NodeId>{t.root()};
  }

  util::Result<ElogResult> Run() {
    if (validate_) MD_RETURN_NOT_OK(ValidateElog(program_));
    const std::vector<std::string> own_patterns =
        patterns_ == nullptr ? program_.Patterns() : std::vector<std::string>();
    for (const std::string& p :
         patterns_ != nullptr ? *patterns_ : own_patterns) {
      extents_[p];  // create
    }
    bool changed = true;
    while (changed) {
      if (control_ != nullptr) MD_RETURN_NOT_OK(control_->Check());
      changed = false;
      for (const ElogRule& rule : program_.rules()) {
        MD_ASSIGN_OR_RETURN(bool grew, ApplyRule(rule));
        changed |= grew;
      }
    }
    ElogResult result;
    for (const auto& [name, ext] : extents_) {
      if (name == "root") continue;
      result.matches[name] = std::vector<NodeId>(ext.begin(), ext.end());
    }
    return result;
  }

 private:
  util::Result<bool> ApplyRule(const ElogRule& rule) {
    auto parent_it = extents_.find(rule.parent_pattern);
    if (parent_it == extents_.end()) {
      return util::Status::InvalidArgument("unknown parent pattern '" +
                                           rule.parent_pattern + "'");
    }
    bool grew = false;
    std::set<NodeId>& head_extent = extents_[rule.head_pattern];
    // Iterate over a snapshot (extents may grow during the pass).
    std::vector<NodeId> parents(parent_it->second.begin(),
                                parent_it->second.end());
    for (NodeId p : parents) {
      std::vector<NodeId> candidates =
          rule.is_specialization() ? std::vector<NodeId>{p}
                                   : PathTargets(t_, p, rule.subelem);
      for (NodeId x : candidates) {
        // Strided deadline/cancel poll: the (parent × candidate) product is
        // where a pathological page spends its time.
        MD_RETURN_NOT_OK(ticker_.Tick());
        if (head_extent.count(x) > 0) continue;
        std::map<std::string, NodeId> binding = {{rule.parent_var, p},
                                                 {rule.head_var, x}};
        MD_ASSIGN_OR_RETURN(bool ok, CheckConditions(rule, binding, 0));
        if (ok) {
          head_extent.insert(x);
          grew = true;
          if (--budget_ < 0) {
            return util::Status::ResourceExhausted(
                "Elog evaluation exceeded max_derivations");
          }
        }
      }
    }
    return grew;
  }

  /// Backtracking check of the conditions from index `i` under `binding`.
  util::Result<bool> CheckConditions(const ElogRule& rule,
                                     std::map<std::string, NodeId>& binding,
                                     size_t i) {
    // One decrement per backtracking step: condition chains with unbound
    // pattern-ref / contains variables branch combinatorially, so the poll
    // must live inside the recursion, not only at the candidate level.
    MD_RETURN_NOT_OK(ticker_.Tick());
    if (i == rule.conditions.size()) return true;
    const ElogCondition& c = rule.conditions[i];
    using K = ElogCondition::Kind;
    auto bound = [&](const std::string& v) -> NodeId {
      auto it = binding.find(v);
      return it == binding.end() ? kNoNode : it->second;
    };
    auto with = [&](const std::string& v, NodeId n,
                    auto&& cont) -> util::Result<bool> {
      bool fresh = binding.find(v) == binding.end();
      if (!fresh) {
        if (binding[v] != n) return false;
        return cont();
      }
      binding[v] = n;
      auto r = cont();
      binding.erase(v);
      return r;
    };

    switch (c.kind) {
      case K::kLeaf:
      case K::kFirstSibling:
      case K::kLastSibling: {
        NodeId n = bound(c.var1);
        if (n == kNoNode) {
          return util::Status::InvalidArgument(
              "unbound variable in unary condition: " + c.var1);
        }
        bool ok = c.kind == K::kLeaf ? t_.IsLeaf(n)
                  : c.kind == K::kFirstSibling ? t_.IsFirstSibling(n)
                                               : t_.IsLastSibling(n);
        if (!ok) return false;
        return CheckConditions(rule, binding, i + 1);
      }
      case K::kNextSibling: {
        NodeId a = bound(c.var1), b = bound(c.var2);
        if (a != kNoNode) {
          NodeId succ = t_.next_sibling(a);
          if (succ == kNoNode) return false;
          return with(c.var2, succ,
                      [&] { return CheckConditions(rule, binding, i + 1); });
        }
        if (b != kNoNode) {
          NodeId pred = t_.prev_sibling(b);
          if (pred == kNoNode) return false;
          return with(c.var1, pred,
                      [&] { return CheckConditions(rule, binding, i + 1); });
        }
        return util::Status::InvalidArgument(
            "nextsibling with two unbound variables");
      }
      case K::kContains: {
        NodeId src = bound(c.var1);
        if (src == kNoNode) {
          return util::Status::InvalidArgument(
              "contains source variable unbound: " + c.var1);
        }
        for (NodeId target : PathTargets(t_, src, c.path)) {
          MD_ASSIGN_OR_RETURN(
              bool ok, with(c.var2, target, [&] {
                return CheckConditions(rule, binding, i + 1);
              }));
          if (ok) return true;
        }
        return false;
      }
      case K::kPatternRef: {
        auto ext_it = extents_.find(c.pattern);
        if (ext_it == extents_.end()) {
          return util::Status::InvalidArgument("unknown pattern '" +
                                               c.pattern + "'");
        }
        NodeId n = bound(c.var1);
        if (n != kNoNode) {
          if (ext_it->second.count(n) == 0) return false;
          return CheckConditions(rule, binding, i + 1);
        }
        for (NodeId m : ext_it->second) {
          MD_ASSIGN_OR_RETURN(bool ok, with(c.var1, m, [&] {
                                return CheckConditions(rule, binding, i + 1);
                              }));
          if (ok) return true;
        }
        return false;
      }
      case K::kNotAfter:
      case K::kNotBefore: {
        NodeId src = bound(c.var1);
        NodeId y = bound(c.var2);
        if (src == kNoNode || y == kNoNode) {
          return util::Status::InvalidArgument(
              "notafter/notbefore require bound variables");
        }
        for (NodeId u : PathTargets(t_, src, c.path)) {
          if (c.kind == K::kNotAfter && ranks_[y] > ranks_[u]) return false;
          if (c.kind == K::kNotBefore && ranks_[y] < ranks_[u]) return false;
        }
        return CheckConditions(rule, binding, i + 1);
      }
      case K::kBefore: {
        // before_{π,α%-β%}(x0, x, y): y reachable from x0 via π, and y lies
        // between k·α/100 and k·β/100 child-positions after x, where k is
        // the number of x0's children.
        NodeId x0 = bound(c.var1);
        NodeId x = bound(c.var2);
        if (x0 == kNoNode || x == kNoNode) {
          return util::Status::InvalidArgument(
              "before requires bound first and second variables");
        }
        // An x that is not below x0 has no position: the window is empty.
        auto pos_x_or = ChildPosition(x0, x);
        if (!pos_x_or.ok()) return false;
        const int64_t pos_x = *pos_x_or;
        int64_t k = t_.NumChildren(x0);
        for (NodeId y : PathTargets(t_, x0, c.path)) {
          auto pos_y = ChildPosition(x0, y);
          if (!pos_y.ok()) continue;
          int64_t diff = *pos_y - pos_x;
          if (100 * diff < k * c.alpha_pct || 100 * diff > k * c.beta_pct) {
            continue;
          }
          MD_ASSIGN_OR_RETURN(bool ok, with(c.var3, y, [&] {
                                return CheckConditions(rule, binding, i + 1);
                              }));
          if (ok) return true;
        }
        return false;
      }
    }
    return util::Status::Internal("unreachable condition kind");
  }

  /// 1-based index (among x0's children) of the child of x0 that is an
  /// ancestor-or-self of u.
  util::Result<int64_t> ChildPosition(NodeId x0, NodeId u) {
    NodeId cur = u;
    while (cur != kNoNode && t_.parent(cur) != x0) cur = t_.parent(cur);
    if (cur == kNoNode) {
      return util::Status::NotFound("node not below the reference node");
    }
    int64_t pos = 1;
    for (NodeId s = t_.prev_sibling(cur); s != kNoNode;
         s = t_.prev_sibling(s)) {
      ++pos;
    }
    return pos;
  }

  const ElogProgram& program_;
  const Tree& t_;
  int64_t budget_;
  bool validate_;
  const std::vector<std::string>* patterns_;  // nullable
  const util::EvalControl* control_;          // nullable
  util::EvalTicker ticker_;
  std::vector<int32_t> ranks_;
  std::map<std::string, std::set<NodeId>> extents_;
};

}  // namespace

util::Result<ElogResult> EvaluateElog(const ElogProgram& program,
                                      const Tree& t, int64_t max_derivations,
                                      const util::EvalControl* control) {
  return ElogEvaluator(program, t, max_derivations, /*validate=*/true,
                       /*patterns=*/nullptr, control)
      .Run();
}

util::Result<PreparedElogProgram> PreparedElogProgram::Prepare(
    ElogProgram program) {
  MD_RETURN_NOT_OK(ValidateElog(program));
  PreparedElogProgram prepared;
  prepared.patterns_ = program.Patterns();
  prepared.program_ = std::move(program);
  return prepared;
}

util::Result<ElogResult> EvaluateElog(const PreparedElogProgram& prepared,
                                      const Tree& t, int64_t max_derivations,
                                      const util::EvalControl* control) {
  return ElogEvaluator(prepared.program(), t, max_derivations,
                       /*validate=*/false, &prepared.patterns(), control)
      .Run();
}

}  // namespace mdatalog::elog
