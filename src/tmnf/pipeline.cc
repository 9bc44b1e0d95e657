#include "src/tmnf/pipeline.h"

#include <map>
#include <set>

#include "src/caterpillar/to_datalog.h"
#include "src/core/tree_schema.h"
#include "src/core/validate.h"
#include "src/tmnf/acyclic.h"
#include "src/tmnf/normal_form.h"
#include "src/util/check.h"

namespace mdatalog::tmnf {

namespace {

using core::Atom;
using core::MakeAtom;
using core::MakeRule;
using core::PredId;
using core::Program;
using core::Rule;
using core::Term;
using core::VarId;

/// Shared machinery for the ranked and unranked pipelines.
class TmnfPipeline {
 public:
  TmnfPipeline(const Program& input, bool ranked, TmnfStats* stats)
      : ranked_(ranked), stats_(stats), out_(input) {}

  util::Result<Program> Run() {
    MD_RETURN_NOT_OK(Validate());
    if (stats_ != nullptr) {
      stats_->input_rules = static_cast<int32_t>(out_.rules().size());
    }
    if (ranked_) {
      for (PredId p = 0; p < out_.preds().size(); ++p) {
        max_child_k_ =
            std::max(max_child_k_, core::ChildKIndex(out_.preds().Name(p)));
      }
    }

    // Step 1: lastchild expands (Lemma 5.6) ...
    if (!ranked_) {
      MD_ASSIGN_OR_RETURN(std::optional<Program> expanded,
                          core::ExpandLastChild(out_));
      if (expanded.has_value()) out_ = std::move(*expanded);
    }

    // ... and firstsibling is replaced per rule; step 2: the chase.
    std::vector<Rule> acyclic_rules;
    for (Rule& rule : out_.mutable_rules()) {
      Preprocess(&rule);
      auto chased = ranked_ ? MakeRuleAcyclicRanked(&out_, rule)
                            : MakeRuleAcyclicUnranked(&out_, rule);
      if (!chased.ok()) return chased.status();
      if (!chased->satisfiable) {
        if (stats_ != nullptr) ++stats_->rules_dropped_unsat;
        continue;
      }
      if (stats_ != nullptr) stats_->vars_merged += chased->merged_vars;
      acyclic_rules.push_back(std::move(chased->rule));
    }

    // Step 3: connect disconnected rules with the total caterpillar.
    for (Rule& rule : acyclic_rules) MD_RETURN_NOT_OK(Connect(&rule));

    // Step 4: decompose into TMNF.
    out_.mutable_rules().clear();
    for (const Rule& rule : acyclic_rules) MD_RETURN_NOT_OK(Decompose(rule));
    if (used_fsib_) EmitFsibDefinition();

    // Dropping unsatisfiable rules can leave a predicate without rules, and
    // so every rule that reads it unfireable. Validate keeps tree-schema
    // names out of the heads, so no emptied predicate passes for the tree
    // relation of the same name.
    core::PruneUnderivableRules(&out_);
    MD_RETURN_NOT_OK(CheckTmnf(out_, {.ranked = ranked_}));
    if (stats_ != nullptr) {
      stats_->output_rules = static_cast<int32_t>(out_.rules().size());
    }
    return std::move(out_);
  }

 private:
  struct Edge {
    VarId other;
    const Atom* atom;
    bool var_is_source;  ///< this var is the atom's first argument
  };

  util::Status Validate() {
    MD_RETURN_NOT_OK(core::CheckSafety(out_));
    MD_RETURN_NOT_OK(core::CheckMonadic(out_));
    std::vector<bool> intensional = out_.IntensionalMask();
    for (const Rule& r : out_.rules()) {
      if (r.head.args.empty()) {
        return util::Status::Unimplemented(
            "propositional heads are not supported by the TMNF pipeline");
      }
      for (const Term& t : r.head.args) {
        if (!t.is_var()) {
          return util::Status::Unimplemented(
              "constants are not supported by the TMNF pipeline");
        }
      }
      const std::string& head = out_.preds().Name(r.head.pred);
      if (head.rfind("__", 0) == 0) {
        return util::Status::InvalidArgument(
            "predicate names starting with __ are reserved by the pipeline");
      }
      if (core::IsTreePredicate(head, 1)) {
        return util::Status::InvalidArgument(
            "rule head '" + head + "' names a tree-schema predicate");
      }
      for (const Atom& a : r.body) {
        for (const Term& t : a.args) {
          if (!t.is_var()) {
            return util::Status::Unimplemented(
                "constants are not supported by the TMNF pipeline");
          }
        }
        if (intensional[a.pred]) {
          if (a.args.size() != 1) {
            return util::Status::Unimplemented(
                "propositional intensional atoms unsupported");
          }
          continue;
        }
        const std::string& name = out_.preds().Name(a.pred);
        int32_t arity = static_cast<int32_t>(a.args.size());
        // Ranked input is over τ_rk; unranked input over τ_ur and its
        // extensions but the chase's own nextsibling_tc.
        using K = core::TreePred::Kind;
        const std::optional<core::TreePred> tp =
            core::ClassifyTreePredicate(name, arity);
        const bool ok =
            tp.has_value() &&
            (ranked_ ? core::InTmnfSchema(*tp, /*ranked=*/true)
                     : tp->kind != K::kNextSiblingTc && tp->kind != K::kChildK);
        if (!ok) {
          return util::Status::InvalidArgument(
              "predicate '" + name + "'/" + std::to_string(arity) +
              " is outside the TMNF input signature");
        }
      }
    }
    return util::Status::OK();
  }

  /// firstsibling(x) becomes __fsib(x), defined by one TMNF rule (unranked
  /// only).
  void Preprocess(Rule* rule) {
    if (ranked_) return;
    const PredId firstsibling = out_.preds().Find("firstsibling");
    if (firstsibling < 0) return;
    for (Atom& a : rule->body) {
      if (a.pred == firstsibling) {
        used_fsib_ = true;
        a = MakeAtom(FsibPred(), {a.args[0]});
      }
    }
  }

  PredId FsibPred() { return out_.preds().MustIntern("__fsib", 1); }

  void EmitFsibDefinition() {
    // __fsib(x) ← __dom(x0), firstchild(x0, x): TMNF form (2).
    PredId fc = out_.preds().MustIntern("firstchild", 2);
    PredId dom = EnsureDom();
    out_.AddRule(MakeRule(MakeAtom(FsibPred(), {Term::Var(0)}),
                          {MakeAtom(dom, {Term::Var(1)}),
                           MakeAtom(fc, {Term::Var(1), Term::Var(0)})},
                          {"x", "x0"}));
  }

  /// Step 3: if the rule's variables fall into several components (counting
  /// unary-only variables as singletons), add a total-caterpillar edge from
  /// the head variable to one representative per other component.
  util::Status Connect(Rule* rule) {
    if (rule->num_vars() <= 1) return util::Status::OK();
    std::vector<int32_t> comp = core::RuleVarComponents(out_, *rule);
    int32_t head_comp = comp[rule->head.args[0].value];
    std::set<int32_t> done = {head_comp};
    MD_ASSIGN_OR_RETURN(PredId any, out_.preds().Intern("__any", 2));
    for (VarId v = 0; v < rule->num_vars(); ++v) {
      if (done.insert(comp[v]).second) {
        rule->body.push_back(MakeAtom(any, {rule->head.args[0], Term::Var(v)}));
      }
    }
    return util::Status::OK();
  }

  PredId Fresh() {
    return out_.preds().MustIntern("__t" + std::to_string(fresh_counter_++),
                                   1);
  }

  /// The always-true node predicate, for variables with no constraints of
  /// their own: __dom(x) holds of every node (cf. the "dom" pattern in the
  /// proof of Theorem 6.5).
  PredId EnsureDom() {
    if (dom_pred_ >= 0) return dom_pred_;
    dom_pred_ = out_.preds().MustIntern("__dom", 1);
    PredId root = out_.preds().MustIntern("root", 1);
    Term x = Term::Var(0), y = Term::Var(1);
    out_.AddRule(
        MakeRule(MakeAtom(dom_pred_, {x}), {MakeAtom(root, {x})}, {"x"}));
    if (ranked_) {
      for (int32_t k = 1; k <= std::max(max_child_k_, 2); ++k) {
        PredId ck = out_.preds().MustIntern("child" + std::to_string(k), 2);
        out_.AddRule(MakeRule(MakeAtom(dom_pred_, {y}),
                              {MakeAtom(dom_pred_, {x}), MakeAtom(ck, {x, y})},
                              {"x", "y"}));
      }
    } else {
      PredId fc = out_.preds().MustIntern("firstchild", 2);
      PredId ns = out_.preds().MustIntern("nextsibling", 2);
      out_.AddRule(MakeRule(MakeAtom(dom_pred_, {y}),
                            {MakeAtom(dom_pred_, {x}), MakeAtom(fc, {x, y})},
                            {"x", "y"}));
      out_.AddRule(MakeRule(MakeAtom(dom_pred_, {y}),
                            {MakeAtom(dom_pred_, {x}), MakeAtom(ns, {x, y})},
                            {"x", "y"}));
    }
    return dom_pred_;
  }

  /// The total caterpillar connecting any two nodes.
  caterpillar::ExprPtr AnyExpr() const {
    if (!ranked_) return caterpillar::AnyNodeExpr();
    // Up to a common ancestor, then down: (⋃ child_k^-1)* . (⋃ child_k)*.
    std::vector<caterpillar::ExprPtr> down, up;
    for (int32_t k = 1; k <= std::max(max_child_k_, 2); ++k) {
      down.push_back(caterpillar::Rel("child" + std::to_string(k)));
      up.push_back(
          caterpillar::Rel("child" + std::to_string(k), /*inverted=*/true));
    }
    return caterpillar::Concat({caterpillar::Star(caterpillar::Union(up)),
                                caterpillar::Star(caterpillar::Union(down))});
  }

  bool IsCaterpillarAtom(const Atom& a) const {
    const std::string& name = out_.preds().Name(a.pred);
    const std::optional<core::TreePred> tp = core::ClassifyTreePredicate(
        name, static_cast<int32_t>(a.args.size()));
    return name == "__any" ||
           (tp.has_value() && tp->kind == core::TreePred::Kind::kNextSiblingTc);
  }

  /// Step 4 (Lemmas 5.7/5.8/5.9): decomposes one acyclic connected rule into
  /// TMNF rules appended to out_.
  util::Status Decompose(const Rule& rule) {
    std::vector<std::vector<Edge>> adj(std::max(rule.num_vars(), 1));
    std::vector<std::vector<PredId>> unary_on(std::max(rule.num_vars(), 1));
    for (const Atom& a : rule.body) {
      if (a.args.size() == 1) {
        unary_on[a.args[0].value].push_back(a.pred);
      } else {
        VarId x = a.args[0].value, y = a.args[1].value;
        adj[x].push_back({y, &a, true});
        adj[y].push_back({x, &a, false});
      }
    }
    VarId head_var = rule.head.args[0].value;
    MD_ASSIGN_OR_RETURN(
        PredId p_head,
        DefineSubtree(rule, adj, unary_on, head_var, /*parent=*/-1));
    // p(x) ← P_head(x): TMNF form (1).
    out_.AddRule(MakeRule(MakeAtom(rule.head.pred, {Term::Var(0)}),
                          {MakeAtom(p_head, {Term::Var(0)})}, {"x"}));
    return util::Status::OK();
  }

  /// Defines and returns P_v: the conjunction of all constraints in v's
  /// subtree of the query tree rooted at the head variable.
  util::Result<PredId> DefineSubtree(
      const Rule& rule, const std::vector<std::vector<Edge>>& adj,
      const std::vector<std::vector<PredId>>& unary_on, VarId v,
      VarId parent) {
    std::vector<PredId> conjuncts = unary_on[v];
    for (const Edge& e : adj[v]) {
      if (e.other == parent) continue;
      MD_ASSIGN_OR_RETURN(PredId p_child,
                          DefineSubtree(rule, adj, unary_on, e.other, v));
      MD_ASSIGN_OR_RETURN(PredId hop, DefineHop(*e.atom, e.var_is_source,
                                                p_child));
      conjuncts.push_back(hop);
    }
    if (conjuncts.empty()) return EnsureDom();
    if (conjuncts.size() == 1) return conjuncts[0];
    // Chain of TMNF form (3) rules.
    Term x = Term::Var(0);
    PredId acc = conjuncts[0];
    for (size_t i = 1; i < conjuncts.size(); ++i) {
      PredId next = Fresh();
      out_.AddRule(MakeRule(MakeAtom(next, {x}),
                            {MakeAtom(acc, {x}), MakeAtom(conjuncts[i], {x})},
                            {"x"}));
      acc = next;
    }
    return acc;
  }

  /// Defines H(v) ⟺ ∃c. edge(v,c) ∧ P_c(c), where the edge atom is either a
  /// schema relation (TMNF form (2)) or a caterpillar predicate (compiled
  /// via Lemma 5.9). `v_is_source` says whether v is the atom's first
  /// argument.
  util::Result<PredId> DefineHop(const Atom& atom, bool v_is_source,
                                 PredId p_child) {
    Term x = Term::Var(0), x0 = Term::Var(1);
    if (IsCaterpillarAtom(atom)) {
      const std::string& name = out_.preds().Name(atom.pred);
      caterpillar::ExprPtr expr =
          name == "__any" ? AnyExpr()
                          : caterpillar::Star(caterpillar::Rel("nextsibling"));
      // H(v) ⟺ v ∈ image of P_c under E^-1 (if atom is E(v, c)) or under E
      // (if atom is E(c, v)).
      if (v_is_source) expr = caterpillar::Inverse(expr);
      return caterpillar::AppendCaterpillarRules(
          &out_, p_child, expr, "__t" + std::to_string(fresh_counter_++),
          {.ranked = ranked_});
    }
    // Schema relation: one TMNF form (2) rule.
    PredId hop = Fresh();
    // v is the head variable x of the hop rule; the child c is x0.
    Atom rel_atom = v_is_source ? MakeAtom(atom.pred, {x, x0})
                                : MakeAtom(atom.pred, {x0, x});
    out_.AddRule(MakeRule(MakeAtom(hop, {x}),
                          {MakeAtom(p_child, {x0}), std::move(rel_atom)},
                          {"x", "x0"}));
    return hop;
  }

  bool ranked_;
  TmnfStats* stats_;
  Program out_;
  bool used_fsib_ = false;
  int32_t fresh_counter_ = 0;
  PredId dom_pred_ = -1;
  int32_t max_child_k_ = 0;
};

}  // namespace

util::Result<Program> ToTmnf(const Program& input, TmnfStats* stats) {
  return TmnfPipeline(input, /*ranked=*/false, stats).Run();
}

util::Result<Program> ToTmnfRanked(const Program& input, TmnfStats* stats) {
  return TmnfPipeline(input, /*ranked=*/true, stats).Run();
}

}  // namespace mdatalog::tmnf
