#include "src/elog/to_datalog.h"

#include <algorithm>
#include <map>

#include "src/core/grounder.h"
#include "src/core/tree_schema.h"

namespace mdatalog::elog {

namespace {

using core::Atom;
using core::MakeAtom;
using core::PredId;
using core::Rule;
using core::Term;
using core::VarId;

/// Per-rule variable allocator (Elog variables are named; datalog variables
/// are indices).
class VarMap {
 public:
  VarId Get(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    VarId id = static_cast<VarId>(names_.size());
    ids_.emplace(name, id);
    names_.push_back(name);
    return id;
  }
  VarId Fresh() {
    VarId id = static_cast<VarId>(names_.size());
    names_.push_back("z");
    names_.back() += std::to_string(id);
    return id;
  }
  std::vector<std::string> names() { return names_; }

 private:
  std::map<std::string, VarId> ids_;
  std::vector<std::string> names_;
};

}  // namespace

namespace {

/// The rule-by-rule translation of Definition 6.1. The Δ builtins become the
/// grounded engine's builtin atoms (core/grounder.h): notafter/notbefore as
/// binary residual checks; before as the before-any check when its y occurs
/// nowhere else, and otherwise as the window atom (x0, x, c) on a fresh
/// child c of x0 followed by the rest of the path down to y. A before with
/// an ε path holds nowhere, so its rule is dropped.
util::Result<core::Program> Translate(const ElogProgram& program,
                                      const std::string& query_pattern) {
  core::Program out;
  auto& preds = out.preds();
  PredId root = preds.MustIntern("root", 1);
  PredId child = preds.MustIntern("child", 2);
  PredId leaf = preds.MustIntern("leaf", 1);
  PredId firstsibling = preds.MustIntern("firstsibling", 1);
  PredId lastsibling = preds.MustIntern("lastsibling", 1);
  PredId nextsibling = preds.MustIntern("nextsibling", 2);

  auto pattern_pred = [&](const std::string& name) -> util::Result<PredId> {
    if (name == "root") return root;
    return preds.Intern("pat_" + name, 1);
  };

  /// Expands subelem/contains: appends child/label atoms walking `path` from
  /// `src`; returns the terminal variable (== src for the ε path).
  auto expand_path = [&](VarMap& vars, VarId src, const ElogPath& path,
                         std::vector<Atom>* body) -> VarId {
    VarId cur = src;
    for (const std::string& step : path.steps) {
      VarId next = vars.Fresh();
      body->push_back(MakeAtom(child, {Term::Var(cur), Term::Var(next)}));
      if (step != "_") {
        PredId lbl = preds.MustIntern(core::LabelPredName(step), 1);
        body->push_back(MakeAtom(lbl, {Term::Var(next)}));
      }
      cur = next;
    }
    return cur;
  };

  /// Appends child/label atoms walking the non-ε `path` from `src` to the
  /// variable `target_name`.
  auto path_to = [&](VarMap& vars, VarId src, const ElogPath& path,
                     const std::string& target_name, std::vector<Atom>* body) {
    ElogPath prefix = path;
    std::string last = prefix.steps.back();
    prefix.steps.pop_back();
    VarId before_last = expand_path(vars, src, prefix, body);
    VarId target = vars.Get(target_name);
    body->push_back(
        MakeAtom(child, {Term::Var(before_last), Term::Var(target)}));
    if (last != "_") {
      PredId lbl = preds.MustIntern(core::LabelPredName(last), 1);
      body->push_back(MakeAtom(lbl, {Term::Var(target)}));
    }
  };

  for (const ElogRule& rule : program.rules()) {
    VarMap vars;
    std::vector<Atom> body;
    bool holds_nowhere = false;
    // Occurrences per variable name, for before's "y used elsewhere".
    std::map<std::string, int32_t> uses = {{rule.parent_var, 1}};
    ++uses[rule.head_var];
    for (const ElogCondition& c : rule.conditions) {
      for (const std::string* v : {&c.var1, &c.var2, &c.var3}) {
        if (!v->empty()) ++uses[*v];
      }
    }

    VarId parent_var = vars.Get(rule.parent_var);
    MD_ASSIGN_OR_RETURN(PredId parent, pattern_pred(rule.parent_pattern));
    body.push_back(MakeAtom(parent, {Term::Var(parent_var)}));

    VarId head_var;
    if (rule.is_specialization()) {
      head_var = parent_var;
    } else {
      // The path has ≥1 step; the final step's variable is the head var.
      ElogPath prefix = rule.subelem;
      std::string last = prefix.steps.back();
      prefix.steps.pop_back();
      VarId before_last = expand_path(vars, parent_var, prefix, &body);
      head_var = vars.Get(rule.head_var);
      body.push_back(
          MakeAtom(child, {Term::Var(before_last), Term::Var(head_var)}));
      if (last != "_") {
        PredId lbl = preds.MustIntern(core::LabelPredName(last), 1);
        body.push_back(MakeAtom(lbl, {Term::Var(head_var)}));
      }
    }

    for (const ElogCondition& c : rule.conditions) {
      using K = ElogCondition::Kind;
      switch (c.kind) {
        case K::kLeaf:
          body.push_back(MakeAtom(leaf, {Term::Var(vars.Get(c.var1))}));
          break;
        case K::kFirstSibling:
          body.push_back(
              MakeAtom(firstsibling, {Term::Var(vars.Get(c.var1))}));
          break;
        case K::kLastSibling:
          body.push_back(
              MakeAtom(lastsibling, {Term::Var(vars.Get(c.var1))}));
          break;
        case K::kNextSibling:
          body.push_back(MakeAtom(nextsibling, {Term::Var(vars.Get(c.var1)),
                                                Term::Var(vars.Get(c.var2))}));
          break;
        case K::kContains: {
          // contains: like subelem but the target is c.var2.
          path_to(vars, vars.Get(c.var1), c.path, c.var2, &body);
          break;
        }
        case K::kPatternRef: {
          MD_ASSIGN_OR_RETURN(PredId p, pattern_pred(c.pattern));
          body.push_back(MakeAtom(p, {Term::Var(vars.Get(c.var1))}));
          break;
        }
        case K::kNotAfter:
        case K::kNotBefore: {
          const std::string name = core::DeltaBuiltinPredName(
              c.kind == K::kNotAfter ? core::DeltaBuiltin::kNotAfter
                                     : core::DeltaBuiltin::kNotBefore,
              c.path.ToString());
          const VarId x0 = vars.Get(c.var1);
          const VarId y = vars.Get(c.var2);
          body.push_back(MakeAtom(preds.MustIntern(name, 2),
                                  {Term::Var(x0), Term::Var(y)}));
          break;
        }
        case K::kBefore: {
          if (c.path.empty()) {
            holds_nowhere = true;
            break;
          }
          const VarId x0 = vars.Get(c.var1);
          const VarId x = vars.Get(c.var2);
          if (uses[c.var3] == 1) {
            body.push_back(MakeAtom(
                preds.MustIntern(
                    core::DeltaBuiltinPredName(core::DeltaBuiltin::kBeforeAny,
                                               c.path.ToString(), c.alpha_pct,
                                               c.beta_pct),
                    2),
                {Term::Var(x0), Term::Var(x)}));
            break;
          }
          ElogPath rest = c.path;
          rest.steps.erase(rest.steps.begin());
          const VarId top = rest.empty() ? vars.Get(c.var3) : vars.Fresh();
          body.push_back(MakeAtom(
              preds.MustIntern(core::DeltaBuiltinPredName(
                                   core::DeltaBuiltin::kBeforeWindow, "",
                                   c.alpha_pct, c.beta_pct),
                               3),
              {Term::Var(x0), Term::Var(x), Term::Var(top)}));
          if (c.path.steps[0] != "_") {
            PredId lbl =
                preds.MustIntern(core::LabelPredName(c.path.steps[0]), 1);
            body.push_back(MakeAtom(lbl, {Term::Var(top)}));
          }
          if (!rest.empty()) path_to(vars, top, rest, c.var3, &body);
          break;
        }
      }
    }

    MD_ASSIGN_OR_RETURN(PredId head, pattern_pred(rule.head_pattern));
    if (holds_nowhere) continue;
    Rule out_rule;
    out_rule.head = MakeAtom(head, {Term::Var(head_var)});
    out_rule.body = std::move(body);
    out_rule.var_names = vars.names();
    out.AddRule(std::move(out_rule));
  }

  if (!query_pattern.empty()) {
    MD_ASSIGN_OR_RETURN(PredId q, pattern_pred(query_pattern));
    out.set_query_pred(q);
  }
  return out;
}

/// Drops, to a fixpoint, every rule whose body names a pattern no remaining
/// rule defines: its extent is empty, so the rule never fires.
void DropRulesOnUndefinedPatterns(core::Program* program) {
  const core::PredicateTable& preds = program->preds();
  for (bool changed = true; changed;) {
    changed = false;
    std::vector<bool> defined(preds.size(), false);
    for (const Rule& r : program->rules()) defined[r.head.pred] = true;
    std::vector<Rule>& rules = program->mutable_rules();
    const size_t before = rules.size();
    std::erase_if(rules, [&](const Rule& r) {
      for (const Atom& a : r.body) {
        if (!defined[a.pred] && preds.Name(a.pred).starts_with("pat_")) {
          return true;
        }
      }
      return false;
    });
    changed = rules.size() != before;
  }
}

/// Renumbers a rule's variables densely, in order of first occurrence.
Rule CompactVars(Rule rule) {
  std::vector<VarId> renamed(rule.num_vars(), -1);
  std::vector<std::string> names;
  auto rename = [&](Atom& a) {
    for (Term& t : a.args) {
      if (!t.is_var()) continue;
      if (renamed[t.value] < 0) {
        renamed[t.value] = static_cast<VarId>(names.size());
        names.push_back(rule.var_names[t.value]);
      }
      t.value = renamed[t.value];
    }
  };
  rename(rule.head);
  for (Atom& a : rule.body) rename(a);
  rule.var_names = std::move(names);
  return rule;
}

/// Splits `rule` so that no variable keeps `child` successors in two
/// branches the rule joins only through it: at such a variable w, every
/// branch without the head variable becomes an auxiliary unary predicate
/// b(w) ← child(w, y), branch — a semijoin, as the connectedness split of
/// Theorem 4.2 turns components into bridges. A before window (x0, x, c)
/// counts c as a child successor of x0. Appends the resulting rules.
void SplitBranches(core::Program* program, Rule rule,
                   std::vector<Rule>* out) {
  const PredId child = program->preds().Find("child");
  std::vector<Rule> work = {std::move(rule)};
  while (!work.empty()) {
    Rule r = std::move(work.back());
    work.pop_back();
    const VarId head = !r.head.args.empty() && r.head.args[0].is_var()
                           ? r.head.args[0].value
                           : -1;
    for (VarId w = 0; w < r.num_vars(); ++w) {
      // Branches below w: the components of the rule's variables other
      // than w, joined by every atom.
      std::vector<VarId> group(r.num_vars());
      for (VarId v = 0; v < r.num_vars(); ++v) group[v] = v;
      auto find = [&group](VarId v) {
        while (group[v] != v) v = group[v] = group[group[v]];
        return v;
      };
      std::vector<VarId> successors;
      for (const Atom& a : r.body) {
        VarId first = -1;
        for (const Term& t : a.args) {
          if (!t.is_var() || t.value == w) continue;
          if (first < 0) {
            first = t.value;
          } else {
            group[find(first)] = find(t.value);
          }
        }
        const bool below_w = (a.pred == child || a.args.size() == 3) &&
                             a.args[0] == Term::Var(w) &&
                             a.args.back().is_var() &&
                             a.args.back().value != w;
        if (below_w) successors.push_back(a.args.back().value);
      }
      std::vector<VarId> branches;
      for (VarId y : successors) {
        const VarId g = find(y);
        if (std::find(branches.begin(), branches.end(), g) == branches.end()) {
          branches.push_back(g);
        }
      }
      if (branches.size() < 2) continue;
      const VarId head_branch = head >= 0 && head != w ? find(head) : -1;
      for (VarId g : branches) {
        if (g == head_branch) continue;
        const PredId aux = program->preds().MustIntern(
            "branch#" + std::to_string(program->preds().size()), 1);
        Rule split;
        split.head = MakeAtom(aux, {Term::Var(w)});
        split.var_names = r.var_names;
        std::vector<Atom> kept;
        for (Atom& a : r.body) {
          bool in_branch = false;
          for (const Term& t : a.args) {
            in_branch |= t.is_var() && t.value != w && find(t.value) == g;
          }
          (in_branch ? split.body : kept).push_back(std::move(a));
        }
        kept.push_back(MakeAtom(aux, {Term::Var(w)}));
        r.body = std::move(kept);
        work.push_back(std::move(split));
      }
    }
    out->push_back(CompactVars(std::move(r)));
  }
}

}  // namespace

util::Result<core::Program> ElogToDatalog(const ElogProgram& program,
                                          const std::string& query_pattern) {
  MD_RETURN_NOT_OK(ValidateElog(program));
  if (program.UsesDeltaBuiltins()) {
    return util::Status::InvalidArgument(
        "Elog⁻Δ builtins (before/notafter/notbefore) exceed MSO and have no "
        "datalog translation (Theorem 6.6)");
  }
  return Translate(program, query_pattern);
}

util::Result<core::Program> LowerToGroundProgram(const ElogProgram& program) {
  MD_RETURN_NOT_OK(ValidateElog(program));
  MD_ASSIGN_OR_RETURN(core::Program lowered,
                      Translate(program, ""));
  DropRulesOnUndefinedPatterns(&lowered);
  std::vector<Rule> rules;
  for (Rule& r : lowered.mutable_rules()) {
    SplitBranches(&lowered, std::move(r), &rules);
  }
  lowered.mutable_rules() = std::move(rules);
  return lowered;
}

util::Result<ElogGroundPlan> CompileGroundPlan(
    const ElogProgram& program, std::span<const std::string> patterns) {
  MD_ASSIGN_OR_RETURN(core::Program lowered, LowerToGroundProgram(program));
  MD_ASSIGN_OR_RETURN(core::GroundPlan plan,
                      core::GroundPlan::Compile(lowered));
  // A pattern no rule defines (or whose rules were all dropped) is never
  // derivable; it may still name a predicate the plan holds no set for.
  const std::vector<bool> intensional = lowered.IntensionalMask();
  std::vector<core::PredId> pattern_preds;
  pattern_preds.reserve(patterns.size());
  for (const std::string& pattern : patterns) {
    const core::PredId p = lowered.preds().Find("pat_" + pattern);
    pattern_preds.push_back(p >= 0 && intensional[p] ? p : -1);
  }
  return ElogGroundPlan{std::move(plan), std::move(pattern_preds)};
}

}  // namespace mdatalog::elog
