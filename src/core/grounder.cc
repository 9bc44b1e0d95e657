#include "src/core/grounder.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/core/database.h"
#include "src/core/validate.h"

namespace mdatalog::core {

namespace {

/// Binary tree relations admissible for grounding: functional in both
/// directions (Proposition 4.1).
enum class TreeRel { kFirstChild, kNextSibling, kChildK };

struct RelKind {
  TreeRel rel;
  int32_t k = 0;  // for kChildK
};

bool ClassifyBinary(const std::string& name, RelKind* out) {
  if (name == "firstchild") {
    *out = {TreeRel::kFirstChild, 0};
    return true;
  }
  if (name == "nextsibling") {
    *out = {TreeRel::kNextSibling, 0};
    return true;
  }
  int32_t k = ChildKIndex(name);
  if (k >= 1) {
    *out = {TreeRel::kChildK, k};
    return true;
  }
  return false;
}

/// y = f_R(x), or kNoNode.
tree::NodeId ApplyForward(const tree::Tree& t, const RelKind& r,
                          tree::NodeId x) {
  switch (r.rel) {
    case TreeRel::kFirstChild: return t.first_child(x);
    case TreeRel::kNextSibling: return t.next_sibling(x);
    case TreeRel::kChildK: return t.ChildK(x, r.k);
  }
  return tree::kNoNode;
}

/// x = f_R^{-1}(y), or kNoNode.
tree::NodeId ApplyBackward(const tree::Tree& t, const RelKind& r,
                           tree::NodeId y) {
  switch (r.rel) {
    case TreeRel::kFirstChild:
      return (t.prev_sibling(y) == tree::kNoNode) ? t.parent(y) : tree::kNoNode;
    case TreeRel::kNextSibling:
      return t.prev_sibling(y);
    case TreeRel::kChildK: {
      // y must be exactly the k-th child of its parent.
      tree::NodeId c = y;
      for (int32_t steps = 1; steps < r.k; ++steps) {
        c = t.prev_sibling(c);
        if (c == tree::kNoNode) return tree::kNoNode;
      }
      if (t.prev_sibling(c) != tree::kNoNode) return tree::kNoNode;
      return t.parent(y);
    }
  }
  return tree::kNoNode;
}

/// Unary tree predicates, pre-classified at plan-compile time. Label ids are
/// interned per tree, so the plan keeps the label *name* and each evaluation
/// resolves it once against its tree's alphabet (GroundArena::unary_labels).
enum class UnaryKind : uint8_t {
  kRoot,
  kLeaf,
  kLastSibling,
  kFirstSibling,
  kLabel,
};

bool CheckUnaryTreePred(const tree::Tree& t, UnaryKind kind,
                        tree::LabelId label, tree::NodeId n) {
  switch (kind) {
    case UnaryKind::kRoot: return t.IsRoot(n);
    case UnaryKind::kLeaf: return t.IsLeaf(n);
    case UnaryKind::kLastSibling: return t.IsLastSibling(n);
    case UnaryKind::kFirstSibling: return t.IsFirstSibling(n);
    case UnaryKind::kLabel: return t.label(n) == label;
  }
  return false;
}

}  // namespace

bool GroundableOverTree(const Program& program) {
  if (!CheckSafety(program).ok()) return false;
  if (!CheckMonadic(program).ok()) return false;
  std::vector<bool> intensional = program.IntensionalMask();
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      if (intensional[a.pred]) continue;
      const std::string& name = program.preds().Name(a.pred);
      int32_t arity = program.preds().Arity(a.pred);
      if (arity == 0) return false;  // no nullary EDB in the tree schema
      if (arity == 1) {
        if (name != "root" && name != "leaf" && name != "lastsibling" &&
            name != "firstsibling" && LabelFromPredName(name).empty()) {
          return false;
        }
      } else if (arity == 2) {
        RelKind kind;
        if (!ClassifyBinary(name, &kind)) return false;
      } else {
        return false;
      }
    }
  }
  return true;
}

/// The compiled, tree-independent form of a groundable program. Everything
/// here is derived from the program alone; evaluation replays it per tree.
struct GroundPlan::Impl {
  // Predicate metadata (copied — the plan outlives the source Program).
  int32_t num_preds = 0;
  PredId query_pred = -1;
  std::vector<bool> intensional;
  std::vector<int8_t> pred_arity;

  // Atom-slot layout, statically assigned: each unary IDB predicate owns a
  // slot in [0, num_unary) (one NodeSet per tree); nullary IDB atoms follow
  // in [num_unary, +num_nullary), then the bridge atoms of the connectedness
  // split (proof step 1) in [.., +num_bridges). Only unary slots scale with
  // the tree.
  std::vector<int32_t> unary_index;   // per pred, -1 or dense unary slot
  std::vector<int32_t> nullary_slot;  // per pred, -1 or dense nullary slot
  int32_t num_unary = 0;
  int32_t num_nullary = 0;
  int32_t num_bridges = 0;
  int32_t max_vars = 1;

  // Extensional classification (per EDB PredId of the given arity).
  struct UnaryPlanSpec {
    UnaryKind kind = UnaryKind::kRoot;
    std::string label;  // for kLabel
  };
  std::vector<UnaryPlanSpec> unary_specs;
  std::vector<RelKind> binary_specs;

  /// One propagation step of a component schedule (spanning-tree assignment
  /// or consistency check, BFS order from the anchor).
  struct Step {
    bool assign;  // true: binding[to] = f(from); false: f(from) == binding[to]
    VarId from, to;
    RelKind rel;
    bool forward;
  };

  /// The test of one variable component of one rule from a fixed anchor
  /// variable: binding the anchor determines every other variable (Prop.
  /// 4.1), then the extensional atoms are checked against the tree and the
  /// intensional literals against the atoms derived so far.
  struct Schedule {
    VarId anchor = -1;
    std::vector<Step> steps;
    std::vector<std::pair<PredId, VarId>> unary_checks;  // EDB arity-1
    std::vector<Atom> residual;  // constant-carrying binary EDB atoms
    std::vector<std::pair<int32_t, VarId>> idb_lits;  // (unary slot, var)
  };

  /// One occurrence of a unary IDB predicate as a body literal of a rule
  /// component — an entry of LTUR's occurrence list, compiled once. When
  /// p(n) is derived, the schedule rooted at the occurrence's variable
  /// builds the single instance of the component containing that atom.
  struct Trigger {
    int32_t rule = -1;
    Schedule schedule;  // idb_lits exclude the triggering occurrence
  };

  /// A program rule, or the bridge rule `b ← component` of one of its
  /// components without the head variable (proof step 1).
  struct RulePlan {
    int32_t head_slot = -1;
    bool head_has_arg = false;  // arity-1 head
    VarId head_var = -1;        // >= 0 iff the head is p(x)
    int32_t head_const = -1;    // when the head is p(c)
    std::vector<Atom> ground_edb;  // variable-free EDB body atoms
    // Shared-body IDB occurrences (ground IDB atoms and bridges). The rule
    // fires only once all of them hold.
    int32_t num_shared = 0;
    // The head variable's (or a bridge's) component; nullopt: the rule has
    // a single instance (constant or nullary head).
    std::optional<Schedule> head_sweep;
  };
  std::vector<RulePlan> rules;

  // Per unary slot: the triggers of its predicate, and its ground body
  // occurrences p(c) as (c, rule), sorted.
  std::vector<std::vector<Trigger>> triggers;
  std::vector<std::vector<std::pair<tree::NodeId, int32_t>>> ground_uses;
  // Per nullary or bridge slot (offset by num_unary): the rules whose shared
  // body holds it, one entry per occurrence.
  std::vector<std::vector<int32_t>> shared_uses;
};

GroundPlan::GroundPlan(std::unique_ptr<const Impl> impl)
    : impl_(std::move(impl)) {}
GroundPlan::GroundPlan(GroundPlan&&) noexcept = default;
GroundPlan& GroundPlan::operator=(GroundPlan&&) noexcept = default;
GroundPlan::~GroundPlan() = default;

namespace {

using IdbLit = std::pair<int32_t, VarId>;  // (unary slot, var)

/// Compiles the test of one variable component (`atoms`, all of whose
/// `num_vars` variables lie in the component) rooted at `anchor`. `skip` is
/// an IDB literal left out of idb_lits: the one whose derivation runs the
/// schedule.
GroundPlan::Impl::Schedule CompileSchedule(
    const GroundPlan::Impl& plan, const Rule& rule,
    const std::vector<const Atom*>& atoms, [[maybe_unused]] int32_t num_vars,
    VarId anchor, IdbLit skip = {-1, -1}) {
  GroundPlan::Impl::Schedule out;
  out.anchor = anchor;

  struct DirEdge {
    VarId from, to;
    RelKind rel;
    bool forward;
    int32_t atom;
  };
  std::vector<std::vector<DirEdge>> adj(rule.num_vars());
  for (size_t ai = 0; ai < atoms.size(); ++ai) {
    const Atom* a = atoms[ai];
    if (plan.intensional[a->pred]) {
      // Monadic + in this component ⇒ one argument, and it is a variable.
      MD_DCHECK(a->args.size() == 1 && a->args[0].is_var());
      const IdbLit lit{plan.unary_index[a->pred], a->args[0].value};
      if (lit != skip && std::find(out.idb_lits.begin(), out.idb_lits.end(),
                                   lit) == out.idb_lits.end()) {
        out.idb_lits.push_back(lit);
      }
    } else if (a->args.size() == 1) {
      MD_DCHECK(a->args[0].is_var());
      out.unary_checks.emplace_back(a->pred, a->args[0].value);
    } else if (a->args[0].is_var() && a->args[1].is_var()) {
      const RelKind& kind = plan.binary_specs[a->pred];
      VarId x = a->args[0].value, y = a->args[1].value;
      adj[x].push_back({x, y, kind, true, static_cast<int32_t>(ai)});
      adj[y].push_back({y, x, kind, false, static_cast<int32_t>(ai)});
    } else {
      out.residual.push_back(*a);
    }
  }

  // BFS from the anchor: spanning-tree assignments + consistency checks.
  // Each binary atom is validated exactly once (the tree relations are
  // injective partial functions, so the reverse direction needs no re-check).
  std::vector<bool> atom_done(atoms.size(), false);
  std::vector<bool> assigned(rule.num_vars(), false);
  assigned[anchor] = true;
  std::vector<VarId> queue{anchor};
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    for (const DirEdge& e : adj[queue[qi]]) {
      if (!assigned[e.to]) {
        out.steps.push_back({true, e.from, e.to, e.rel, e.forward});
        assigned[e.to] = true;
        atom_done[e.atom] = true;
        queue.push_back(e.to);
      } else if (!atom_done[e.atom]) {
        out.steps.push_back({false, e.from, e.to, e.rel, e.forward});
        atom_done[e.atom] = true;
      }
    }
  }
  MD_DCHECK(static_cast<int32_t>(queue.size()) == num_vars);  // connected
  return out;
}

}  // namespace

util::Result<GroundPlan> GroundPlan::Compile(const Program& program) {
  if (!GroundableOverTree(program)) {
    return util::Status::FailedPrecondition(
        "program not groundable over the functional tree schema; normalize "
        "with the TMNF pipeline or use the semi-naive engine");
  }
  auto impl = std::make_unique<Impl>();
  const PredicateTable& preds = program.preds();
  impl->num_preds = preds.size();
  impl->query_pred = program.query_pred();
  impl->intensional = program.IntensionalMask();
  impl->pred_arity.resize(preds.size());
  impl->unary_specs.resize(preds.size());
  impl->binary_specs.resize(preds.size());
  impl->unary_index.assign(preds.size(), -1);
  impl->nullary_slot.assign(preds.size(), -1);

  for (PredId p = 0; p < preds.size(); ++p) {
    impl->pred_arity[p] = static_cast<int8_t>(preds.Arity(p));
    if (impl->intensional[p]) {
      if (preds.Arity(p) == 1) {
        impl->unary_index[p] = impl->num_unary++;
      } else {
        impl->nullary_slot[p] = impl->num_nullary++;
      }
      continue;
    }
    // Extensional classification. Unclassifiable predicates never occur in a
    // body of a groundable program, so their specs are never read.
    const std::string& name = preds.Name(p);
    if (preds.Arity(p) == 1) {
      Impl::UnaryPlanSpec& spec = impl->unary_specs[p];
      if (name == "root") {
        spec.kind = UnaryKind::kRoot;
      } else if (name == "leaf") {
        spec.kind = UnaryKind::kLeaf;
      } else if (name == "lastsibling") {
        spec.kind = UnaryKind::kLastSibling;
      } else if (name == "firstsibling") {
        spec.kind = UnaryKind::kFirstSibling;
      } else {
        std::string label = LabelFromPredName(name);
        if (!label.empty()) {
          spec.kind = UnaryKind::kLabel;
          spec.label = std::move(label);
        }
      }
    } else if (preds.Arity(p) == 2) {
      ClassifyBinary(name, &impl->binary_specs[p]);
    }
  }
  impl->triggers.resize(impl->num_unary);
  impl->ground_uses.resize(impl->num_unary);
  impl->shared_uses.resize(impl->num_nullary);

  // Per-rule compilation (proof steps 1–2 of Theorem 4.2, program side).
  for (const Rule& rule : program.rules()) {
    const int32_t r = static_cast<int32_t>(impl->rules.size());
    impl->rules.emplace_back();  // set below, after its bridge rules
    Impl::RulePlan rp;
    impl->max_vars = std::max(impl->max_vars, rule.num_vars());
    if (rule.head.args.empty()) {
      rp.head_slot = impl->num_unary + impl->nullary_slot[rule.head.pred];
    } else {
      rp.head_slot = impl->unary_index[rule.head.pred];
      rp.head_has_arg = true;
      if (rule.head.args[0].is_var()) {
        rp.head_var = rule.head.args[0].value;
      } else {
        rp.head_const = rule.head.args[0].value;
      }
    }

    std::vector<int32_t> comp = RuleVarComponents(program, rule);
    int32_t num_comps =
        rule.num_vars() == 0
            ? 0
            : 1 + *std::max_element(comp.begin(), comp.end());
    const int32_t head_comp = rp.head_var >= 0 ? comp[rp.head_var] : -1;

    std::vector<std::vector<const Atom*>> comp_atoms(num_comps);
    std::vector<VarId> first_var(num_comps, -1);
    std::vector<int32_t> comp_size(num_comps, 0);
    for (VarId v = rule.num_vars() - 1; v >= 0; --v) {
      first_var[comp[v]] = v;
      ++comp_size[comp[v]];
    }
    for (const Atom& a : rule.body) {
      int32_t c = -1;
      for (const Term& t : a.args) {
        if (t.is_var()) {
          c = comp[t.value];
          break;
        }
      }
      if (c >= 0) {
        comp_atoms[c].push_back(&a);
      } else if (!impl->intensional[a.pred]) {
        rp.ground_edb.push_back(a);
      } else {
        ++rp.num_shared;
        if (a.args.empty()) {
          impl->shared_uses[impl->nullary_slot[a.pred]].push_back(r);
        } else {
          impl->ground_uses[impl->unary_index[a.pred]].emplace_back(
              a.args[0].value, r);
        }
      }
    }

    for (int32_t c = 0; c < num_comps; ++c) {
      Impl::RulePlan bridge;
      Impl::RulePlan& owner = c == head_comp ? rp : bridge;
      const int32_t owner_index =
          c == head_comp ? r : static_cast<int32_t>(impl->rules.size());
      if (c != head_comp) {
        bridge.head_slot =
            impl->num_unary + impl->num_nullary + impl->num_bridges++;
        impl->shared_uses.push_back({r});
        ++rp.num_shared;
      }
      owner.head_sweep = CompileSchedule(*impl, rule, comp_atoms[c],
                                         comp_size[c], first_var[c]);
      for (const IdbLit& lit : owner.head_sweep->idb_lits) {
        impl->triggers[lit.first].push_back(
            {owner_index, CompileSchedule(*impl, rule, comp_atoms[c],
                                          comp_size[c], lit.second, lit)});
      }
      if (c != head_comp) impl->rules.push_back(std::move(bridge));
    }
    impl->rules[r] = std::move(rp);
  }
  for (auto& uses : impl->ground_uses) std::sort(uses.begin(), uses.end());
  return GroundPlan(std::move(impl));
}

/// Per-tree replay of a GroundPlan: LTUR over the implicit ground program.
/// Atoms are marked true when popped; a rule instance is built only when
/// one of its body atoms pops and fires iff its whole body is then true, so
/// it fires exactly once, at the pop of its last body atom.
/// (Named GroundedEvaluator to keep the EvalResult friendship.)
class GroundedEvaluator {
 public:
  using Impl = GroundPlan::Impl;

  GroundedEvaluator(const Impl& plan, const tree::Tree& t, GroundArena& arena,
                    const util::EvalControl* control)
      : plan_(plan), tree_(t), arena_(arena), control_(control),
        ticker_(control), n_(t.size()) {}

  util::Result<EvalResult> Run(GroundStats* stats) {
    // Fast-fail: a request already past its bounds (queue delay, slow parse)
    // must not ground anything. Also makes expiry deterministic for trees
    // smaller than the ticker stride.
    if (control_ != nullptr) MD_RETURN_NOT_OK(control_->Check());

    // Per-tree label resolution: the only tree-dependent compile work. A
    // label absent from this tree's alphabet resolves to kInvalidSymbol,
    // which no node carries — the empty relation of Remark 2.2.
    arena_.unary_labels.assign(plan_.num_preds, util::kInvalidSymbol);
    for (PredId p = 0; p < plan_.num_preds; ++p) {
      if (!plan_.intensional[p] && plan_.pred_arity[p] == 1 &&
          plan_.unary_specs[p].kind == UnaryKind::kLabel) {
        arena_.unary_labels[p] = tree_.FindLabel(plan_.unary_specs[p].label);
      }
    }
    arena_.queue.clear();
    arena_.binding.assign(plan_.max_vars, tree::kNoNode);
    sets_.reserve(plan_.num_unary);
    for (int32_t s = 0; s < plan_.num_unary; ++s) {
      sets_.emplace_back(std::max(n_, 1));
    }
    flags_.assign(plan_.num_nullary + plan_.num_bridges, 0);

    // A rule is pending while some shared-body IDB atom is not yet true; a
    // failed ground EDB atom or an out-of-domain constant head keeps it
    // pending for good.
    pending_.resize(plan_.rules.size());
    for (size_t r = 0; r < plan_.rules.size(); ++r) {
      const Impl::RulePlan& rp = plan_.rules[r];
      bool live =
          !rp.head_has_arg || rp.head_var >= 0 || InDomain(rp.head_const);
      for (const Atom& a : rp.ground_edb) live = live && EdbAtomHolds(a);
      pending_[r] = rp.num_shared + (live ? 0 : 1);
    }

    // Seeds: rules whose bodies hold no IDB literal. A rule with IDB
    // literals only in its swept component needs no sweep now (nothing is
    // derived yet); its triggers build its instances.
    for (size_t r = 0; r < plan_.rules.size(); ++r) {
      const Impl::RulePlan& rp = plan_.rules[r];
      if (pending_[r] != 0) continue;
      if (rp.head_sweep.has_value() && !rp.head_sweep->idb_lits.empty()) {
        continue;
      }
      Activate(rp);
      if (aborted_) return abort_status_;
    }

    // Propagation: one poll per popped atom.
    std::vector<std::pair<int32_t, tree::NodeId>>& queue = arena_.queue;
    while (!queue.empty()) {
      if (!Poll()) return abort_status_;
      const auto [slot, node] = queue.back();
      queue.pop_back();
      if (slot < plan_.num_unary) {
        if (!sets_[slot].Insert(node)) continue;
        for (const Impl::Trigger& tr : plan_.triggers[slot]) Fire(tr, node);
        const auto& uses = plan_.ground_uses[slot];
        for (auto it = std::lower_bound(uses.begin(), uses.end(),
                                        std::make_pair(node, int32_t{0}));
             it != uses.end() && it->first == node; ++it) {
          Release(it->second);
        }
      } else {
        uint8_t& flag = flags_[slot - plan_.num_unary];
        if (flag != 0) continue;
        flag = 1;
        for (int32_t r : plan_.shared_uses[slot - plan_.num_unary]) {
          Release(r);
        }
      }
      if (aborted_) return abort_status_;
    }

    EvalResult result;
    result.query_pred_ = plan_.query_pred;
    result.facts_.resize(plan_.num_preds);
    for (PredId p = 0; p < plan_.num_preds; ++p) {
      if (!plan_.intensional[p]) continue;
      EvalResult::PredFacts& f = result.facts_[p];
      if (plan_.pred_arity[p] == 1) {
        NodeSet& members = sets_[plan_.unary_index[p]];
        if (!members.empty()) {
          result.num_derived_ += members.count();
          f.arity = 1;
          f.unary = std::move(members);
        }
      } else if (flags_[plan_.nullary_slot[p]] != 0) {
        f.arity = 0;
        f.nullary_true = true;
        ++result.num_derived_;
      }
    }
    result.num_iterations_ = 1;
    if (stats != nullptr) {
      stats->num_clauses = fired_;
      stats->num_atoms = int64_t{plan_.num_unary} * n_ + plan_.num_nullary +
                         plan_.num_bridges;
      stats->num_literals = lookups_;
    }
    return result;
  }

 private:
  bool InDomain(int32_t v) const { return v >= 0 && v < n_; }

  /// Strided deadline poll; records the status and returns false once it
  /// fires.
  bool Poll() {
    if (!ticker_.active()) return true;
    util::Status s = ticker_.Tick();
    if (s.ok()) return true;
    aborted_ = true;
    abort_status_ = std::move(s);
    return false;
  }

  /// Counts one fired instance and queues its head atom (slot, node) unless
  /// that is already true. `node` is kNoNode for nullary and bridge atoms.
  void Derive(int32_t slot, tree::NodeId node) {
    ++fired_;
    const bool known = slot < plan_.num_unary
                           ? sets_[slot].Contains(node)
                           : flags_[slot - plan_.num_unary] != 0;
    if (!known) arena_.queue.emplace_back(slot, node);
  }

  /// Binds the schedule's anchor to `node` and tests the component instance
  /// this determines.
  bool Matches(const Impl::Schedule& sc, tree::NodeId node) {
    std::vector<tree::NodeId>& binding = arena_.binding;
    binding[sc.anchor] = node;
    for (const Impl::Step& s : sc.steps) {
      const tree::NodeId target =
          s.forward ? ApplyForward(tree_, s.rel, binding[s.from])
                    : ApplyBackward(tree_, s.rel, binding[s.from]);
      if (s.assign) {
        if (target == tree::kNoNode) return false;
        binding[s.to] = target;
      } else if (target != binding[s.to]) {
        return false;
      }
    }
    for (const auto& [p, v] : sc.unary_checks) {
      if (!CheckUnaryTreePred(tree_, plan_.unary_specs[p].kind,
                              arena_.unary_labels[p], binding[v])) {
        return false;
      }
    }
    for (const Atom& a : sc.residual) {
      if (!EdbAtomHolds(a)) return false;
    }
    for (const auto& [slot, v] : sc.idb_lits) {
      ++lookups_;
      if (!sets_[slot].Contains(binding[v])) return false;
    }
    return true;
  }

  /// Checks a bound extensional atom against the tree; variables read the
  /// current binding.
  bool EdbAtomHolds(const Atom& a) const {
    auto value_of = [&](const Term& t) -> int32_t {
      return t.is_var() ? arena_.binding[t.value] : t.value;
    };
    if (a.args.size() == 1) {
      const int32_t v = value_of(a.args[0]);
      return InDomain(v) &&
             CheckUnaryTreePred(tree_, plan_.unary_specs[a.pred].kind,
                                arena_.unary_labels[a.pred], v);
    }
    MD_CHECK(a.args.size() == 2);
    const int32_t x = value_of(a.args[0]);
    const int32_t y = value_of(a.args[1]);
    return InDomain(x) && InDomain(y) &&
           ApplyForward(tree_, plan_.binary_specs[a.pred], x) == y;
  }

  /// The head atom of `rp`'s instance under the current binding.
  tree::NodeId HeadNode(const Impl::RulePlan& rp) const {
    if (rp.head_var >= 0) return arena_.binding[rp.head_var];
    return rp.head_has_arg ? rp.head_const : tree::kNoNode;
  }

  /// The derivation of `node` fires trigger `tr`.
  void Fire(const Impl::Trigger& tr, tree::NodeId node) {
    if (pending_[tr.rule] != 0 || !Matches(tr.schedule, node)) return;
    const Impl::RulePlan& rp = plan_.rules[tr.rule];
    Derive(rp.head_slot, HeadNode(rp));
  }

  /// One shared-body atom of rule `r` became true.
  void Release(int32_t r) {
    if (--pending_[r] == 0) Activate(plan_.rules[r]);
  }

  /// The shared body of `rp` holds: fire its single instance, or sweep its
  /// component over all anchors (a bridge only until one instance holds).
  /// Runs at most once per rule.
  void Activate(const Impl::RulePlan& rp) {
    if (!rp.head_sweep.has_value()) {
      Derive(rp.head_slot, HeadNode(rp));
      return;
    }
    for (tree::NodeId node = 0; node < n_; ++node) {
      if (!Poll()) return;
      if (!Matches(*rp.head_sweep, node)) continue;
      Derive(rp.head_slot, HeadNode(rp));
      if (rp.head_var < 0) return;
    }
  }

  const Impl& plan_;
  const tree::Tree& tree_;
  GroundArena& arena_;
  const util::EvalControl* control_;
  util::EvalTicker ticker_;
  bool aborted_ = false;
  util::Status abort_status_ = util::Status::OK();
  int32_t n_;
  std::vector<NodeSet> sets_;     // per unary slot: atoms popped so far
  std::vector<uint8_t> flags_;    // per nullary/bridge slot: popped
  std::vector<int32_t> pending_;  // per rule: shared-body atoms not yet true
  int64_t fired_ = 0;
  int64_t lookups_ = 0;
};

util::Result<EvalResult> EvaluateGrounded(const GroundPlan& plan,
                                          const tree::Tree& t,
                                          GroundArena* arena,
                                          GroundStats* stats,
                                          const util::EvalControl* control) {
  GroundArena local;
  GroundedEvaluator evaluator(*plan.impl_, t,
                              arena != nullptr ? *arena : local, control);
  return evaluator.Run(stats);
}

util::Result<EvalResult> EvaluateGrounded(const Program& program,
                                          const tree::Tree& t,
                                          GroundStats* stats) {
  MD_ASSIGN_OR_RETURN(GroundPlan plan, GroundPlan::Compile(program));
  return EvaluateGrounded(plan, t, nullptr, stats);
}

util::Result<EvalResult> EvaluateOnTree(const Program& program,
                                        const tree::Tree& t, Engine engine,
                                        const EvalOptions& options) {
  switch (engine) {
    case Engine::kGrounded:
      return EvaluateGrounded(program, t);
    case Engine::kAuto:
      if (GroundableOverTree(program)) return EvaluateGrounded(program, t);
      [[fallthrough]];
    case Engine::kSemiNaive: {
      TreeDatabase db(t);
      return EvaluateSemiNaive(program, db, options);
    }
    case Engine::kNaive: {
      TreeDatabase db(t);
      return EvaluateNaive(program, db, options);
    }
  }
  return util::Status::Internal("unknown engine");
}

}  // namespace mdatalog::core
