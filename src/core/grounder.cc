#include "src/core/grounder.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <climits>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/core/tree_schema.h"
#include "src/core/validate.h"

namespace mdatalog::core {

namespace {

// --- Δ builtins -------------------------------------------------------------

struct BuiltinName {
  DeltaBuiltin kind = DeltaBuiltin::kNotAfter;
  int32_t alpha = 0, beta = 100;
  std::vector<std::string> path;
};

constexpr std::string_view kBuiltinPrefix = "delta:";

/// A step label resolved against one tree; kAnyLabel is the "_" wildcard.
constexpr tree::LabelId kAnyLabel = -2;

/// Consumes "<int>:" from the front of `s`.
bool TakeInt(std::string_view* s, int32_t* out) {
  const size_t colon = s->find(':');
  if (colon == std::string_view::npos) return false;
  const char* end = s->data() + colon;
  const auto [ptr, ec] = std::from_chars(s->data(), end, *out);
  if (ec != std::errc() || ptr != end) return false;
  s->remove_prefix(colon + 1);
  return true;
}

/// Decodes a DeltaBuiltinPredName of the given arity.
bool ClassifyBuiltin(std::string_view name, int32_t arity, BuiltinName* out) {
  int32_t kind = -1;
  if (!name.starts_with(kBuiltinPrefix)) return false;
  name.remove_prefix(kBuiltinPrefix.size());
  if (!TakeInt(&name, &kind) || !TakeInt(&name, &out->alpha) ||
      !TakeInt(&name, &out->beta) || kind < 0 ||
      kind > static_cast<int32_t>(DeltaBuiltin::kBeforeAny)) {
    return false;
  }
  out->kind = static_cast<DeltaBuiltin>(kind);
  while (!name.empty()) {
    const size_t dot = name.find('.');
    out->path.emplace_back(name.substr(0, dot));
    name.remove_prefix(dot == std::string_view::npos ? name.size() : dot + 1);
  }
  if (out->kind == DeltaBuiltin::kBeforeAny && out->path.empty()) return false;
  return arity == (out->kind == DeltaBuiltin::kBeforeWindow ? 3 : 2);
}

int64_t FloorDiv100(int64_t a) { return a >= 0 ? a / 100 : -((-a + 99) / 100); }
int64_t CeilDiv100(int64_t a) { return -FloorDiv100(-a); }

/// The events of an incremental replay (IncrementalReplay): the node events
/// that make structural EDB facts final, then the end of input, which makes
/// the Δ builtin facts final.
enum NodeEvent : int32_t {
  kCreated,       // label, firstsibling, root; child end of every edge
  kClosed,        // leaf
  kParentClosed,  // lastsibling
  kNumNodeEvents,
  kEndOfInput = kNumNodeEvents,
};

}  // namespace

std::string DeltaBuiltinPredName(DeltaBuiltin kind, std::string_view path,
                                 int32_t alpha_pct, int32_t beta_pct) {
  return std::string(kBuiltinPrefix) +
         std::to_string(static_cast<int32_t>(kind)) + ":" +
         std::to_string(alpha_pct) + ":" + std::to_string(beta_pct) + ":" +
         std::string(path);
}

bool IsDeltaBuiltinPredicate(std::string_view name, int32_t arity) {
  BuiltinName builtin;
  return ClassifyBuiltin(name, arity, &builtin);
}

bool GroundableOverTree(const Program& program) {
  if (!CheckSafety(program).ok()) return false;
  if (!CheckMonadic(program).ok()) return false;
  std::vector<bool> intensional = program.IntensionalMask();
  // lastchild lowers to child ∧ lastsibling, so those names must be free for
  // their tree meaning.
  auto tree_pred = [&](std::string_view name, int32_t arity) {
    const PredId p = program.preds().Find(name);
    return p < 0 || (program.preds().Arity(p) == arity && !intensional[p]);
  };
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      if (intensional[a.pred]) continue;
      const std::string& name = program.preds().Name(a.pred);
      int32_t arity = program.preds().Arity(a.pred);
      BuiltinName builtin;
      if (ClassifyBuiltin(name, arity, &builtin)) {
        for (const Term& t : a.args) {
          if (!t.is_var()) return false;
        }
        continue;
      }
      const std::optional<TreePred> tp = ClassifyTreePredicate(name, arity);
      if (!tp.has_value() || tp->kind == TreePred::Kind::kNextSiblingTc) {
        return false;
      }
      if (tp->kind == TreePred::Kind::kLastChild &&
          (!tree_pred("child", 2) || !tree_pred("lastsibling", 1))) {
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

  // Extensional classification (per EDB PredId): the tree predicate, and
  // for a label predicate its label *name* — label ids are interned per
  // tree, so each evaluation resolves it once against its tree's alphabet
  // (GroundArena::unary_labels).
  std::vector<TreePred> tree_preds;
  std::vector<std::string> labels;

  // Δ builtins. Each reads at most one per-tree table, filled per distinct
  // (kind, path) by one bottom-up pass of |path| sweeps over the tree.
  enum class TableKind : uint8_t {
    kMinRank,      // min pre(π(n)), INT32_MAX if empty
    kMaxRank,      // max pre(π(n)), -1 if empty
    kSiblingHits,  // for a child c: how many of its siblings up to and
                   // including c match π's first step and reach π's rest
  };
  struct PathTable {
    TableKind kind;
    std::vector<std::string> path;
  };
  struct Builtin {
    DeltaBuiltin kind;
    int32_t alpha = 0, beta = 100;
    int32_t table = -1;  // index into path_tables, -1 for kWindow
  };
  std::vector<int32_t> builtin_index;  // per pred, -1 or index into builtins
  std::vector<Builtin> builtins;
  std::vector<PathTable> path_tables;
  bool needs_child_index = false;  // a before builtin reads child positions

  /// One step of a schedule. Variables a, b, c are binding indices.
  enum class OpKind : uint8_t {
    kAssign,      // binding[b] = f_rel(binding[a]) (forward or backward)
    kCheck,       // f_rel(binding[a]) == binding[b]
    kChildren,    // binding[b] ranges over the children of binding[a]
    kWindow,      // binding[c] ranges over the children of binding[a] in
                  // builtin `index`'s window after binding[b]
    kWindowBack,  // binding[b] ranges over the children x of binding[a]
                  // whose window (builtin `index`) holds binding[c]
    kDomain,      // binding[a] ranges over dom (joins no tree edge reaches)
    kUnary,       // unary EDB predicate `index` holds of binding[a]
    kIdb,         // unary slot `index` holds binding[a]
    kBuiltin,     // builtin `index` holds of (binding[a], binding[b][, c])
    kResidual,    // residual atom `index` holds
  };
  struct Op {
    OpKind kind;
    VarId a = -1, b = -1, c = -1;
    int32_t index = -1;
    TreePred rel{};
    bool forward = true;
  };

  /// The test of one variable component of one rule from a fixed anchor
  /// variable: a greedy order that binds every variable — by a functional
  /// tree step when one exists (Prop. 4.1), else by enumerating children or
  /// a before window — with each check placed as soon as its variables are
  /// bound. Intensional literals are tested against the atoms derived so far.
  struct Schedule {
    VarId anchor = -1;
    std::vector<Op> ops;
    std::vector<Atom> residual;  // constant-carrying binary EDB atoms
    std::vector<std::pair<int32_t, VarId>> idb_lits;  // (unary slot, var)
    int32_t cost = 0;  // enumerating steps, weighted; picks sweep anchors
  };

  /// One occurrence of a unary IDB predicate as a body literal of a rule
  /// component — an entry of LTUR's occurrence list, compiled once. When
  /// p(n) is derived, the schedule rooted at the occurrence's variable
  /// builds every instance of the component containing that atom.
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

  // Incremental replay, filled only when streamable: per NodeEvent, the
  // triggers anchored at the node whose event makes one of a rule
  // component's structural EDB atoms final. A creation trigger whose anchor
  // must be the root, or carry a label, runs only for such a node:
  // created_filter (parallel to edb_triggers[kCreated]) holds kAnyNode,
  // kRootOnly or the label predicate. A component that reads a Δ builtin
  // has no EDB triggers: its rule is in end_rules, which the replay holds
  // until the end of input and then sweeps like a rule whose last
  // shared-body atom turned true.
  static constexpr PredId kAnyNode = -1;
  static constexpr PredId kRootOnly = -2;
  bool streamable = false;
  std::array<std::vector<Trigger>, kNumNodeEvents> edb_triggers;
  std::vector<PredId> created_filter;
  std::vector<int32_t> end_rules;
};

GroundPlan::GroundPlan(std::unique_ptr<const Impl> impl)
    : impl_(std::move(impl)) {}
GroundPlan::GroundPlan(GroundPlan&&) noexcept = default;
GroundPlan& GroundPlan::operator=(GroundPlan&&) noexcept = default;
GroundPlan::~GroundPlan() = default;

namespace {

using IdbLit = std::pair<int32_t, VarId>;  // (unary slot, var)
using Op = GroundPlan::Impl::Op;
using OpKind = GroundPlan::Impl::OpKind;

/// Enumerating steps cost 1, a domain enumeration far more: the head sweep
/// anchors where the fewest are needed.
constexpr int32_t kEnumerateCost = 1;
constexpr int32_t kDomainCost = 1000;

/// Compiles the test of one variable component (`atoms`, all of whose
/// `num_vars` variables lie in the component) rooted at `anchor`. `skip` is
/// an IDB literal left out of idb_lits: the one whose derivation runs the
/// schedule.
GroundPlan::Impl::Schedule CompileSchedule(
    const GroundPlan::Impl& plan, const Rule& rule,
    const std::vector<const Atom*>& atoms, int32_t num_vars, VarId anchor,
    IdbLit skip = {-1, -1}) {
  GroundPlan::Impl::Schedule out;
  out.anchor = anchor;

  struct Edge {  // a binary tree atom x → y between two variables
    VarId x, y;
    TreePred rel;
    bool done = false;
  };
  struct Window {  // a before window (x0, x, c)
    VarId x0, x, c;
    int32_t builtin;
    bool done = false;
  };
  std::vector<Edge> edges;
  std::vector<Window> windows;
  std::vector<Op> pending;  // checks waiting for their variables
  std::vector<bool> in_component(rule.num_vars(), false);
  in_component[anchor] = true;
  for (const Atom* a : atoms) {
    for (const Term& t : a->args) {
      if (t.is_var()) in_component[t.value] = true;
    }
    if (plan.intensional[a->pred]) {
      // Monadic + in this component ⇒ one argument, and it is a variable.
      MD_DCHECK(a->args.size() == 1 && a->args[0].is_var());
      const IdbLit lit{plan.unary_index[a->pred], a->args[0].value};
      if (lit != skip && std::find(out.idb_lits.begin(), out.idb_lits.end(),
                                   lit) == out.idb_lits.end()) {
        out.idb_lits.push_back(lit);
        pending.push_back({OpKind::kIdb, lit.second, -1, -1, lit.first});
      }
    } else if (const int32_t bi = plan.builtin_index[a->pred]; bi >= 0) {
      Op op{OpKind::kBuiltin, a->args[0].value, a->args[1].value, -1, bi};
      if (a->args.size() == 3) {
        op.c = a->args[2].value;
        windows.push_back({op.a, op.b, op.c, bi});
      }
      pending.push_back(op);
    } else if (a->args.size() == 1) {
      MD_DCHECK(a->args[0].is_var());
      pending.push_back({OpKind::kUnary, a->args[0].value, -1, -1, a->pred});
    } else if (a->args[0].is_var() && a->args[1].is_var()) {
      edges.push_back(
          {a->args[0].value, a->args[1].value, plan.tree_preds[a->pred]});
    } else {
      const VarId v = a->args[0].is_var() ? a->args[0].value : a->args[1].value;
      pending.push_back({OpKind::kResidual, v, -1, -1,
                         static_cast<int32_t>(out.residual.size())});
      out.residual.push_back(*a);
    }
  }
  // Cheap checks first: tree predicates, then builtins, then IDB lookups.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Op& x, const Op& y) {
                     auto rank = [](OpKind k) {
                       return k == OpKind::kIdb       ? 2
                              : k == OpKind::kBuiltin ? 1
                                                      : 0;
                     };
                     return rank(x.kind) < rank(y.kind);
                   });

  std::vector<bool> assigned(rule.num_vars(), false);
  int32_t num_assigned = 0;
  auto bound = [&](VarId v) { return v < 0 || assigned[v]; };
  // Binds `v`, then emits every check whose variables are now all bound.
  auto bind = [&](VarId v) {
    assigned[v] = true;
    ++num_assigned;
    for (Edge& e : edges) {
      if (e.done || !assigned[e.x] || !assigned[e.y]) continue;
      e.done = true;
      // Check through a functional direction: child only upward.
      if (e.rel.kind == TreePred::Kind::kChild) {
        out.ops.push_back({OpKind::kCheck, e.y, e.x, -1, -1, e.rel, false});
      } else {
        out.ops.push_back({OpKind::kCheck, e.x, e.y, -1, -1, e.rel, true});
      }
    }
    for (size_t i = 0; i < pending.size();) {
      const Op& op = pending[i];
      if (bound(op.a) && bound(op.b) && bound(op.c)) {
        out.ops.push_back(op);
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  };
  // A window used as an enumerator holds by construction: drop its check.
  auto consume_window = [&](Window& w) {
    w.done = true;
    for (size_t i = 0; i < pending.size(); ++i) {
      const Op& op = pending[i];
      if (op.kind == OpKind::kBuiltin && op.index == w.builtin &&
          op.a == w.x0 && op.b == w.x && op.c == w.c) {
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  };
  const TreePred kChildRel{TreePred::Kind::kChild};

  bind(anchor);
  while (num_assigned < num_vars) {
    bool progressed = false;
    // 1. A functional step (Prop. 4.1): any edge but child-downward, or a
    //    window's child c up to its x0.
    for (Edge& e : edges) {
      if (e.done || assigned[e.x] == assigned[e.y]) continue;
      if (assigned[e.x] && e.rel.kind == TreePred::Kind::kChild) continue;
      const bool forward = assigned[e.x];
      const VarId from = forward ? e.x : e.y, to = forward ? e.y : e.x;
      out.ops.push_back({OpKind::kAssign, from, to, -1, -1, e.rel, forward});
      e.done = true;
      bind(to);
      progressed = true;
      break;
    }
    for (Window& w : windows) {
      if (progressed) break;
      if (!assigned[w.c] || assigned[w.x0]) continue;
      out.ops.push_back(
          {OpKind::kAssign, w.c, w.x0, -1, -1, kChildRel, false});
      bind(w.x0);
      progressed = true;
    }
    // 2. A before window, forward (x0, x → c) or backward (x0, c → x, when
    //    x is itself a child of x0).
    for (Window& w : windows) {
      if (progressed) break;
      if (w.done || !assigned[w.x0]) continue;
      if (assigned[w.x] && !assigned[w.c]) {
        out.ops.push_back({OpKind::kWindow, w.x0, w.x, w.c, w.builtin});
        consume_window(w);
        out.cost += kEnumerateCost;
        bind(w.c);
        progressed = true;
      } else if (assigned[w.c] && !assigned[w.x]) {
        for (Edge& e : edges) {
          if (e.done || e.rel.kind != TreePred::Kind::kChild || e.x != w.x0 ||
              e.y != w.x) {
            continue;
          }
          e.done = true;
          out.ops.push_back(
              {OpKind::kWindowBack, w.x0, w.x, w.c, w.builtin});
          consume_window(w);
          out.cost += kEnumerateCost;
          bind(w.x);
          progressed = true;
          break;
        }
      }
    }
    // 3. A child edge downward: enumerate the children.
    for (Edge& e : edges) {
      if (progressed) break;
      if (e.done || e.rel.kind != TreePred::Kind::kChild || !assigned[e.x] ||
          assigned[e.y]) {
        continue;
      }
      out.ops.push_back({OpKind::kChildren, e.x, e.y});
      e.done = true;
      out.cost += kEnumerateCost;
      bind(e.y);
      progressed = true;
    }
    // 4. Nothing reaches the rest from here (a builtin joins it): enumerate
    //    the domain.
    for (VarId v = 0; !progressed && v < rule.num_vars(); ++v) {
      if (!in_component[v] || assigned[v]) continue;
      out.ops.push_back({OpKind::kDomain, v});
      out.cost += kDomainCost;
      bind(v);
      progressed = true;
    }
    MD_DCHECK(progressed);
    if (!progressed) break;
  }
  MD_DCHECK(pending.empty());
  return out;
}

/// Adds the EDB triggers of one rule component (`atoms`, with `num_vars`
/// variables, built by rule `owner`): one schedule per variable and node
/// event that makes one of the component's structural EDB atoms final.
/// Atoms that turn final at the same event share it: the schedule checks
/// them all.
void AddEdbTriggers(GroundPlan::Impl& plan, const Rule& rule,
                    const std::vector<const Atom*>& atoms, int32_t num_vars,
                    int32_t owner) {
  std::vector<std::pair<NodeEvent, VarId>> anchors;
  for (const Atom* a : atoms) {
    if (plan.intensional[a->pred]) continue;
    const VarId v = a->args.back().value;  // a binary fact's child end
    NodeEvent event = kCreated;
    if (a->args.size() == 1) {
      const TreePred::Kind kind = plan.tree_preds[a->pred].kind;
      if (kind == TreePred::Kind::kLeaf) event = kClosed;
      if (kind == TreePred::Kind::kLastSibling) event = kParentClosed;
    }
    if (std::find(anchors.begin(), anchors.end(), std::make_pair(event, v)) ==
        anchors.end()) {
      anchors.emplace_back(event, v);
    }
  }
  for (const auto& [event, v] : anchors) {
    plan.edb_triggers[event].push_back(
        {owner, CompileSchedule(plan, rule, atoms, num_vars, v)});
    if (event != kCreated) continue;
    PredId filter = GroundPlan::Impl::kAnyNode;
    for (const Atom* a : atoms) {
      if (plan.intensional[a->pred] || a->args.size() != 1 ||
          a->args[0].value != v) {
        continue;
      }
      const TreePred::Kind kind = plan.tree_preds[a->pred].kind;
      if (kind == TreePred::Kind::kRoot) filter = GroundPlan::Impl::kRootOnly;
      if (kind == TreePred::Kind::kLabel &&
          filter == GroundPlan::Impl::kAnyNode) {
        filter = a->pred;
      }
    }
    plan.created_filter.push_back(filter);
  }
}

/// Theorem 5.2's first step (Lemma 5.6, as in tmnf/pipeline.cc): every
/// extensional lastchild(x, y) becomes child(x, y) ∧ lastsibling(y). The
/// plan then grounds it with child's upward step, and the incremental replay
/// sees it final at y's parent's close, like lastsibling. nullopt when the
/// program has no such atom.
std::optional<Program> LowerLastChild(const Program& program) {
  const PredId lastchild = program.preds().Find("lastchild");
  if (lastchild < 0 || program.preds().Arity(lastchild) != 2 ||
      program.IntensionalMask()[lastchild]) {
    return std::nullopt;
  }
  Program out = program;
  const PredId child = out.preds().MustIntern("child", 2);
  const PredId lastsibling = out.preds().MustIntern("lastsibling", 1);
  for (Rule& rule : out.mutable_rules()) {
    std::vector<Atom> body;
    body.reserve(rule.body.size());
    for (Atom& a : rule.body) {
      if (a.pred != lastchild) {
        body.push_back(std::move(a));
        continue;
      }
      body.push_back(MakeAtom(child, a.args));
      body.push_back(MakeAtom(lastsibling, {a.args[1]}));
    }
    rule.body = std::move(body);
  }
  return out;
}

}  // namespace

bool GroundPlan::streamable() const { return impl_->streamable; }

util::Result<GroundPlan> GroundPlan::Compile(const Program& source) {
  if (!GroundableOverTree(source)) {
    return util::Status::FailedPrecondition(
        "program not groundable over the tree schema (GroundableOverTree: "
        "monadic, safe, no nextsibling_tc)");
  }
  const std::optional<Program> lowered = LowerLastChild(source);
  const Program& program = lowered.has_value() ? *lowered : source;
  auto impl = std::make_unique<Impl>();
  const PredicateTable& preds = program.preds();
  impl->num_preds = preds.size();
  impl->query_pred = program.query_pred();
  impl->intensional = program.IntensionalMask();
  impl->pred_arity.resize(preds.size());
  impl->tree_preds.resize(preds.size());
  impl->labels.resize(preds.size());
  impl->unary_index.assign(preds.size(), -1);
  impl->nullary_slot.assign(preds.size(), -1);
  impl->builtin_index.assign(preds.size(), -1);

  // The per-tree table a builtin reads, shared between equal (kind, path).
  auto table_of = [&impl](Impl::TableKind kind,
                          std::vector<std::string> path) -> int32_t {
    for (size_t i = 0; i < impl->path_tables.size(); ++i) {
      const Impl::PathTable& t = impl->path_tables[i];
      if (t.kind == kind && t.path == path) return static_cast<int32_t>(i);
    }
    impl->path_tables.push_back({kind, std::move(path)});
    return static_cast<int32_t>(impl->path_tables.size()) - 1;
  };

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
    BuiltinName builtin;
    if (ClassifyBuiltin(name, preds.Arity(p), &builtin)) {
      Impl::Builtin b{builtin.kind, builtin.alpha, builtin.beta};
      switch (builtin.kind) {
        case DeltaBuiltin::kNotAfter:
          b.table = table_of(Impl::TableKind::kMinRank, builtin.path);
          break;
        case DeltaBuiltin::kNotBefore:
          b.table = table_of(Impl::TableKind::kMaxRank, builtin.path);
          break;
        case DeltaBuiltin::kBeforeAny:
          b.table = table_of(Impl::TableKind::kSiblingHits, builtin.path);
          break;
        case DeltaBuiltin::kBeforeWindow:
          break;
      }
      impl->needs_child_index |= builtin.kind == DeltaBuiltin::kBeforeWindow ||
                                 builtin.kind == DeltaBuiltin::kBeforeAny;
      impl->builtin_index[p] = static_cast<int32_t>(impl->builtins.size());
      impl->builtins.push_back(b);
    } else if (const std::optional<TreePred> tp =
                   ClassifyTreePredicate(name, preds.Arity(p))) {
      impl->tree_preds[p] = *tp;
      if (tp->kind == TreePred::Kind::kLabel) {
        impl->labels[p] = LabelFromPredName(name);
      }
    }
  }
  impl->triggers.resize(impl->num_unary);
  impl->ground_uses.resize(impl->num_unary);
  impl->shared_uses.resize(impl->num_nullary);
  auto has_const = [](const Atom& a) {
    return std::any_of(a.args.begin(), a.args.end(),
                       [](const Term& t) { return !t.is_var(); });
  };
  impl->streamable = std::none_of(
      program.rules().begin(), program.rules().end(), [&](const Rule& rule) {
        return has_const(rule.head) ||
               std::any_of(rule.body.begin(), rule.body.end(), has_const);
      });

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
    std::vector<int32_t> comp_size(num_comps, 0);
    for (VarId v = 0; v < rule.num_vars(); ++v) ++comp_size[comp[v]];
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
      // The sweep anchors where the fewest enumerations are needed (first
      // variable on ties).
      for (VarId v = 0; v < rule.num_vars(); ++v) {
        if (comp[v] != c) continue;
        if (owner.head_sweep.has_value() && owner.head_sweep->cost == 0) break;
        Impl::Schedule sc =
            CompileSchedule(*impl, rule, comp_atoms[c], comp_size[c], v);
        if (!owner.head_sweep.has_value() || sc.cost < owner.head_sweep->cost) {
          owner.head_sweep = std::move(sc);
        }
      }
      for (const IdbLit& lit : owner.head_sweep->idb_lits) {
        impl->triggers[lit.first].push_back(
            {owner_index, CompileSchedule(*impl, rule, comp_atoms[c],
                                          comp_size[c], lit.second, lit)});
      }
      if (std::any_of(comp_atoms[c].begin(), comp_atoms[c].end(),
                      [&](const Atom* a) {
                        return impl->builtin_index[a->pred] >= 0;
                      })) {
        impl->end_rules.push_back(owner_index);
      } else if (impl->streamable) {
        AddEdbTriggers(*impl, rule, comp_atoms[c], comp_size[c], owner_index);
      }
      if (c != head_comp) impl->rules.push_back(std::move(bridge));
    }
    impl->rules[r] = std::move(rp);
  }
  for (auto& uses : impl->ground_uses) std::sort(uses.begin(), uses.end());
  return GroundPlan(std::move(impl));
}

namespace {

/// The label a hidden node reports: neither a label id nor kInvalidSymbol
/// (an unresolved label predicate) nor kAnyLabel.
constexpr tree::LabelId kHiddenLabel = -3;

/// A tree under construction as an incremental replay reads it: the tree as
/// of the node events the replay has processed. A node is visible once its
/// creation was processed (nodes arrive in id order, so that is a prefix of
/// the ids), leaf(n) holds once n's close was, lastsibling(n) once its
/// parent's was; before that the answer is kNoNode or false. Every answer is
/// final — it holds of the finished tree — and the view only grows. With a
/// hidden root (the stripped world), node 0 is invisible — no label, no
/// links — and node 1, its only child, is the root.
class GrowingTreeView {
 public:
  GrowingTreeView(const tree::TreeBuilder& b, bool hide_root)
      : b_(b), hidden_(hide_root ? 0 : tree::kNoNode),
        root_(hide_root ? 1 : 0) {}

  /// Node n, the next in id order, was created: it and its links are final.
  void Reveal(tree::NodeId n) {
    frontier_ = n + 1;
    closed_.resize(frontier_, 0);
  }
  /// Node n (visible) closed: its children are all visible and final.
  void Close(tree::NodeId n) { closed_[n] = 1; }
  /// The input ended: every node is closed (a plan that reads neither leaf
  /// nor lastsibling in a streaming rule skips the close events).
  void CloseAll() { closed_.assign(frontier_, 1); }

  /// The visible nodes are [0, size()); the events queued so far name nodes
  /// in [0, num_created()).
  int32_t size() const { return frontier_; }
  int32_t num_created() const { return b_.size(); }
  int32_t num_labels() const { return b_.labels().size(); }
  tree::LabelId FindLabel(std::string_view name) const {
    return b_.labels().Find(name);
  }

  tree::NodeId root() const { return root_; }
  bool IsRoot(tree::NodeId n) const { return n == root_; }
  bool IsLeaf(tree::NodeId n) const {
    return n != hidden_ && closed_[n] != 0 &&
           b_.first_child(n) == tree::kNoNode;
  }
  bool IsLastSibling(tree::NodeId n) const {
    const tree::NodeId p = parent(n);
    return p != tree::kNoNode && closed_[p] != 0 &&
           b_.next_sibling(n) == tree::kNoNode;
  }
  bool IsFirstSibling(tree::NodeId n) const {
    return parent(n) != tree::kNoNode && b_.prev_sibling(n) == tree::kNoNode;
  }
  tree::LabelId label(tree::NodeId n) const {
    return n == hidden_ ? kHiddenLabel : b_.label(n);
  }

  tree::NodeId parent(tree::NodeId n) const {
    const tree::NodeId p = b_.parent(n);
    return p == hidden_ ? tree::kNoNode : p;
  }
  tree::NodeId first_child(tree::NodeId n) const {
    return n == hidden_ ? tree::kNoNode : Visible(b_.first_child(n));
  }
  tree::NodeId last_child(tree::NodeId n) const {
    return n == hidden_ ? tree::kNoNode : b_.last_child(n);
  }
  tree::NodeId next_sibling(tree::NodeId n) const {
    return Visible(b_.next_sibling(n));
  }
  tree::NodeId prev_sibling(tree::NodeId n) const {
    return b_.prev_sibling(n);
  }
  tree::NodeId ChildK(tree::NodeId n, int32_t k) const {
    tree::NodeId c = first_child(n);
    for (int32_t i = 1; i < k && c != tree::kNoNode; ++i) c = next_sibling(c);
    return c;
  }

 private:
  /// `n` if it is visible, else kNoNode (a later node, or none).
  tree::NodeId Visible(tree::NodeId n) const {
    return n < frontier_ ? n : tree::kNoNode;
  }

  const tree::TreeBuilder& b_;
  const tree::NodeId hidden_;  // 0 in the stripped world, else kNoNode
  const tree::NodeId root_;
  tree::NodeId frontier_ = 0;     // one past the last visible node
  std::vector<uint8_t> closed_;  // per visible node: its close processed
};

}  // namespace

/// Replay of a GroundPlan: LTUR over the implicit ground program. Atoms are
/// marked true when popped; a rule instance is built only when one of its
/// body atoms pops and fires iff its whole body is then true, so it fires
/// exactly once, at the pop of its last body atom. TreeT is the tree the
/// schedules read: a finished `const tree::Tree` (EvaluateGrounded, which
/// seeds by sweeping it) or a GrowingTreeView (IncrementalReplay, whose node
/// events run the plan's EDB triggers instead, and advance the view).
/// (Named GroundedEvaluator to keep the EvalResult friendship.)
template <typename TreeT>
class GroundedEvaluator {
 public:
  using Impl = GroundPlan::Impl;
  /// A batch replay also polls inside enumerations and sweeps, and abandons
  /// the page on expiry. An incremental one polls only between pops, so an
  /// aborted Propagate leaves every popped atom and event fully processed.
  static constexpr bool kBatch = std::is_same_v<TreeT, const tree::Tree>;

  GroundedEvaluator(const Impl& plan, TreeT& t, GroundArena& arena,
                    const util::EvalControl* control)
      : plan_(plan), tree_(t), arena_(arena), control_(control),
        ticker_(control), n_(t.size()) {}

  util::Result<EvalResult> Run(GroundStats* stats) {
    // Fast-fail: a request already past its bounds (queue delay, slow parse)
    // must not ground anything. Also makes expiry deterministic for trees
    // smaller than the ticker stride.
    if (control_ != nullptr) MD_RETURN_NOT_OK(control_->Check());

    // Per-tree label resolution: the only tree-dependent compile work.
    arena_.unary_labels.assign(plan_.num_preds, util::kInvalidSymbol);
    ResolveLabels();
    if (!plan_.builtins.empty() && !FillBuiltinTables()) return abort_status_;
    arena_.queue.clear();
    arena_.binding.assign(plan_.max_vars, tree::kNoNode);
    binding_ = arena_.binding.data();
    sets_.reserve(plan_.num_unary);
    for (int32_t s = 0; s < plan_.num_unary; ++s) {
      sets_.emplace_back(std::max(n_, 1));
    }
    flags_.assign(plan_.num_nullary + plan_.num_bridges, 0);
    InitPending();

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

    // Propagation: one poll per popped atom. (PopAtom's body, spelled out:
    // as a call, it costs the batch loop ~8% on copy-chain programs.)
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
    if (stats != nullptr) stats->num_clauses = fired_;
    return result;
  }

  // --- incremental replay (TreeT = GrowingTreeView) ------------------------

  /// Readies an empty replay. Only single-instance rules are seeded: the
  /// instances of a swept component are built by its EDB triggers as the
  /// nodes they need arrive. A rule that reads a Δ builtin also waits for
  /// the end of input, as for one more shared-body atom.
  void Start() {
    arena_.queue.clear();
    arena_.events.clear();
    arena_.binding.assign(plan_.max_vars, tree::kNoNode);
    binding_ = arena_.binding.data();
    arena_.unary_labels.assign(plan_.num_preds, util::kInvalidSymbol);
    sets_.resize(plan_.num_unary);
    flags_.assign(plan_.num_nullary + plan_.num_bridges, 0);
    n_ = 0;
    InitPending();
    for (const int32_t r : plan_.end_rules) ++pending_[r];
    for (size_t r = 0; r < plan_.rules.size(); ++r) {
      if (pending_[r] == 0 && !plan_.rules[r].head_sweep.has_value()) {
        Activate(plan_.rules[r]);
      }
    }
  }

  /// Queues an event (node n's, or the end of input with n = kNoNode). A
  /// close only makes leaf and lastsibling facts final, so a plan that reads
  /// neither skips it.
  void QueueEvent(NodeEvent event, tree::NodeId n) {
    if (event == kClosed && plan_.edb_triggers[kClosed].empty() &&
        plan_.edb_triggers[kParentClosed].empty()) {
      return;
    }
    arena_.events.emplace_back(event, n);
  }

  /// Runs to fixpoint: the derived atoms LIFO, and between them the queued
  /// node events in order, each one advancing the view. So an instance is
  /// built when the last of its body atoms turns true, derived or final,
  /// like in batch. Records every new atom of a slot with watched[slot] >= 0
  /// as (watched[slot], node) in `log`.
  util::Status Propagate(const util::EvalControl* control,
                         const std::vector<PredId>& watched,
                         std::vector<std::pair<PredId, tree::NodeId>>* log) {
    ticker_ = util::EvalTicker(control);
    aborted_ = false;
    for (NodeSet& set : sets_) set.Grow(tree_.num_created());
    if (tree_.num_labels() != labels_seen_) {
      labels_seen_ = tree_.num_labels();
      ResolveLabels();
    }
    std::vector<std::pair<int32_t, tree::NodeId>>& queue = arena_.queue;
    std::vector<std::pair<int32_t, tree::NodeId>>& events = arena_.events;
    for (;;) {
      if (!Poll()) return abort_status_;
      if (!queue.empty()) {
        const auto [slot, node] = queue.back();
        queue.pop_back();
        if (PopAtom(slot, node) && slot < plan_.num_unary &&
            watched[slot] >= 0) {
          log->emplace_back(watched[slot], node);
        }
        continue;
      }
      if (next_event_ == events.size()) break;
      const auto [event, node] = events[next_event_++];
      OnNodeEvent(static_cast<NodeEvent>(event), node);
    }
    events.clear();
    next_event_ = 0;
    return util::Status::OK();
  }

  /// The unary slot of `pred`, or -1 if it is not a unary IDB predicate.
  int32_t SlotOf(PredId pred) const {
    return pred >= 0 && pred < plan_.num_preds ? plan_.unary_index[pred] : -1;
  }
  const NodeSet* Members(PredId pred) const {
    const int32_t slot = SlotOf(pred);
    return slot >= 0 ? &sets_[slot] : nullptr;
  }
  bool NullaryTrue(PredId pred) const {
    return pred >= 0 && pred < plan_.num_preds &&
           plan_.nullary_slot[pred] >= 0 &&
           flags_[plan_.nullary_slot[pred]] != 0;
  }
  int64_t NumDerived() const {
    int64_t n = 0;
    for (const NodeSet& set : sets_) n += set.count();
    for (const uint8_t flag : flags_) n += flag;
    return n;
  }
  int64_t ApproxBytes() const {
    int64_t bytes = 0;
    for (const NodeSet& set : sets_) {
      bytes += static_cast<int64_t>(set.num_words() * sizeof(uint64_t));
    }
    bytes += static_cast<int64_t>(
        (arena_.queue.capacity() + arena_.events.capacity()) *
            sizeof(arena_.queue[0]) +
        arena_.cursors.capacity() * sizeof(GroundArena::Cursor) +
        pending_.capacity() * sizeof(int32_t) + flags_.capacity());
    // The Δ builtin tables, filled at the end of input.
    for (const std::vector<int32_t>& table : arena_.path_tables) {
      bytes += static_cast<int64_t>(table.capacity() * sizeof(int32_t));
    }
    bytes += static_cast<int64_t>(
        (arena_.rank.capacity() + arena_.child_pos.capacity() +
         arena_.kid_start.capacity() + arena_.kids.capacity()) *
        sizeof(int32_t));
    return bytes;
  }

 private:
  bool InDomain(int32_t v) const { return v >= 0 && v < n_; }

  /// Resolves every label predicate still unresolved against the tree's
  /// alphabet. A label absent from it stays kInvalidSymbol, which no node
  /// carries — the empty relation of Remark 2.2 (in a growing tree, until a
  /// node with that label arrives).
  void ResolveLabels() {
    for (PredId p = 0; p < plan_.num_preds; ++p) {
      if (!plan_.intensional[p] && plan_.pred_arity[p] == 1 &&
          plan_.builtin_index[p] < 0 &&
          plan_.tree_preds[p].kind == TreePred::Kind::kLabel &&
          arena_.unary_labels[p] == util::kInvalidSymbol) {
        arena_.unary_labels[p] = tree_.FindLabel(plan_.labels[p]);
      }
    }
  }

  /// A rule is pending while some shared-body IDB atom is not yet true; a
  /// failed ground EDB atom or an out-of-domain constant head keeps it
  /// pending for good.
  void InitPending() {
    pending_.resize(plan_.rules.size());
    for (size_t r = 0; r < plan_.rules.size(); ++r) {
      const Impl::RulePlan& rp = plan_.rules[r];
      bool live =
          !rp.head_has_arg || rp.head_var >= 0 || InDomain(rp.head_const);
      for (const Atom& a : rp.ground_edb) live = live && EdbAtomHolds(a);
      pending_[r] = rp.num_shared + (live ? 0 : 1);
    }
  }

  /// Marks a popped atom true and runs what it completes: its triggers, and
  /// the rules whose shared body holds it. False if it was true already.
  bool PopAtom(int32_t slot, tree::NodeId node) {
    if (slot < plan_.num_unary) {
      if (!sets_[slot].Insert(node)) return false;
      for (const Impl::Trigger& tr : plan_.triggers[slot]) Fire(tr, node);
      const auto& uses = plan_.ground_uses[slot];
      for (auto it = std::lower_bound(uses.begin(), uses.end(),
                                      std::make_pair(node, int32_t{0}));
           it != uses.end() && it->first == node; ++it) {
        Release(it->second);
      }
      return true;
    }
    uint8_t& flag = flags_[slot - plan_.num_unary];
    if (flag != 0) return false;
    flag = 1;
    for (int32_t r : plan_.shared_uses[slot - plan_.num_unary]) Release(r);
    return true;
  }

  /// A node event makes EDB facts final: reveal them, then run the
  /// triggers anchored there. The end of input makes the Δ builtin facts
  /// final: it fills their tables over the finished tree and releases the
  /// rules that read them.
  void OnNodeEvent(NodeEvent event, tree::NodeId n) {
    if (event == kEndOfInput) {
      tree_.CloseAll();
      if (!plan_.builtins.empty()) FillBuiltinTables();
      for (const int32_t r : plan_.end_rules) Release(r);
      return;
    }
    if (event == kCreated) {
      tree_.Reveal(n);
      n_ = tree_.size();
      const std::vector<Impl::Trigger>& created = plan_.edb_triggers[kCreated];
      for (size_t i = 0; i < created.size(); ++i) {
        const PredId filter = plan_.created_filter[i];
        if (filter == Impl::kRootOnly && !tree_.IsRoot(n)) continue;
        if (filter >= 0 && arena_.unary_labels[filter] != tree_.label(n)) {
          continue;
        }
        Fire(created[i], n);
      }
      return;
    }
    tree_.Close(n);
    if (tree_.IsLeaf(n)) {
      for (const Impl::Trigger& tr : plan_.edb_triggers[kClosed]) Fire(tr, n);
    }
    const tree::NodeId last = tree_.last_child(n);
    if (last != tree::kNoNode && tree_.IsLastSibling(last)) {
      for (const Impl::Trigger& tr : plan_.edb_triggers[kParentClosed]) {
        Fire(tr, last);
      }
    }
  }

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
  /// Poll() inside one pop's work: only a batch replay abandons it midway.
  bool PollInBatch() {
    if constexpr (kBatch) return Poll();
    return true;
  }

  bool LabelMatches(tree::LabelId step, tree::NodeId n) const {
    return step == kAnyLabel || tree_.label(n) == step;
  }

  /// The per-tree integers the Δ builtins read: preorder ranks, one table
  /// per distinct (kind, path) of the plan, and — for before — child
  /// positions and the children of every node in one array. Iterative, O(n)
  /// per pass and per path step; false once a batch deadline poll fires.
  bool FillBuiltinTables() {
    const int32_t n = n_;
    std::vector<int32_t>& rank = arena_.rank;
    std::vector<int32_t>& start = arena_.kid_start;
    std::vector<tree::NodeId>& kids = arena_.kids;
    if (plan_.needs_child_index) {
      std::vector<int32_t>& pos = arena_.child_pos;
      start.assign(n + 1, 0);
      for (tree::NodeId c = 0; c < n; ++c) {
        if (!PollInBatch()) return false;
        const tree::NodeId p = tree_.parent(c);
        if (p != tree::kNoNode) ++start[p + 1];
      }
      for (tree::NodeId p = 0; p < n; ++p) start[p + 1] += start[p];
      pos.assign(n, 0);
      kids.resize(start[n]);
      for (tree::NodeId p = 0; p < n; ++p) {
        if (!PollInBatch()) return false;
        int32_t j = 0;
        for (tree::NodeId c = tree_.first_child(p); c != tree::kNoNode;
             c = tree_.next_sibling(c)) {
          kids[start[p] + j] = c;
          pos[c] = ++j;
        }
      }
    }
    rank.resize(n);
    int32_t next_rank = 0;
    for (tree::NodeId v = tree_.root();;) {
      if (!PollInBatch()) return false;
      rank[v] = next_rank++;
      if (tree_.first_child(v) != tree::kNoNode) {
        v = tree_.first_child(v);
        continue;
      }
      while (v != tree::kNoNode && tree_.next_sibling(v) == tree::kNoNode) {
        v = tree_.parent(v);
      }
      if (v == tree::kNoNode) break;
      v = tree_.next_sibling(v);
    }

    arena_.path_tables.resize(plan_.path_tables.size());
    for (size_t ti = 0; ti < plan_.path_tables.size(); ++ti) {
      const Impl::PathTable& pt = plan_.path_tables[ti];
      std::vector<tree::LabelId>& labels = arena_.step_labels;
      labels.clear();
      for (const std::string& step : pt.path) {
        labels.push_back(step == "_" ? kAnyLabel : tree_.FindLabel(step));
      }
      const bool take_max = pt.kind == Impl::TableKind::kMaxRank;
      const int32_t none = take_max ? -1 : INT32_MAX;
      // Bottom-up over the path's steps: out[n] aggregates pre(π_s(n)) for
      // the suffix π_s; the ε suffix is n itself.
      std::vector<int32_t>& out = arena_.path_tables[ti];
      std::vector<int32_t>& next = arena_.scratch;
      out.assign(rank.begin(), rank.end());
      const size_t first = pt.kind == Impl::TableKind::kSiblingHits ? 1 : 0;
      for (size_t s = labels.size(); s-- > first;) {
        next.assign(n, none);
        for (tree::NodeId c = 0; c < n; ++c) {
          if (!PollInBatch()) return false;
          const tree::NodeId p = tree_.parent(c);
          if (p == tree::kNoNode || out[c] == none ||
              !LabelMatches(labels[s], c)) {
            continue;
          }
          next[p] = take_max ? std::max(next[p], out[c])
                             : std::min(next[p], out[c]);
        }
        out.swap(next);
      }
      if (pt.kind == Impl::TableKind::kSiblingHits) {
        // out[c] ≠ none ⇔ the rest of π reaches below c. Turn it into the
        // running count of such children matching π's first step.
        for (tree::NodeId p = 0; p < n; ++p) {
          if (!PollInBatch()) return false;
          int32_t hits = 0;
          for (int32_t j = start[p]; j < start[p + 1]; ++j) {
            const tree::NodeId c = kids[j];
            if (out[c] != none && LabelMatches(labels[0], c)) ++hits;
            out[c] = hits;
          }
        }
      }
    }
    return true;
  }

  /// The 1-based positions [*lo, *hi] of x0's children that lie in the
  /// before window after x; false if empty or x is not below x0.
  bool Window(const Impl::Builtin& b, tree::NodeId x0, tree::NodeId x,
              int32_t* lo, int32_t* hi) const {
    tree::NodeId top = x;
    while (top != tree::kNoNode && tree_.parent(top) != x0) {
      top = tree_.parent(top);
    }
    if (top == tree::kNoNode) return false;
    const int64_t k = arena_.kid_start[x0 + 1] - arena_.kid_start[x0];
    const int64_t at = arena_.child_pos[top];
    *lo = static_cast<int32_t>(
        std::max<int64_t>(1, at + CeilDiv100(k * b.alpha)));
    *hi = static_cast<int32_t>(
        std::min<int64_t>(k, at + FloorDiv100(k * b.beta)));
    return *lo <= *hi;
  }

  bool BuiltinHolds(const Impl::Builtin& b, tree::NodeId x0, tree::NodeId x,
                    tree::NodeId c) const {
    switch (b.kind) {
      case DeltaBuiltin::kNotAfter:
        return arena_.rank[x] <= arena_.path_tables[b.table][x0];
      case DeltaBuiltin::kNotBefore:
        return arena_.rank[x] >= arena_.path_tables[b.table][x0];
      case DeltaBuiltin::kBeforeWindow: {
        int32_t lo, hi;
        return tree_.parent(c) == x0 && Window(b, x0, x, &lo, &hi) &&
               arena_.child_pos[c] >= lo && arena_.child_pos[c] <= hi;
      }
      case DeltaBuiltin::kBeforeAny: {
        int32_t lo, hi;
        if (!Window(b, x0, x, &lo, &hi)) return false;
        const std::vector<int32_t>& hits = arena_.path_tables[b.table];
        const int32_t base = arena_.kid_start[x0] - 1;
        return hits[arena_.kids[base + hi]] >
               (lo > 1 ? hits[arena_.kids[base + lo - 1]] : 0);
      }
    }
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

  /// Runs step `i` of `sc` under the current binding: false if the instance
  /// fails there. An enumerating step binds its first candidate and pushes a
  /// cursor for the rest. The steps every schedule uses are inlined into
  /// the replay loops; the rest run out of line.
  bool Step(const Impl::Schedule& sc, int32_t i) {
    const Impl::Op& op = sc.ops[i];
    tree::NodeId* const b = binding_;
    if (op.kind == OpKind::kAssign) {
      const tree::NodeId t = op.forward
                                 ? StepForward(tree_, op.rel, b[op.a])
                                 : StepBackward(tree_, op.rel, b[op.a]);
      b[op.b] = t;
      return t != tree::kNoNode;
    }
    if (op.kind == OpKind::kUnary) {
      return HoldsUnary(tree_, plan_.tree_preds[op.index].kind,
                        arena_.unary_labels[op.index], b[op.a]);
    }
    if (op.kind == OpKind::kIdb) return sets_[op.index].Contains(b[op.a]);
    if (op.kind == OpKind::kCheck) {
      return (op.forward ? StepForward(tree_, op.rel, b[op.a])
                         : StepBackward(tree_, op.rel, b[op.a])) == b[op.b];
    }
    return RareStep(sc, i);
  }

  [[gnu::noinline]] bool RareStep(const Impl::Schedule& sc, int32_t i) {
    const Impl::Op& op = sc.ops[i];
    tree::NodeId* b = arena_.binding.data();
    switch (op.kind) {
      case OpKind::kChildren: {
        const tree::NodeId c = tree_.first_child(b[op.a]);
        if (c == tree::kNoNode) return false;
        b[op.b] = c;
        arena_.cursors.push_back({i, c, 0});
        return true;
      }
      case OpKind::kWindow: {
        int32_t lo, hi;
        if (!Window(plan_.builtins[op.index], b[op.a], b[op.b], &lo, &hi)) {
          return false;
        }
        const int32_t base = arena_.kid_start[b[op.a]] - 1;
        b[op.c] = arena_.kids[base + lo];
        arena_.cursors.push_back({i, base + lo, base + hi});
        return true;
      }
      case OpKind::kWindowBack: {
        // x ranges over the children of x0 whose window holds c:
        // pos(c) − pos(x) ∈ [⌈kα/100⌉, ⌊kβ/100⌋].
        const tree::NodeId x0 = b[op.a], c = b[op.c];
        if (tree_.parent(c) != x0) return false;
        const Impl::Builtin& bi = plan_.builtins[op.index];
        const int64_t k = arena_.kid_start[x0 + 1] - arena_.kid_start[x0];
        const int64_t at = arena_.child_pos[c];
        const int64_t lo = std::max<int64_t>(1, at - FloorDiv100(k * bi.beta));
        const int64_t hi = std::min<int64_t>(k, at - CeilDiv100(k * bi.alpha));
        if (lo > hi) return false;
        const int32_t base = arena_.kid_start[x0] - 1;
        b[op.b] = arena_.kids[base + lo];
        arena_.cursors.push_back({i, static_cast<int32_t>(base + lo),
                                  static_cast<int32_t>(base + hi)});
        return true;
      }
      case OpKind::kDomain:  // [root, n): excludes a hidden node 0
        b[op.a] = tree_.root();
        arena_.cursors.push_back({i, b[op.a], n_ - 1});
        return true;
      case OpKind::kBuiltin:
        return BuiltinHolds(plan_.builtins[op.index], b[op.a], b[op.b],
                            op.c >= 0 ? b[op.c] : tree::kNoNode);
      case OpKind::kResidual:
        return EdbAtomHolds(sc.residual[op.index]);
      default:
        return false;  // handled by Step
    }
  }

  /// Moves `cursor` to its enumeration's next candidate; false when done.
  bool Advance(const Impl::Schedule& sc, GroundArena::Cursor& cursor) {
    const Impl::Op& op = sc.ops[cursor.op];
    tree::NodeId* b = arena_.binding.data();
    switch (op.kind) {
      case OpKind::kChildren:
        cursor.cur = tree_.next_sibling(cursor.cur);
        b[op.b] = cursor.cur;
        return cursor.cur != tree::kNoNode;
      case OpKind::kWindow:
      case OpKind::kWindowBack:
        if (cursor.cur == cursor.last) return false;
        b[op.kind == OpKind::kWindow ? op.c : op.b] =
            arena_.kids[++cursor.cur];
        return true;
      case OpKind::kDomain:
        if (cursor.cur == cursor.last) return false;
        b[op.a] = ++cursor.cur;
        return true;
      default:
        return false;
    }
  }

  /// Binds the schedule's anchor to `node` and calls `on_match` for every
  /// instance of the component this determines, until it returns false.
  /// Backtracks over the enumerating steps, one poll per candidate.
  template <typename OnMatch>
  void ForEachMatch(const Impl::Schedule& sc, tree::NodeId node,
                    OnMatch&& on_match) {
    arena_.binding[sc.anchor] = node;
    const int32_t num_ops = static_cast<int32_t>(sc.ops.size());
    if (sc.cost == 0) {  // no enumerating step: at most one instance
      for (int32_t i = 0; i < num_ops; ++i) {
        if (!Step(sc, i)) return;
      }
      on_match();
      return;
    }
    std::vector<GroundArena::Cursor>& cursors = arena_.cursors;
    cursors.clear();
    int32_t i = 0;
    for (;;) {
      while (i < num_ops && Step(sc, i)) ++i;
      if (i == num_ops && !on_match()) return;
      for (;;) {
        if (cursors.empty() || !PollInBatch()) return;
        if (Advance(sc, cursors.back())) {
          i = cursors.back().op + 1;
          break;
        }
        cursors.pop_back();
      }
    }
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
             HoldsUnary(tree_, plan_.tree_preds[a.pred].kind,
                        arena_.unary_labels[a.pred], v);
    }
    MD_CHECK(a.args.size() == 2);
    const int32_t x = value_of(a.args[0]);
    const int32_t y = value_of(a.args[1]);
    return InDomain(x) && InDomain(y) &&
           StepBackward(tree_, plan_.tree_preds[a.pred], y) == x;
  }

  /// The head atom of `rp`'s instance under the current binding.
  tree::NodeId HeadNode(const Impl::RulePlan& rp) const {
    if (rp.head_var >= 0) return arena_.binding[rp.head_var];
    return rp.head_has_arg ? rp.head_const : tree::kNoNode;
  }

  /// The derivation of `node` fires trigger `tr`.
  void Fire(const Impl::Trigger& tr, tree::NodeId node) {
    if (pending_[tr.rule] != 0) return;
    const Impl::RulePlan& rp = plan_.rules[tr.rule];
    ForEachMatch(tr.schedule, node, [&] {
      Derive(rp.head_slot, HeadNode(rp));
      return true;
    });
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
    const bool bridge = rp.head_var < 0;
    bool found = false;
    for (tree::NodeId node = tree_.root(); node < n_ && !found; ++node) {
      if (!PollInBatch()) return;
      ForEachMatch(*rp.head_sweep, node, [&] {
        Derive(rp.head_slot, HeadNode(rp));
        found = bridge;
        return !bridge;
      });
      if (aborted_) return;
    }
  }

  const Impl& plan_;
  TreeT& tree_;
  GroundArena& arena_;
  const util::EvalControl* control_;
  util::EvalTicker ticker_;
  bool aborted_ = false;
  util::Status abort_status_ = util::Status::OK();
  int32_t n_;
  std::vector<NodeSet> sets_;     // per unary slot: atoms popped so far
  std::vector<uint8_t> flags_;    // per nullary/bridge slot: popped
  std::vector<int32_t> pending_;  // per rule: shared-body atoms not yet true
  tree::NodeId* binding_ = nullptr;  // arena_.binding, sized per plan
  int64_t fired_ = 0;
  // Incremental replay only.
  int32_t labels_seen_ = 0;  // the labels resolved against so far
  size_t next_event_ = 0;    // arena_.events[next_event_] is the next to run
};

util::Result<EvalResult> EvaluateGrounded(const GroundPlan& plan,
                                          const tree::Tree& t,
                                          GroundArena* arena,
                                          GroundStats* stats,
                                          const util::EvalControl* control) {
  GroundArena local;
  GroundedEvaluator<const tree::Tree> evaluator(
      *plan.impl_, t, arena != nullptr ? *arena : local, control);
  return evaluator.Run(stats);
}

struct IncrementalReplay::State {
  State(const GroundPlan::Impl& plan, const tree::TreeBuilder& builder,
        bool hide_root)
      : view(builder, hide_root),
        eval(plan, view, arena, nullptr),
        watched(plan.num_unary, -1) {}

  GrowingTreeView view;
  GroundArena arena;  // the replay's own: it outlives every Propagate
  GroundedEvaluator<GrowingTreeView> eval;
  std::vector<PredId> watched;  // per unary slot: its predicate, if watched
  std::vector<std::pair<PredId, tree::NodeId>> derived;
};

IncrementalReplay::IncrementalReplay(const GroundPlan& plan,
                                     const tree::TreeBuilder& builder,
                                     bool hide_root) {
  MD_CHECK(plan.streamable());
  state_ = std::make_unique<State>(*plan.impl_, builder, hide_root);
  state_->eval.Start();
}

IncrementalReplay::~IncrementalReplay() = default;

void IncrementalReplay::NodeCreated(tree::NodeId n) {
  state_->eval.QueueEvent(kCreated, n);
}

void IncrementalReplay::NodeClosed(tree::NodeId n) {
  state_->eval.QueueEvent(kClosed, n);
}

void IncrementalReplay::EndOfInput() {
  state_->eval.QueueEvent(kEndOfInput, tree::kNoNode);
}

util::Status IncrementalReplay::Propagate(const util::EvalControl* control) {
  return state_->eval.Propagate(control, state_->watched, &state_->derived);
}

const NodeSet* IncrementalReplay::Members(PredId pred) const {
  return state_->eval.Members(pred);
}

bool IncrementalReplay::NullaryTrue(PredId pred) const {
  return state_->eval.NullaryTrue(pred);
}

int64_t IncrementalReplay::num_derived() const {
  return state_->eval.NumDerived();
}

void IncrementalReplay::Watch(PredId pred) {
  const int32_t slot = state_->eval.SlotOf(pred);
  MD_CHECK(slot >= 0);
  state_->watched[slot] = pred;
}

const std::vector<std::pair<PredId, tree::NodeId>>&
IncrementalReplay::derived() const {
  return state_->derived;
}

void IncrementalReplay::ClearDerived() { state_->derived.clear(); }

int64_t IncrementalReplay::ApproxBytes() const {
  return state_->eval.ApproxBytes() +
         static_cast<int64_t>(state_->derived.capacity() *
                              sizeof(state_->derived[0]));
}

util::Result<EvalResult> EvaluateGrounded(const Program& program,
                                          const tree::Tree& t,
                                          GroundStats* stats) {
  MD_ASSIGN_OR_RETURN(GroundPlan plan, GroundPlan::Compile(program));
  return EvaluateGrounded(plan, t, nullptr, stats);
}

util::Result<EvalResult> EvaluateOnTree(const Program& program,
                                        const tree::Tree& t) {
  Program live = program;
  PruneUnderivableRules(&live);
  return EvaluateGrounded(live, t);
}

}  // namespace mdatalog::core
