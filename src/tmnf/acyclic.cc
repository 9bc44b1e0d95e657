#include "src/tmnf/acyclic.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/core/tree_schema.h"
#include "src/util/check.h"

namespace mdatalog::tmnf {

namespace {

using core::Atom;
using core::PredId;
using core::Rule;
using core::Term;
using core::VarId;

class UnionFind {
 public:
  explicit UnionFind(int32_t n) : parent_(n) {
    for (int32_t i = 0; i < n; ++i) parent_[i] = i;
  }
  int32_t Find(int32_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  /// Returns true if a merge actually happened.
  bool Union(int32_t a, int32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[std::max(a, b)] = std::min(a, b);
    return true;
  }

 private:
  std::vector<int32_t> parent_;
};

/// A binary body atom, variables resolved to union-find representatives.
struct BinAtom {
  PredId pred;
  VarId x, y;
  bool operator<(const BinAtom& o) const {
    return std::tie(pred, x, y) < std::tie(o.pred, o.x, o.y);
  }
  bool operator==(const BinAtom& o) const = default;
};

/// Potential-based consistency check: assigns d(v) so that every edge
/// (u, v, w) satisfies d(v) = d(u) + w; returns false on conflict. `out` may
/// be null. This is the depth-index map of Proposition 5.3.
bool AssignPotentials(int32_t num_vars,
                      const std::vector<std::tuple<VarId, VarId, int32_t>>& edges,
                      std::vector<int32_t>* out) {
  std::vector<std::vector<std::pair<int32_t, int32_t>>> adj(num_vars);
  for (const auto& [u, v, w] : edges) {
    adj[u].emplace_back(v, w);
    adj[v].emplace_back(u, -w);
  }
  std::vector<int32_t> d(num_vars, INT32_MIN);
  for (VarId s = 0; s < num_vars; ++s) {
    if (d[s] != INT32_MIN || adj[s].empty()) continue;
    d[s] = 0;
    std::vector<VarId> stack = {s};
    while (!stack.empty()) {
      VarId u = stack.back();
      stack.pop_back();
      for (const auto& [v, w] : adj[u]) {
        if (d[v] == INT32_MIN) {
          d[v] = d[u] + w;
          stack.push_back(v);
        } else if (d[v] != d[u] + w) {
          return false;
        }
      }
    }
  }
  if (out != nullptr) *out = std::move(d);
  return true;
}

/// Rebuilds a Rule from resolved atoms, renumbering variables densely.
Rule RebuildRule(const core::Program& program, const Rule& original,
                 UnionFind* uf, int32_t total_vars,
                 const std::vector<std::pair<PredId, VarId>>& unary_atoms,
                 const std::vector<BinAtom>& binary_atoms) {
  (void)program;
  std::vector<VarId> dense(total_vars, -1);
  std::vector<std::string> names;
  auto var_of = [&](VarId raw) {
    VarId rep = uf->Find(raw);
    if (dense[rep] < 0) {
      dense[rep] = static_cast<VarId>(names.size());
      names.push_back(rep < original.num_vars()
                          ? original.var_names[rep]
                          : std::string("w").append(std::to_string(rep)));
    }
    return dense[rep];
  };

  Rule out;
  out.head.pred = original.head.pred;
  MD_CHECK(original.head.args.size() == 1 && original.head.args[0].is_var());
  // Resolve the head first so its variable keeps a low index.
  out.head.args = {Term::Var(var_of(original.head.args[0].value))};

  std::set<std::pair<PredId, VarId>> seen_unary;
  for (const auto& [pred, v] : unary_atoms) {
    VarId dv = var_of(v);
    if (seen_unary.emplace(pred, dv).second) {
      out.body.push_back(core::MakeAtom(pred, {Term::Var(dv)}));
    }
  }
  std::set<std::tuple<PredId, VarId, VarId>> seen_binary;
  for (const BinAtom& a : binary_atoms) {
    VarId dx = var_of(a.x), dy = var_of(a.y);
    if (seen_binary.emplace(a.pred, dx, dy).second) {
      out.body.push_back(
          core::MakeAtom(a.pred, {Term::Var(dx), Term::Var(dy)}));
    }
  }
  out.var_names = std::move(names);
  return out;
}

util::Status CheckChaseInput(const core::Program& program, const Rule& rule) {
  if (rule.head.args.size() != 1 || !rule.head.args[0].is_var()) {
    return util::Status::Unimplemented(
        "TMNF chase requires unary heads over a variable: " +
        core::ToString(program, rule));
  }
  for (const Atom& a : rule.body) {
    for (const Term& t : a.args) {
      if (!t.is_var()) {
        return util::Status::Unimplemented(
            "TMNF chase does not support constants: " +
            core::ToString(program, rule));
      }
    }
  }
  return util::Status::OK();
}

}  // namespace

bool IsAcyclicRule(const core::Rule& rule) {
  UnionFind uf(std::max(rule.num_vars(), 1));
  for (const Atom& a : rule.body) {
    if (a.args.size() != 2) continue;
    if (!a.args[0].is_var() || !a.args[1].is_var()) continue;
    VarId x = a.args[0].value, y = a.args[1].value;
    if (x == y) return false;          // self-loop
    if (!uf.Union(x, y)) return false;  // closes a cycle (incl. parallel edge)
  }
  return true;
}

util::Result<ChaseResult> MakeRuleAcyclicUnranked(core::Program* program,
                                                  const core::Rule& rule) {
  MD_RETURN_NOT_OK(CheckChaseInput(*program, rule));

  PredId fc = -1, ns = -1, ch = -1;
  {
    MD_ASSIGN_OR_RETURN(fc, program->preds().Intern("firstchild", 2));
    MD_ASSIGN_OR_RETURN(ns, program->preds().Intern("nextsibling", 2));
    MD_ASSIGN_OR_RETURN(ch, program->preds().Intern("child", 2));
  }

  // Partition atoms.
  std::vector<std::pair<PredId, VarId>> unary;
  std::vector<BinAtom> f_atoms, n_atoms, c_atoms, other_bin;
  for (const Atom& a : rule.body) {
    if (a.args.size() == 1) {
      unary.emplace_back(a.pred, a.args[0].value);
    } else if (a.args.size() == 2) {
      BinAtom b{a.pred, a.args[0].value, a.args[1].value};
      if (a.pred == fc) {
        f_atoms.push_back(b);
      } else if (a.pred == ns) {
        n_atoms.push_back(b);
      } else if (a.pred == ch) {
        c_atoms.push_back(b);
      } else {
        return util::Status::InvalidArgument(
            "unranked chase admits firstchild/nextsibling/child only; got "
            "'" + program->preds().Name(a.pred) + "'");
      }
    } else if (!a.args.empty()) {
      return util::Status::Unimplemented("atoms of arity > 2 unsupported");
    } else {
      return util::Status::Unimplemented(
          "propositional atoms unsupported in the TMNF chase");
    }
  }

  int32_t nv = rule.num_vars();
  UnionFind uf(std::max(nv, 1));
  int32_t merged = 0;
  ChaseResult unsat;
  unsat.satisfiable = false;

  // --- chase to fixpoint (steps 1–4 of the Lemma 5.5 procedure) -----------
  bool changed = true;
  while (changed) {
    changed = false;
    auto rep = [&](const BinAtom& a) {
      return BinAtom{a.pred, uf.Find(a.x), uf.Find(a.y)};
    };
    // Self-loops are unsatisfiable for all three relations.
    for (const auto* group : {&f_atoms, &n_atoms, &c_atoms}) {
      for (const BinAtom& a : *group) {
        BinAtom r = rep(a);
        if (r.x == r.y) return unsat;
      }
    }
    // A first child has no previous sibling.
    for (const BinAtom& f : f_atoms) {
      for (const BinAtom& n : n_atoms) {
        if (uf.Find(f.y) == uf.Find(n.y)) return unsat;
      }
    }
    // Functional dependencies (Proposition 4.1).
    auto fd_merge = [&](const std::vector<BinAtom>& atoms, bool by_first) {
      std::map<VarId, VarId> seen;
      for (const BinAtom& a : atoms) {
        VarId key = uf.Find(by_first ? a.x : a.y);
        VarId val = uf.Find(by_first ? a.y : a.x);
        auto [it, inserted] = seen.emplace(key, val);
        if (!inserted && it->second != val) {
          if (uf.Union(it->second, val)) {
            ++merged;
            changed = true;
          }
          it->second = uf.Find(val);
        }
      }
    };
    fd_merge(f_atoms, true);   // one first child per node
    fd_merge(f_atoms, false);  // one parent per first child
    fd_merge(n_atoms, true);   // one next sibling
    fd_merge(n_atoms, false);  // one previous sibling
    fd_merge(c_atoms, false);  // one parent per child
    // child/firstchild on the same target share the parent.
    {
      std::map<VarId, VarId> parent_of;
      for (const BinAtom& f : f_atoms) parent_of[uf.Find(f.y)] = uf.Find(f.x);
      for (const BinAtom& c : c_atoms) {
        auto it = parent_of.find(uf.Find(c.y));
        if (it != parent_of.end() && uf.Find(c.x) != it->second) {
          if (uf.Union(c.x, it->second)) {
            ++merged;
            changed = true;
          }
        }
      }
    }
    // Step 2 of Lemma 5.5: all parents of one nextsibling-component merge.
    {
      UnionFind comp(std::max(nv, 1));
      for (const BinAtom& n : n_atoms) comp.Union(uf.Find(n.x), uf.Find(n.y));
      std::map<int32_t, VarId> comp_parent;
      auto merge_parent = [&](VarId child, VarId parent) {
        int32_t c = comp.Find(uf.Find(child));
        VarId p = uf.Find(parent);
        auto [it, inserted] = comp_parent.emplace(c, p);
        if (!inserted && it->second != p) {
          if (uf.Union(it->second, p)) {
            ++merged;
            changed = true;
          }
          it->second = uf.Find(p);
        }
      };
      for (const BinAtom& f : f_atoms) merge_parent(f.y, f.x);
      for (const BinAtom& c : c_atoms) merge_parent(c.y, c.x);
    }
  }

  // --- consistency: depth indexes and sibling positions -------------------
  {
    std::vector<std::tuple<VarId, VarId, int32_t>> depth_edges;
    for (const BinAtom& a : f_atoms) {
      depth_edges.emplace_back(uf.Find(a.x), uf.Find(a.y), 1);
    }
    for (const BinAtom& a : c_atoms) {
      depth_edges.emplace_back(uf.Find(a.x), uf.Find(a.y), 1);
    }
    for (const BinAtom& a : n_atoms) {
      depth_edges.emplace_back(uf.Find(a.x), uf.Find(a.y), 0);
    }
    if (!AssignPotentials(std::max(nv, 1), depth_edges, nullptr)) return unsat;
  }
  {
    std::vector<std::tuple<VarId, VarId, int32_t>> pos_edges;
    for (const BinAtom& a : n_atoms) {
      pos_edges.emplace_back(uf.Find(a.x), uf.Find(a.y), 1);
    }
    std::vector<int32_t> pos;
    if (!AssignPotentials(std::max(nv, 1), pos_edges, &pos)) return unsat;
    // First children sit at sibling position 0: no component member may be
    // at a smaller relative position, and two first children in one
    // component must coincide (they do: FD-merged already, but their
    // positions must agree).
    UnionFind comp(std::max(nv, 1));
    for (const BinAtom& n : n_atoms) comp.Union(uf.Find(n.x), uf.Find(n.y));
    std::map<int32_t, int32_t> anchor_pos;  // component -> position of a
                                            // firstchild target
    for (const BinAtom& f : f_atoms) {
      VarId y = uf.Find(f.y);
      if (pos[y] == INT32_MIN) continue;  // isolated: position trivially 0
      int32_t c = comp.Find(y);
      auto [it, inserted] = anchor_pos.emplace(c, pos[y]);
      if (!inserted && it->second != pos[y]) return unsat;
    }
    for (VarId v = 0; v < nv; ++v) {
      VarId r = uf.Find(v);
      if (r != v || pos[r] == INT32_MIN) continue;
      auto it = anchor_pos.find(comp.Find(r));
      if (it != anchor_pos.end() && pos[r] < it->second) return unsat;
    }
  }

  // --- step 5: replace child atoms by firstchild + nextsibling* anchors ---
  std::vector<BinAtom> out_bin;
  for (const BinAtom& a : f_atoms) {
    out_bin.push_back({fc, uf.Find(a.x), uf.Find(a.y)});
  }
  for (const BinAtom& a : n_atoms) {
    out_bin.push_back({ns, uf.Find(a.x), uf.Find(a.y)});
  }

  int32_t total_vars = nv;
  if (!c_atoms.empty()) {
    MD_ASSIGN_OR_RETURN(PredId nstc,
                        program->preds().Intern("nextsibling_tc", 2));
    UnionFind comp(std::max(nv, 1));
    for (const BinAtom& n : n_atoms) comp.Union(uf.Find(n.x), uf.Find(n.y));

    // Group child atoms by target component; verify the single-parent
    // invariant established by the chase.
    std::map<int32_t, std::vector<BinAtom>> by_comp;
    for (const BinAtom& c : c_atoms) {
      by_comp[comp.Find(uf.Find(c.y))].push_back(
          {ch, uf.Find(c.x), uf.Find(c.y)});
    }
    // firstchild targets, per component, with their parent.
    std::map<int32_t, VarId> f_target_in_comp;  // comp -> y'
    std::multimap<VarId, VarId> f_by_parent;    // parent -> y'
    for (const BinAtom& f : f_atoms) {
      f_target_in_comp.emplace(comp.Find(uf.Find(f.y)), uf.Find(f.y));
      f_by_parent.emplace(uf.Find(f.x), uf.Find(f.y));
    }
    // Fresh variables may be created below; grow the var space lazily.
    std::vector<std::pair<VarId, VarId>> fresh_f;  // extra firstchild atoms
    for (auto& [comp_id, atoms] : by_comp) {
      VarId parent = atoms[0].x;
      for (const BinAtom& a : atoms) MD_CHECK(a.x == parent);
      if (f_target_in_comp.count(comp_id) > 0) {
        continue;  // anchored by a firstchild atom inside the component
      }
      VarId chosen = atoms[0].y;
      auto it = f_by_parent.find(parent);
      VarId anchor;
      if (it != f_by_parent.end()) {
        anchor = it->second;  // firstchild(x, y') with y' outside the comp
      } else {
        anchor = total_vars++;  // fresh y0: firstchild(x, y0)
        fresh_f.emplace_back(parent, anchor);
        f_by_parent.emplace(parent, anchor);
      }
      out_bin.push_back({nstc, anchor, chosen});
    }
    for (const auto& [parent, anchor] : fresh_f) {
      out_bin.push_back({fc, parent, anchor});
    }
  }

  // Fresh variables are above nv; extend the union-find domain implicitly by
  // treating them as their own representatives in RebuildRule.
  UnionFind uf_ext(total_vars);
  for (VarId v = 0; v < nv; ++v) uf_ext.Union(v, uf.Find(v));

  ChaseResult result;
  result.satisfiable = true;
  result.merged_vars = merged;
  result.rule = RebuildRule(*program, rule, &uf_ext, total_vars, unary,
                            out_bin);
  if (!IsAcyclicRule(result.rule)) {
    return util::Status::Internal("chase produced a cyclic rule: " +
                                  core::ToString(*program, result.rule));
  }
  return result;
}

util::Result<ChaseResult> MakeRuleAcyclicRanked(core::Program* program,
                                                const core::Rule& rule) {
  MD_RETURN_NOT_OK(CheckChaseInput(*program, rule));

  std::vector<std::pair<PredId, VarId>> unary;
  std::vector<std::pair<BinAtom, int32_t>> child_atoms;  // atom, k
  for (const Atom& a : rule.body) {
    if (a.args.size() == 1) {
      unary.emplace_back(a.pred, a.args[0].value);
      continue;
    }
    if (a.args.size() != 2) {
      return util::Status::Unimplemented(
          "ranked chase supports unary and binary atoms only");
    }
    int32_t k = core::ChildKIndex(program->preds().Name(a.pred));
    if (k < 1) {
      return util::Status::InvalidArgument(
          "ranked chase admits child<k> relations only; got '" +
          program->preds().Name(a.pred) + "'");
    }
    child_atoms.push_back({{a.pred, a.args[0].value, a.args[1].value}, k});
  }

  int32_t nv = rule.num_vars();
  UnionFind uf(std::max(nv, 1));
  int32_t merged = 0;
  ChaseResult unsat;
  unsat.satisfiable = false;

  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [a, k] : child_atoms) {
      if (uf.Find(a.x) == uf.Find(a.y)) return unsat;
    }
    // A node is the k-th child of at most one parent and for exactly one k.
    {
      std::map<VarId, std::pair<VarId, int32_t>> by_target;  // y -> (x, k)
      for (const auto& [a, k] : child_atoms) {
        VarId y = uf.Find(a.y), x = uf.Find(a.x);
        auto [it, inserted] = by_target.emplace(y, std::make_pair(x, k));
        if (!inserted) {
          if (it->second.second != k) return unsat;  // k-th and j-th child
          if (it->second.first != x && uf.Union(it->second.first, x)) {
            ++merged;
            changed = true;
          }
          it->second.first = uf.Find(x);
        }
      }
    }
    // Each node has one k-th child.
    {
      std::map<std::pair<VarId, int32_t>, VarId> by_source;
      for (const auto& [a, k] : child_atoms) {
        VarId x = uf.Find(a.x), y = uf.Find(a.y);
        auto [it, inserted] = by_source.emplace(std::make_pair(x, k), y);
        if (!inserted && it->second != y) {
          if (uf.Union(it->second, y)) {
            ++merged;
            changed = true;
          }
          it->second = uf.Find(y);
        }
      }
    }
  }

  // Depth consistency: every child edge descends one level.
  {
    std::vector<std::tuple<VarId, VarId, int32_t>> edges;
    for (const auto& [a, k] : child_atoms) {
      edges.emplace_back(uf.Find(a.x), uf.Find(a.y), 1);
    }
    if (!AssignPotentials(std::max(nv, 1), edges, nullptr)) return unsat;
  }

  std::vector<BinAtom> out_bin;
  for (const auto& [a, k] : child_atoms) {
    out_bin.push_back({a.pred, uf.Find(a.x), uf.Find(a.y)});
  }
  ChaseResult result;
  result.satisfiable = true;
  result.merged_vars = merged;
  result.rule = RebuildRule(*program, rule, &uf, nv, unary, out_bin);
  if (!IsAcyclicRule(result.rule)) {
    return util::Status::Internal("ranked chase produced a cyclic rule: " +
                                  core::ToString(*program, result.rule));
  }
  return result;
}

}  // namespace mdatalog::tmnf
