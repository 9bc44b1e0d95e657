#include "src/qa/ranked_to_datalog.h"

#include <set>

#include "src/core/tree_schema.h"
#include "src/core/validate.h"

namespace mdatalog::qa {

namespace {

using core::Atom;
using core::MakeAtom;
using core::MakeRule;
using core::PredId;
using core::Program;
using core::Term;

constexpr State kNabla = -1;

std::string PairPredName(State q0, State q) {
  return "p" + (q0 == kNabla ? std::string("n") : std::to_string(q0)) + "_" +
         std::to_string(q);
}

/// Static evolution sets: evolve[d] ⊇ all states a node can carry while its
/// pair predicate's first component stays fixed, starting from
/// down-assignment d. evolve[num_states] is the root's set (start state,
/// δ_root, and up results).
std::vector<std::set<State>> ComputeEvolutionSets(const RankedQA& qa) {
  int32_t n = qa.num_states;
  std::vector<std::set<State>> evolve(n + 1);
  for (State d = 0; d < n; ++d) evolve[d].insert(d);
  evolve[n].insert(qa.start_state);

  auto up_compatible = [&](State q,
                           const std::vector<std::pair<State, std::string>>&
                               seq) {
    // ∃ δ↓(q, a, m) = ⟨d1..dm⟩ with seq[k].state ∈ evolve[dk] for all k.
    for (const auto& [key, assigned] : qa.delta_down) {
      const auto& [dq, label, arity] = key;
      if (dq != q || static_cast<size_t>(arity) != seq.size()) continue;
      bool all = true;
      for (size_t k = 0; k < seq.size(); ++k) {
        if (evolve[assigned[k]].count(seq[k].first) == 0) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (int32_t d = 0; d <= n; ++d) {
      std::vector<State> add;
      for (State q : evolve[d]) {
        for (const auto& [key, q2] : qa.delta_leaf) {
          if (key.first == q && evolve[d].count(q2) == 0) add.push_back(q2);
        }
        if (d == n) {
          for (const auto& [key, q2] : qa.delta_root) {
            if (key.first == q && evolve[d].count(q2) == 0) add.push_back(q2);
          }
        }
        for (const auto& [seq, q2] : qa.delta_up) {
          if (evolve[d].count(q2) == 0 && up_compatible(q, seq)) {
            add.push_back(q2);
          }
        }
      }
      for (State q : add) {
        if (evolve[d].insert(q).second) changed = true;
      }
    }
  }
  return evolve;
}

}  // namespace

util::Result<Program> RankedQAToDatalog(const RankedQA& qa) {
  MD_RETURN_NOT_OK(qa.Validate());
  Program program;
  auto& preds = program.preds();

  auto pair_pred = [&](State q0, State q) {
    return preds.MustIntern(PairPredName(q0, q), 1);
  };
  PredId root = preds.MustIntern("root", 1);
  PredId leaf = preds.MustIntern("leaf", 1);
  PredId accept = preds.MustIntern("accept", 1);
  PredId query = preds.MustIntern("query", 1);
  auto label_pred = [&](const std::string& l) {
    return preds.MustIntern(core::LabelPredName(l), 1);
  };
  auto child_pred = [&](int32_t k) {
    return preds.MustIntern("child" + std::to_string(k), 2);
  };

  std::vector<State> q0_range;
  q0_range.push_back(kNabla);
  for (State q = 0; q < qa.num_states; ++q) q0_range.push_back(q);

  Term x = Term::Var(0);

  // (1) Start state: ⟨∇, s⟩(x) ← root(x).
  program.AddRule(MakeRule(MakeAtom(pair_pred(kNabla, qa.start_state), {x}),
                           {MakeAtom(root, {x})}, {"x"}));

  // (2) Up transitions, restricted to compatible parent states q.
  std::vector<std::set<State>> evolve = ComputeEvolutionSets(qa);
  for (const auto& [seq, q_res] : qa.delta_up) {
    int32_t m = static_cast<int32_t>(seq.size());
    // Compatible parent states.
    std::set<State> compatible;
    for (const auto& [key, assigned] : qa.delta_down) {
      const auto& [dq, label, arity] = key;
      if (arity != m || compatible.count(dq) > 0) continue;
      bool all = true;
      for (int32_t k = 0; k < m; ++k) {
        if (evolve[assigned[k]].count(seq[k].first) == 0) {
          all = false;
          break;
        }
      }
      if (all) compatible.insert(dq);
    }
    for (State q0 : q0_range) {
      for (State q : compatible) {
        std::vector<Atom> body;
        std::vector<std::string> names = {"x"};
        body.push_back(MakeAtom(pair_pred(q0, q), {x}));
        for (int32_t k = 0; k < m; ++k) {
          Term xk = Term::Var(k + 1);
          names.push_back("x" + std::to_string(k + 1));
          body.push_back(MakeAtom(child_pred(k + 1), {x, xk}));
          body.push_back(MakeAtom(pair_pred(q, seq[k].first), {xk}));
          body.push_back(MakeAtom(label_pred(seq[k].second), {xk}));
        }
        program.AddRule(MakeRule(MakeAtom(pair_pred(q0, q_res), {x}),
                                 std::move(body), std::move(names)));
      }
    }
  }

  // (3) Down transitions: ⟨q, d_i⟩(xi) ← ⟨q0, q⟩(x), child_i(x, xi),
  //     label_a(x).
  for (const auto& [key, assigned] : qa.delta_down) {
    const auto& [q, label, arity] = key;
    for (int32_t i = 0; i < arity; ++i) {
      for (State q0 : q0_range) {
        Term xi = Term::Var(1);
        program.AddRule(
            MakeRule(MakeAtom(pair_pred(q, assigned[i]), {xi}),
                     {MakeAtom(pair_pred(q0, q), {x}),
                      MakeAtom(child_pred(i + 1), {x, xi}),
                      MakeAtom(label_pred(label), {x})},
                     {"x", "xi"}));
      }
    }
  }

  // (4) Root transitions: ⟨∇, q'⟩(x) ← ⟨∇, q⟩(x), label_a(x), root(x).
  for (const auto& [key, q2] : qa.delta_root) {
    program.AddRule(MakeRule(MakeAtom(pair_pred(kNabla, q2), {x}),
                             {MakeAtom(pair_pred(kNabla, key.first), {x}),
                              MakeAtom(label_pred(key.second), {x}),
                              MakeAtom(root, {x})},
                             {"x"}));
  }

  // (5) Leaf transitions: ⟨q0, q'⟩(x) ← ⟨q0, q⟩(x), label_a(x), leaf(x).
  for (const auto& [key, q2] : qa.delta_leaf) {
    for (State q0 : q0_range) {
      program.AddRule(MakeRule(MakeAtom(pair_pred(q0, q2), {x}),
                               {MakeAtom(pair_pred(q0, key.first), {x}),
                                MakeAtom(label_pred(key.second), {x}),
                                MakeAtom(leaf, {x})},
                               {"x"}));
    }
  }

  // (6) Acceptance: accept(x) ← root(x), ⟨q0, q⟩(x). for q ∈ F.
  for (State q : qa.final_states) {
    for (State q0 : q0_range) {
      program.AddRule(MakeRule(
          MakeAtom(accept, {x}),
          {MakeAtom(root, {x}), MakeAtom(pair_pred(q0, q), {x})}, {"x"}));
    }
  }

  // (7) Selection: query(x) ← ⟨q0, q⟩(x), label_a(x), accept(y).
  for (const auto& [q, label] : qa.selection) {
    for (State q0 : q0_range) {
      Term y = Term::Var(1);
      program.AddRule(MakeRule(MakeAtom(query, {x}),
                               {MakeAtom(pair_pred(q0, q), {x}),
                                MakeAtom(label_pred(label), {x}),
                                MakeAtom(accept, {y})},
                               {"x", "y"}));
    }
  }

  program.set_query_pred(query);
  // Pair predicates for unreachable (q0, q) combinations have no rules;
  // rules referencing them can never fire and would push the program outside
  // the tree signature (an extensional "p3_7" is meaningless).
  core::PruneUnderivableRules(&program);
  return program;
}

}  // namespace mdatalog::qa
