#pragma once

#include <set>
#include <string>
#include <vector>

#include "src/qa/ranked.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file two_way_run.h
/// The run of a two-way query automaton, private to src/qa/: the cut and
/// configuration semantics of QA_r (Definition 4.8), which SQA_u
/// (Definition 4.12) extends with stay transitions. RunRankedQA and
/// RunUnrankedQA share it and supply only how δ↓ and δ↑ read their tables.
/// QA is RankedQA or UnrankedQA: both have the same states, U/D partition,
/// δ_leaf, δ_root and selection.

namespace mdatalog::qa::internal {

constexpr State kNoState = -1;

/// The checks on the parts both automata share: the start state, δ_leaf on
/// D-pairs and δ_root on U-pairs, into states in range, and the final
/// states.
template <typename QA>
util::Status ValidateShared(const QA& qa) {
  auto in_range = [&](State q) { return q >= 0 && q < qa.num_states; };
  if (!in_range(qa.start_state)) {
    return util::Status::InvalidArgument("start state out of range");
  }
  for (const auto& [key, q2] : qa.delta_leaf) {
    if (qa.InU(key.first, key.second)) {
      return util::Status::InvalidArgument("δ_leaf defined on a U-pair");
    }
    if (!in_range(q2)) {
      return util::Status::InvalidArgument("δ_leaf image out of range");
    }
  }
  for (const auto& [key, q2] : qa.delta_root) {
    if (!qa.InU(key.first, key.second)) {
      return util::Status::InvalidArgument("δ_root defined on a D-pair");
    }
    if (!in_range(q2)) {
      return util::Status::InvalidArgument("δ_root image out of range");
    }
  }
  for (State q : qa.final_states) {
    if (!in_range(q)) {
      return util::Status::InvalidArgument("final state out of range");
    }
  }
  return util::Status::OK();
}

/// Runs the validated `qa` on `t` until no transition applies. The hooks:
///   down(q, label, m, &states) -> Result<bool>: δ↓'s states for the m
///     children of a node in D-pair (q, label); false when undefined.
///   up(cut, parent) -> Result<State>: δ↑'s target when every child of
///     `parent` is in the cut on a U-pair; kNoState when undefined.
///   stay(cut, parent, &states) -> Result<bool>: the stay transition's new
///     states for those children (SQA_u; tried at most once per node when
///     no up transition applies); false when none.
template <typename QA, typename Down, typename Up, typename Stay>
util::Result<QaRunResult> RunTwoWay(const QA& qa, const tree::Tree& t,
                                    const QaRunOptions& options,
                                    const Down& down, const Up& up,
                                    const Stay& stay) {
  // The cut with its states; kNoState = node not in the cut.
  std::vector<State> cut(t.size(), kNoState);
  std::vector<bool> stay_done(t.size(), false);
  cut[t.root()] = qa.start_state;

  QaRunResult result;
  std::set<tree::NodeId> selected;
  auto check_select = [&](tree::NodeId n) {
    if (qa.selection.count({cut[n], t.label_name(n)}) > 0) selected.insert(n);
  };
  check_select(t.root());

  // Worklist of nodes that may admit a transition. A node admits a down /
  // leaf / root transition based on its own (state, label); an up or stay
  // transition is detected at the *parent* of ready children.
  std::vector<tree::NodeId> work = {t.root()};
  // Puts `n` into the cut in state q.
  auto enter = [&](tree::NodeId n, State q) {
    cut[n] = q;
    check_select(n);
    work.push_back(n);
  };
  auto traced = [&](const char* kind, tree::NodeId n) {
    if (options.trace) result.trace.push_back({kind, n});
    return true;
  };
  std::vector<State> states;  // a down or stay transition's child states

  auto try_transition = [&](tree::NodeId n) -> util::Result<bool> {
    if (cut[n] == kNoState) return false;
    const State q = cut[n];
    const std::string& a = t.label_name(n);
    if (!qa.InU(q, a)) {  // D-pair: leaf or down transition
      if (t.IsLeaf(n)) {
        auto it = qa.delta_leaf.find({q, a});
        if (it == qa.delta_leaf.end()) return false;
        enter(n, it->second);
        return traced("leaf", n);
      }
      MD_ASSIGN_OR_RETURN(bool defined, down(q, a, t.NumChildren(n), &states));
      if (!defined) return false;
      cut[n] = kNoState;
      int32_t i = 0;
      for (tree::NodeId c = t.first_child(n); c != tree::kNoNode;
           c = t.next_sibling(c)) {
        enter(c, states[i++]);
      }
      return traced("down", n);
    }
    // U-pair: root transition if n is the root.
    if (t.IsRoot(n)) {
      auto it = qa.delta_root.find({q, a});
      if (it == qa.delta_root.end()) return false;
      enter(n, it->second);
      return traced("root", n);
    }
    // U-pair at a non-root node: its parent may admit an up or a stay
    // transition once every child is on a U-pair.
    const tree::NodeId parent = t.parent(n);
    for (tree::NodeId c = t.first_child(parent); c != tree::kNoNode;
         c = t.next_sibling(c)) {
      if (cut[c] == kNoState || !qa.InU(cut[c], t.label_name(c))) {
        return false;
      }
    }
    MD_ASSIGN_OR_RETURN(State target, up(cut, parent));
    if (target != kNoState) {
      for (tree::NodeId c = t.first_child(parent); c != tree::kNoNode;
           c = t.next_sibling(c)) {
        cut[c] = kNoState;
      }
      enter(parent, target);
      return traced("up", parent);
    }
    if (stay_done[parent]) return false;
    MD_ASSIGN_OR_RETURN(bool stayed, stay(cut, parent, &states));
    if (!stayed) return false;
    int32_t i = 0;
    for (tree::NodeId c = t.first_child(parent); c != tree::kNoNode;
         c = t.next_sibling(c)) {
      enter(c, states[i++]);
    }
    stay_done[parent] = true;
    return traced("stay", parent);
  };

  // Fixpoint: apply transitions until none is possible. The automaton is
  // deterministic per node (U/D partition), so the visit order does not
  // change per-node state sequences (Definition 4.8 discussion).
  bool progress = true;
  while (progress) {
    progress = false;
    // Drain the worklist; retry every cut node once per round as fallback
    // (an up transition becomes enabled when the *last* sibling gets ready).
    std::vector<tree::NodeId> round = std::move(work);
    work.clear();
    if (round.empty()) {
      for (tree::NodeId n = 0; n < t.size(); ++n) {
        if (cut[n] != kNoState) round.push_back(n);
      }
    }
    for (tree::NodeId n : round) {
      MD_ASSIGN_OR_RETURN(bool fired, try_transition(n));
      if (fired) {
        progress = true;
        ++result.steps;
        if (result.steps > options.max_steps) {
          return util::Status::ResourceExhausted(
              "query automaton exceeded max_steps");
        }
      }
    }
    if (!progress && !work.empty()) progress = true;
  }

  result.accepted = cut[t.root()] != kNoState && qa.IsFinal(cut[t.root()]);
  if (result.accepted) {
    result.selected.assign(selected.begin(), selected.end());
  }
  return result;
}

}  // namespace mdatalog::qa::internal
