#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/tree/tree.h"
#include "src/util/interner.h"
#include "src/util/result.h"

/// \file ranked.h
/// Ranked query automata (Definition 4.8): two-way deterministic ranked tree
/// automata with a selection function. A QAr walks a cut of the tree up and
/// down; it *selects* a node whenever the selection function λ fires on the
/// node's current (state, label), and the selected set of an accepting run
/// is the union over all configurations (so selection is an "anytime"
/// notion — Section 4.3).
///
/// The direct runner implements the cut/configuration semantics literally
/// and counts transitions; its driver (two_way_run.h) is shared with
/// RunUnrankedQA, which adds stay transitions. Example 4.21 exhibits runs
/// with Θ(((n+1)/2)^(α+1)) steps, which bench_paper's E6 series measure
/// against the linear-time datalog simulation of Theorem 4.11.

namespace mdatalog::qa {

using State = int32_t;

/// A ranked query automaton. States are 0..num_states-1; labels are interned
/// strings. Build the transition tables directly, then call Validate().
class RankedQA {
 public:
  int32_t num_states = 0;
  State start_state = 0;
  std::vector<State> final_states;
  int32_t max_rank = 2;  ///< K

  /// The U/D partition of Q × Σ: up_partition[(q, label)] == true ⇒ ∈ U.
  /// Pairs not present default to D.
  std::map<std::pair<State, std::string>, bool> up_partition;

  /// δ↑: sequence of children (state, label) pairs → state.
  std::map<std::vector<std::pair<State, std::string>>, State> delta_up;
  /// δ↓: (state, label, arity) → states for the children (length = arity).
  std::map<std::tuple<State, std::string, int32_t>, std::vector<State>>
      delta_down;
  /// δ_root: (state, label) → state, applicable when the cut is {root}.
  std::map<std::pair<State, std::string>, State> delta_root;
  /// δ_leaf: (state, label) → state.
  std::map<std::pair<State, std::string>, State> delta_leaf;
  /// λ: (state, label) pairs mapped to 1 (all others are ⊥).
  std::set<std::pair<State, std::string>> selection;

  bool InU(State q, const std::string& label) const {
    auto it = up_partition.find({q, label});
    return it != up_partition.end() && it->second;
  }
  bool IsFinal(State q) const {
    return std::find(final_states.begin(), final_states.end(), q) !=
           final_states.end();
  }

  /// Structural sanity: state ids in range, δ↓ lengths match arities, U/D
  /// consistency of the transition tables (δ↑/δ_root read U-pairs, δ↓/δ_leaf
  /// read D-pairs).
  util::Status Validate() const;

  /// |A|: total size of the transition tables.
  int64_t Size() const;
};

/// One transition applied by the runner (for traces/goldens, Example 4.9).
struct QaTraceStep {
  std::string kind;  ///< "down", "up", "leaf", "root"
  tree::NodeId node; ///< the defining node n of the transition
};

struct QaRunResult {
  bool accepted = false;
  std::vector<tree::NodeId> selected;  ///< sorted
  int64_t steps = 0;
  std::vector<QaTraceStep> trace;      ///< filled when RunOptions::trace
};

struct QaRunOptions {
  int64_t max_steps = 100'000'000;
  bool trace = false;
};

/// Runs the automaton on `t` (every node must have ≤ max_rank children).
/// Fails with ResourceExhausted if max_steps is exceeded (QAr need not
/// terminate in general — Section 4.3).
util::Result<QaRunResult> RunRankedQA(const RankedQA& qa, const tree::Tree& t,
                                      const QaRunOptions& options = {});

/// Example 4.9: selects roots of subtrees containing an even number of
/// a-labeled nodes, on binary trees over `labels` (which must contain "a").
RankedQA EvenAQAr(const std::vector<std::string>& labels);

/// Example 4.21: the blow-up automaton A_β with β = 2^α over Σ = {a}.
/// Terminating runs on complete binary trees take Θ(((n+1)/2)^(α+1)) steps.
RankedQA BlowupQAr(int32_t alpha);

}  // namespace mdatalog::qa
