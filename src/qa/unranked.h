#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/qa/ranked.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file unranked.h
/// Strong unranked query automata, SQAu (Definition 4.12).
///
/// Compared to QAr, the transition functions become language-based:
///  * δ↓(q, a, ·) is a regular language L↓(q,a) ⊆ Q* of constant density 1,
///    provided — per Proposition 4.13 — as a finite union of expressions
///    u v* w (the UVW struct);
///  * δ↑ is given per result state q as an NFA for the regular language
///    L↑(q) ⊆ U*; the L↑(q) must partition U_up for determinism;
///  * stay transitions re-assign the children of a node in place, computed
///    by a 2DFA B over (state, label) pairs with a selection function λB
///    that must assign exactly one new state to every child during B's run;
///    at most one stay transition may happen per node.
///
/// The runner implements these semantics literally (validating density-1 and
/// determinism as it goes) on the driver RunRankedQA uses (two_way_run.h):
/// only the δ↓ word, the δ↑ target and the stay pass are its own. The
/// Theorem 4.14 translation is in unranked_to_datalog.h.

namespace mdatalog::qa {

/// One subexpression u v* w of a down language L↓(q, a) (Proposition 4.13).
struct UVW {
  std::vector<State> u, v, w;
};

/// A letter of the up/stay alphabets: a (state, label) pair.
struct PairSymbol {
  State q;
  std::string label;
  auto operator<=>(const PairSymbol&) const = default;
};

/// NFA over PairSymbols (for the languages L↑(q)).
struct PairNfa {
  int32_t num_states = 0;
  int32_t start = 0;
  std::vector<int32_t> finals;
  std::map<std::pair<int32_t, PairSymbol>, std::vector<int32_t>> trans;

  bool Accepts(const std::vector<PairSymbol>& word) const;
};

/// The stay-transition 2DFA B with selection function λB.
struct TwoDfa {
  int32_t num_states = 0;
  int32_t start = 0;
  std::vector<int32_t> finals;  ///< halting states (checked on entry)
  struct Step {
    int32_t next;
    int32_t dir;  ///< -1 (left) or +1 (right)
  };
  std::map<std::pair<int32_t, PairSymbol>, Step> trans;
  /// λB: assignments made while reading; absent = ⊥.
  std::map<std::pair<int32_t, PairSymbol>, State> select;
};

class UnrankedQA {
 public:
  int32_t num_states = 0;
  State start_state = 0;
  std::vector<State> final_states;

  std::map<std::pair<State, std::string>, bool> up_partition;
  std::map<std::pair<State, std::string>, State> delta_leaf;
  std::map<std::pair<State, std::string>, State> delta_root;
  /// L↓(q, a) as a union of uv*w expressions.
  std::map<std::pair<State, std::string>, std::vector<UVW>> delta_down;
  /// L↑(q) per result state q.
  std::map<State, PairNfa> delta_up;
  std::optional<TwoDfa> stay;
  std::set<std::pair<State, std::string>> selection;

  bool InU(State q, const std::string& label) const {
    auto it = up_partition.find({q, label});
    return it != up_partition.end() && it->second;
  }
  bool IsFinal(State q) const {
    return std::find(final_states.begin(), final_states.end(), q) !=
           final_states.end();
  }

  util::Status Validate() const;
  int64_t Size() const;

  /// The unique word of length m in L↓(q,a), if any. InvalidArgument if two
  /// subexpressions yield *different* words of length m (density > 1).
  util::Result<std::vector<State>> DownWord(State q, const std::string& label,
                                            int32_t m) const;
};

/// Runs the SQAu on an unranked tree (cut/configuration semantics).
util::Result<QaRunResult> RunUnrankedQA(const UnrankedQA& qa,
                                        const tree::Tree& t,
                                        const QaRunOptions& options = {});

/// Unranked analogue of Example 4.9 / Example 3.2: selects roots of subtrees
/// with an even number of a-labeled nodes, on arbitrary unranked trees.
/// Down language (s↓)*, up languages = parity NFAs.
UnrankedQA EvenASQAu(const std::vector<std::string>& labels);

/// Example 4.15's down language L↓ = (q1 q0)* ∪ (q1 q0)* q1 packaged as a
/// complete automaton: the root assigns alternating states to its children
/// and the odd positions (1st, 3rd, …, state q1) are selected.
UnrankedQA OddPositionSQAu(const std::vector<std::string>& labels);

/// A stay-transition demo: the root's children are re-marked by a 2DFA that
/// walks them left to right, alternating two states; odd positions are
/// selected. Equivalent query to OddPositionSQAu, different machinery.
UnrankedQA StayOddPositionSQAu(const std::vector<std::string>& labels);

}  // namespace mdatalog::qa
