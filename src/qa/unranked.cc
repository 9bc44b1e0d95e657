#include "src/qa/unranked.h"

#include "src/qa/two_way_run.h"
#include "src/util/check.h"

namespace mdatalog::qa {

bool PairNfa::Accepts(const std::vector<PairSymbol>& word) const {
  std::set<int32_t> current = {start};
  for (const PairSymbol& sym : word) {
    std::set<int32_t> next;
    for (int32_t s : current) {
      auto it = trans.find({s, sym});
      if (it != trans.end()) next.insert(it->second.begin(), it->second.end());
    }
    current = std::move(next);
    if (current.empty()) return false;
  }
  for (int32_t f : finals) {
    if (current.count(f) > 0) return true;
  }
  return false;
}

util::Status UnrankedQA::Validate() const {
  MD_RETURN_NOT_OK(internal::ValidateShared(*this));
  auto check_state = [&](State q) { return q >= 0 && q < num_states; };
  for (const auto& [key, uvws] : delta_down) {
    if (InU(key.first, key.second)) {
      return util::Status::InvalidArgument("L↓ defined on a U-pair");
    }
    for (const UVW& e : uvws) {
      for (const auto* part : {&e.u, &e.v, &e.w}) {
        for (State s : *part) {
          if (!check_state(s)) {
            return util::Status::InvalidArgument("L↓ state out of range");
          }
        }
      }
    }
  }
  for (const auto& [q, nfa] : delta_up) {
    if (!check_state(q)) {
      return util::Status::InvalidArgument("L↑ target out of range");
    }
    for (const auto& [key, targets] : nfa.trans) {
      if (!InU(key.second.q, key.second.label)) {
        return util::Status::InvalidArgument("L↑ reads a D-pair");
      }
      (void)targets;
    }
  }
  return util::Status::OK();
}

int64_t UnrankedQA::Size() const {
  int64_t size = num_states;
  for (const auto& [key, uvws] : delta_down) {
    for (const UVW& e : uvws) {
      size += 2 + static_cast<int64_t>(e.u.size() + e.v.size() + e.w.size());
    }
  }
  for (const auto& [q, nfa] : delta_up) {
    size += nfa.num_states + static_cast<int64_t>(nfa.trans.size());
  }
  if (stay.has_value()) {
    size += stay->num_states + static_cast<int64_t>(stay->trans.size());
  }
  size += 2 * static_cast<int64_t>(delta_leaf.size() + delta_root.size() +
                                   selection.size());
  return size;
}

util::Result<std::vector<State>> UnrankedQA::DownWord(
    State q, const std::string& label, int32_t m) const {
  auto it = delta_down.find({q, label});
  if (it == delta_down.end()) {
    return util::Status::NotFound("no down language");
  }
  std::vector<State> found;
  bool have = false;
  for (const UVW& e : it->second) {
    int64_t fixed = static_cast<int64_t>(e.u.size() + e.w.size());
    int64_t rest = m - fixed;
    if (rest < 0) continue;
    if (e.v.empty() && rest != 0) continue;
    if (!e.v.empty() && rest % static_cast<int64_t>(e.v.size()) != 0) continue;
    std::vector<State> word = e.u;
    if (!e.v.empty()) {
      for (int64_t k = 0; k < rest / static_cast<int64_t>(e.v.size()); ++k) {
        word.insert(word.end(), e.v.begin(), e.v.end());
      }
    }
    word.insert(word.end(), e.w.begin(), e.w.end());
    if (have && word != found) {
      return util::Status::InvalidArgument(
          "L↓ has density > 1: two distinct words of length " +
          std::to_string(m));
    }
    found = std::move(word);
    have = true;
  }
  if (!have) return util::Status::NotFound("no word of the required length");
  return found;
}

util::Result<QaRunResult> RunUnrankedQA(const UnrankedQA& qa,
                                        const tree::Tree& t,
                                        const QaRunOptions& options) {
  MD_RETURN_NOT_OK(qa.Validate());
  auto down = [&](State q, const std::string& a, int32_t m,
                  std::vector<State>* states) -> util::Result<bool> {
    auto word = qa.DownWord(q, a, m);
    if (!word.ok()) {
      if (word.status().code() == util::StatusCode::kNotFound) return false;
      return word.status();
    }
    *states = std::move(*word);
    return true;
  };
  // The children's (state, label) word.
  auto pairs = [&](const std::vector<State>& cut, tree::NodeId parent) {
    std::vector<PairSymbol> word;
    for (tree::NodeId c = t.first_child(parent); c != tree::kNoNode;
         c = t.next_sibling(c)) {
      word.push_back({cut[c], t.label_name(c)});
    }
    return word;
  };
  auto up = [&](const std::vector<State>& cut,
                tree::NodeId parent) -> util::Result<State> {
    const std::vector<PairSymbol> word = pairs(cut, parent);
    State target = internal::kNoState;
    for (const auto& [q_res, nfa] : qa.delta_up) {
      if (nfa.Accepts(word)) {
        if (target != internal::kNoState) {
          return util::Status::InvalidArgument(
              "nondeterministic SQAu: two L↑ languages accept one word");
        }
        target = q_res;
      }
    }
    return target;
  };
  // Runs the stay 2DFA over the children of `parent`: true if it halted and
  // assigned exactly one state per child.
  auto stay = [&](const std::vector<State>& cut, tree::NodeId parent,
                  std::vector<State>* states) -> util::Result<bool> {
    if (!qa.stay.has_value()) return false;
    const TwoDfa& dfa = *qa.stay;
    const std::vector<PairSymbol> word = pairs(cut, parent);
    const int32_t m = static_cast<int32_t>(word.size());
    std::vector<State> assigned(m, internal::kNoState);
    int32_t pos = 0;  // 0-based child index
    int32_t s = dfa.start;
    int64_t budget = static_cast<int64_t>(dfa.num_states) * m * 4 + 16;
    bool halted = false;
    while (budget-- > 0) {
      if (std::find(dfa.finals.begin(), dfa.finals.end(), s) !=
          dfa.finals.end()) {
        halted = true;
        break;
      }
      // Walking past either end is reading an endmarker that accepts: the
      // 2DFA halts. Rejection is expressed by getting stuck (no transition).
      if (pos < 0 || pos >= m) {
        halted = true;
        break;
      }
      auto sel = dfa.select.find({s, word[pos]});
      if (sel != dfa.select.end()) {
        if (assigned[pos] != internal::kNoState &&
            assigned[pos] != sel->second) {
          return util::Status::InvalidArgument(
              "stay 2DFA assigned two different states to one node");
        }
        assigned[pos] = sel->second;
      }
      auto step = dfa.trans.find({s, word[pos]});
      if (step == dfa.trans.end()) return false;  // stuck: not in Ustay
      s = step->second.next;
      pos += step->second.dir;
    }
    if (!halted) return false;
    for (State a : assigned) {
      if (a == internal::kNoState) {
        return util::Status::InvalidArgument(
            "stay 2DFA halted without assigning every child a state");
      }
    }
    *states = std::move(assigned);
    return true;
  };
  return internal::RunTwoWay(qa, t, options, down, up, stay);
}

UnrankedQA EvenASQAu(const std::vector<std::string>& labels) {
  // States: 0 = s↓, 1 = p0, 2 = p1 (parity of a's strictly below).
  UnrankedQA qa;
  qa.num_states = 3;
  qa.start_state = 0;
  qa.final_states = {1, 2};
  for (const std::string& l : labels) {
    qa.up_partition[{0, l}] = false;
    qa.up_partition[{1, l}] = true;
    qa.up_partition[{2, l}] = true;
    // L↓(s↓, l) = (s↓)*.
    qa.delta_down[{0, l}] = {UVW{{}, {0}, {}}};
    qa.delta_leaf[{0, l}] = 1;
    if (l == "a") {
      qa.selection.insert({2, l});
    } else {
      qa.selection.insert({1, l});
    }
  }
  // L↑(p_x) = words whose total parity (child parities + a-labels) is x.
  // Parity NFA (deterministic): states 0 (even so far), 1 (odd so far).
  for (int x = 0; x < 2; ++x) {
    PairNfa nfa;
    nfa.num_states = 2;
    nfa.start = 0;
    nfa.finals = {x};
    for (int i = 0; i < 2; ++i) {
      for (const std::string& l : labels) {
        int delta = (i + (l == "a" ? 1 : 0)) % 2;
        for (int s = 0; s < 2; ++s) {
          nfa.trans[{s, PairSymbol{i + 1, l}}] = {(s + delta) % 2};
        }
      }
    }
    qa.delta_up[x + 1] = std::move(nfa);
  }
  MD_CHECK(qa.Validate().ok());
  return qa;
}

UnrankedQA OddPositionSQAu(const std::vector<std::string>& labels) {
  // States: 0 = start/descend (only used at the root), 1 = q0 (even
  // positions), 2 = q1 (odd positions), 3 = done.
  UnrankedQA qa;
  qa.num_states = 4;
  qa.start_state = 0;
  qa.final_states = {3};
  for (const std::string& l : labels) {
    qa.up_partition[{0, l}] = false;
    qa.up_partition[{1, l}] = true;
    qa.up_partition[{2, l}] = true;
    qa.up_partition[{3, l}] = true;
    // Example 4.15: L↓ = (q1 q0)* ∪ (q1 q0)* q1 — alternating marks from the
    // left, q1 first.
    qa.delta_down[{0, l}] = {UVW{{}, {2, 1}, {}}, UVW{{}, {2, 1}, {2}}};
    // Odd (1-based) positions carry q1 = state 2.
    qa.selection.insert({2, l});
  }
  // L↑(done) = (q0 | q1)*.
  PairNfa nfa;
  nfa.num_states = 1;
  nfa.start = 0;
  nfa.finals = {0};
  for (State q : {1, 2}) {
    for (const std::string& l : labels) {
      nfa.trans[{0, PairSymbol{q, l}}] = {0};
    }
  }
  qa.delta_up[3] = std::move(nfa);
  MD_CHECK(qa.Validate().ok());
  return qa;
}

UnrankedQA StayOddPositionSQAu(const std::vector<std::string>& labels) {
  // States: 0 = start, 1 = c (freshly descended children), 2 = m_odd,
  // 3 = m_even, 4 = done.
  UnrankedQA qa;
  qa.num_states = 5;
  qa.start_state = 0;
  qa.final_states = {4};
  for (const std::string& l : labels) {
    qa.up_partition[{0, l}] = false;
    for (State q : {1, 2, 3, 4}) qa.up_partition[{q, l}] = true;
    // All children first get state c: L↓ = c*.
    qa.delta_down[{0, l}] = {UVW{{}, {1}, {}}};
    // Odd positions (re-marked m_odd by the stay pass) are selected.
    qa.selection.insert({2, l});
  }
  // L↑(done) = (m_odd | m_even)+ — fires only after the stay transition
  // (words over c are in Ustay instead).
  PairNfa nfa;
  nfa.num_states = 2;
  nfa.start = 0;
  nfa.finals = {1};
  for (State q : {2, 3}) {
    for (const std::string& l : labels) {
      nfa.trans[{0, PairSymbol{q, l}}] = {1};
      nfa.trans[{1, PairSymbol{q, l}}] = {1};
    }
  }
  qa.delta_up[4] = std::move(nfa);
  // Stay 2DFA: walk left→right over c-children, alternating assignments.
  TwoDfa dfa;
  dfa.num_states = 3;  // 0 = at odd position, 1 = at even position, 2 = halt
  dfa.start = 0;
  dfa.finals = {2};
  for (const std::string& l : labels) {
    PairSymbol c{1, l};
    dfa.trans[{0, c}] = {1, +1};
    dfa.trans[{1, c}] = {0, +1};
    dfa.select[{0, c}] = 2;  // m_odd
    dfa.select[{1, c}] = 3;  // m_even
  }
  // The walk falls off the right end after marking the last child, which
  // the runner and the datalog encoding treat as reading the accepting
  // endmarker ⊣ (state 2 stays unreachable but documents intent).
  qa.stay = std::move(dfa);
  MD_CHECK(qa.Validate().ok());
  return qa;
}

}  // namespace mdatalog::qa
