#include "src/qa/ranked.h"

#include "src/qa/two_way_run.h"
#include "src/tree/ranked.h"
#include "src/util/check.h"

namespace mdatalog::qa {

util::Status RankedQA::Validate() const {
  MD_RETURN_NOT_OK(internal::ValidateShared(*this));
  auto check_state = [&](State q) {
    return q >= 0 && q < num_states;
  };
  for (const auto& [key, states] : delta_down) {
    const auto& [q, label, arity] = key;
    if (InU(q, label)) {
      return util::Status::InvalidArgument("δ↓ defined on a U-pair");
    }
    if (static_cast<int32_t>(states.size()) != arity) {
      return util::Status::InvalidArgument("δ↓ image length != arity");
    }
    if (arity > max_rank) {
      return util::Status::InvalidArgument("δ↓ arity exceeds K");
    }
    for (State s : states) {
      if (!check_state(s)) {
        return util::Status::InvalidArgument("δ↓ image state out of range");
      }
    }
  }
  for (const auto& [seq, q2] : delta_up) {
    if (seq.empty() || static_cast<int32_t>(seq.size()) > max_rank) {
      return util::Status::InvalidArgument("δ↑ arity out of range");
    }
    for (const auto& [q, label] : seq) {
      if (!InU(q, label)) {
        return util::Status::InvalidArgument("δ↑ reads a D-pair");
      }
    }
    if (!check_state(q2)) {
      return util::Status::InvalidArgument("δ↑ image out of range");
    }
  }
  return util::Status::OK();
}

int64_t RankedQA::Size() const {
  int64_t size = num_states;
  for (const auto& [seq, _] : delta_up) {
    size += static_cast<int64_t>(seq.size()) + 1;
  }
  size += 4 * static_cast<int64_t>(delta_down.size());
  size += 2 * static_cast<int64_t>(delta_root.size() + delta_leaf.size() +
                                   selection.size());
  return size;
}

util::Result<QaRunResult> RunRankedQA(const RankedQA& qa, const tree::Tree& t,
                                      const QaRunOptions& options) {
  MD_RETURN_NOT_OK(qa.Validate());
  MD_RETURN_NOT_OK(tree::ValidateMaxArity(t, qa.max_rank));
  auto down = [&](State q, const std::string& a, int32_t m,
                  std::vector<State>* states) -> util::Result<bool> {
    auto it = qa.delta_down.find({q, a, m});
    if (it == qa.delta_down.end()) return false;
    *states = it->second;
    return true;
  };
  std::vector<std::pair<State, std::string>> seq;
  auto up = [&](const std::vector<State>& cut,
                tree::NodeId parent) -> util::Result<State> {
    seq.clear();
    for (tree::NodeId c = t.first_child(parent); c != tree::kNoNode;
         c = t.next_sibling(c)) {
      seq.emplace_back(cut[c], t.label_name(c));
    }
    auto it = qa.delta_up.find(seq);
    return it == qa.delta_up.end() ? internal::kNoState : it->second;
  };
  auto no_stay = [](const std::vector<State>&, tree::NodeId,
                    std::vector<State>*) -> util::Result<bool> {
    return false;
  };
  return internal::RunTwoWay(qa, t, options, down, up, no_stay);
}

RankedQA EvenAQAr(const std::vector<std::string>& labels) {
  RankedQA qa;
  // States: 0 = s↓ (descending), 1 = s0, 2 = s1 (parity of a's strictly
  // below the node).
  qa.num_states = 3;
  qa.start_state = 0;
  qa.final_states = {1, 2};
  qa.max_rank = 2;
  for (const std::string& l : labels) {
    qa.up_partition[{0, l}] = false;
    qa.up_partition[{1, l}] = true;
    qa.up_partition[{2, l}] = true;
    // (1) descend everywhere: δ↓(s↓, l, 2) = ⟨s↓, s↓⟩.
    qa.delta_down[{0, l, 2}] = {0, 0};
    // (2) leaves have zero a's below: δ_leaf(s↓, l) = s0.
    qa.delta_leaf[{0, l}] = 1;
    // Selection: subtree-even ⟺ (s1 ∧ a) ∨ (s0 ∧ ¬a).
    if (l == "a") {
      qa.selection.insert({2, l});
    } else {
      qa.selection.insert({1, l});
    }
  }
  // (3) ascend summing parities: δ↑(⟨s_i,l1⟩,⟨s_j,l2⟩) = s_x,
  //     x = i + j + χ(l1=a) + χ(l2=a) mod 2.
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      for (const std::string& l1 : labels) {
        for (const std::string& l2 : labels) {
          int x = (i + j + (l1 == "a" ? 1 : 0) + (l2 == "a" ? 1 : 0)) % 2;
          qa.delta_up[{{i + 1, l1}, {j + 1, l2}}] = x + 1;
        }
      }
    }
  }
  MD_CHECK(qa.Validate().ok());
  return qa;
}

RankedQA BlowupQAr(int32_t alpha) {
  MD_CHECK(alpha >= 1);
  int32_t beta = 1 << alpha;
  RankedQA qa;
  // States q_{i,j} for 1 ≤ i,j ≤ β+1, flattened as (i-1)*(β+1) + (j-1).
  int32_t side = beta + 1;
  auto id = [side](int32_t i, int32_t j) { return (i - 1) * side + (j - 1); };
  qa.num_states = side * side;
  qa.start_state = id(1, 1);
  qa.final_states = {id(1, beta + 1)};
  qa.max_rank = 2;
  const std::string a = "a";
  for (int32_t i = 1; i <= side; ++i) {
    for (int32_t j = 1; j <= side; ++j) {
      // D = {(q_{i,j}, a) | j ≤ β}, U = {(q_{i,β+1}, a)}.
      qa.up_partition[{id(i, j), a}] = (j == beta + 1);
    }
  }
  for (int32_t i = 1; i <= side; ++i) {
    for (int32_t j = 1; j <= beta; ++j) {
      // δ↓(q_{i,j}, a, 2) = ⟨q_{i,1}, q_{j,1}⟩.
      qa.delta_down[{id(i, j), a, 2}] = {id(i, 1), id(j, 1)};
    }
    // δ_leaf(q_{i,1}, a) = q_{i,β+1}.
    qa.delta_leaf[{id(i, 1), a}] = id(i, beta + 1);
  }
  // δ↑(⟨q_{i,β+1}, a⟩, ⟨q_{j,β+1}, a⟩) = q_{i,j+1}.
  for (int32_t i = 1; i <= side; ++i) {
    for (int32_t j = 1; j <= beta; ++j) {
      qa.delta_up[{{id(i, beta + 1), a}, {id(j, beta + 1), a}}] =
          id(i, j + 1);
    }
  }
  // Any selection will do (Example 4.21 cares about run length only); select
  // on the final state so the query is "the root, if the run accepts".
  qa.selection.insert({id(1, beta + 1), a});
  MD_CHECK(qa.Validate().ok());
  return qa;
}

}  // namespace mdatalog::qa
