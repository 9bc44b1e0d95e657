#include "src/qa/unranked_to_datalog.h"

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

std::string StateName(State q) {
  return q == kNabla ? std::string("n") : std::to_string(q);
}

/// Generates all rules of the Theorem 4.14 encoding.
class SqauEncoder {
 public:
  explicit SqauEncoder(const UnrankedQA& qa) : qa_(qa) {}

  util::Result<Program> Encode() {
    MD_RETURN_NOT_OK(qa_.Validate());
    CollectLabels();

    root_ = preds().MustIntern("root", 1);
    leaf_ = preds().MustIntern("leaf", 1);
    firstchild_ = preds().MustIntern("firstchild", 2);
    nextsibling_ = preds().MustIntern("nextsibling", 2);
    lastsibling_ = preds().MustIntern("lastsibling", 1);
    firstsibling_ = preds().MustIntern("firstsibling", 1);
    child_ = preds().MustIntern("child", 2);
    lastchild_ = preds().MustIntern("lastchild", 2);
    accept_ = preds().MustIntern("accept", 1);
    query_ = preds().MustIntern("query", 1);

    q0_range_.push_back(kNabla);
    for (State q = 0; q < qa_.num_states; ++q) q0_range_.push_back(q);

    Term x = Term::Var(0);

    // (1) Start: ⟨∇, s⟩(x) ← root(x).
    AddRule(MakeRule(MakeAtom(Pair(kNabla, qa_.start_state), {x}),
                     {MakeAtom(root_, {x})}, {"x"}));

    for (const auto& [key, uvws] : qa_.delta_down) {
      EncodeDown(key.first, key.second, uvws);
    }
    for (const auto& [q_res, nfa] : qa_.delta_up) {
      EncodeUp(q_res, nfa);
    }
    if (qa_.stay.has_value()) EncodeStay(*qa_.stay);

    // (4) Root transitions.
    for (const auto& [key, q2] : qa_.delta_root) {
      AddRule(MakeRule(MakeAtom(Pair(kNabla, q2), {x}),
                       {MakeAtom(Pair(kNabla, key.first), {x}),
                        MakeAtom(Label(key.second), {x}),
                        MakeAtom(root_, {x})},
                       {"x"}));
    }
    // (5) Leaf transitions.
    for (const auto& [key, q2] : qa_.delta_leaf) {
      for (State q0 : q0_range_) {
        AddRule(MakeRule(MakeAtom(Pair(q0, q2), {x}),
                         {MakeAtom(Pair(q0, key.first), {x}),
                          MakeAtom(Label(key.second), {x}),
                          MakeAtom(leaf_, {x})},
                         {"x"}));
      }
    }
    // (6) Acceptance.
    for (State q : qa_.final_states) {
      for (State q0 : q0_range_) {
        AddRule(MakeRule(
            MakeAtom(accept_, {x}),
            {MakeAtom(root_, {x}), MakeAtom(Pair(q0, q), {x})}, {"x"}));
      }
    }
    // (7) Selection.
    for (const auto& [q, label] : qa_.selection) {
      for (State q0 : q0_range_) {
        Term y = Term::Var(1);
        AddRule(MakeRule(MakeAtom(query_, {x}),
                         {MakeAtom(Pair(q0, q), {x}),
                          MakeAtom(Label(label), {x}), MakeAtom(accept_, {y})},
                         {"x", "y"}));
      }
    }
    program_.set_query_pred(query_);
    // Drop rules referencing pair predicates that no rule can ever derive.
    core::PruneUnderivableRules(&program_);
    return std::move(program_);
  }

 private:
  core::PredicateTable& preds() { return program_.preds(); }
  void AddRule(core::Rule rule) { program_.AddRule(std::move(rule)); }

  PredId Pair(State q0, State q) {
    return preds().MustIntern("p" + StateName(q0) + "_" + StateName(q), 1);
  }
  PredId Label(const std::string& l) {
    return preds().MustIntern(core::LabelPredName(l), 1);
  }
  PredId Tmp(const std::string& name) { return preds().MustIntern(name, 1); }

  void CollectLabels() {
    for (const auto& [key, _] : qa_.delta_down) labels_.insert(key.second);
    for (const auto& [key, _] : qa_.delta_leaf) labels_.insert(key.second);
    for (const auto& [key, _] : qa_.delta_root) labels_.insert(key.second);
    for (const auto& [key, _] : qa_.up_partition) labels_.insert(key.second);
    for (const auto& [q, nfa] : qa_.delta_up) {
      for (const auto& [key, _] : nfa.trans) labels_.insert(key.second.label);
    }
    if (qa_.stay.has_value()) {
      for (const auto& [key, _] : qa_.stay->trans) {
        labels_.insert(key.second.label);
      }
    }
  }

  /// Down transitions: the uv*w marking rules (a)–(f) of the proof
  /// (Figure 2). One rule family per subexpression i of L↓(q, a).
  void EncodeDown(State q, const std::string& a,
                  const std::vector<UVW>& uvws) {
    Term x = Term::Var(0), y = Term::Var(1);
    // Helper "kid" predicate: x is a child of a (q, a)-node.
    PredId kid = Tmp("kid_" + StateName(q) + "_" + a);
    for (State q0 : q0_range_) {
      AddRule(MakeRule(MakeAtom(kid, {y}),
                       {MakeAtom(Pair(q0, q), {x}), MakeAtom(child_, {x, y}),
                        MakeAtom(Label(a), {x})},
                       {"x", "y"}));
    }

    for (size_t i = 0; i < uvws.size(); ++i) {
      const UVW& e = uvws[i];
      std::string base = "d" + StateName(q) + "_" + a + "_" +
                         std::to_string(i);
      auto upred = [&](size_t k) {  // 1-based
        return Tmp(base + "_u" + std::to_string(k));
      };
      auto wpred = [&](size_t l) {  // 1-based
        return Tmp(base + "_w" + std::to_string(l));
      };
      auto vpred = [&](size_t j) {  // 1-based
        return Tmp(base + "_v" + std::to_string(j));
      };
      PredId bw = Tmp(base + "_bw");
      PredId succ = Tmp(base + "_s");

      // (a) mark the |u| leftmost children.
      if (!e.u.empty()) {
        for (State q0 : q0_range_) {
          AddRule(MakeRule(MakeAtom(upred(1), {y}),
                           {MakeAtom(Pair(q0, q), {x}),
                            MakeAtom(firstchild_, {x, y}),
                            MakeAtom(Label(a), {x})},
                           {"x", "y"}));
        }
        for (size_t k = 1; k < e.u.size(); ++k) {
          AddRule(MakeRule(MakeAtom(upred(k + 1), {y}),
                           {MakeAtom(upred(k), {x}),
                            MakeAtom(nextsibling_, {x, y})},
                           {"x", "y"}));
        }
      }
      // (b) mark the |w| rightmost children.
      if (!e.w.empty()) {
        for (State q0 : q0_range_) {
          AddRule(MakeRule(MakeAtom(wpred(e.w.size()), {y}),
                           {MakeAtom(Pair(q0, q), {x}),
                            MakeAtom(lastchild_, {x, y}),
                            MakeAtom(Label(a), {x})},
                           {"x", "y"}));
        }
        for (size_t l = e.w.size(); l > 1; --l) {
          AddRule(MakeRule(MakeAtom(wpred(l - 1), {y}),
                           {MakeAtom(wpred(l), {x}),
                            MakeAtom(nextsibling_, {y, x})},
                           {"x", "y"}));
        }
      }
      // (c) mark the region strictly before w (all children if w = ε).
      if (!e.w.empty()) {
        AddRule(MakeRule(MakeAtom(bw, {y}),
                         {MakeAtom(wpred(1), {x}),
                          MakeAtom(nextsibling_, {y, x})},
                         {"x", "y"}));
        AddRule(MakeRule(MakeAtom(bw, {y}),
                         {MakeAtom(bw, {x}), MakeAtom(nextsibling_, {y, x})},
                         {"x", "y"}));
      } else {
        AddRule(MakeRule(MakeAtom(bw, {x}), {MakeAtom(kid, {x})}, {"x"}));
      }
      // (d) chase v-cycles through the middle region.
      if (!e.v.empty()) {
        if (!e.u.empty()) {
          AddRule(MakeRule(MakeAtom(vpred(1), {y}),
                           {MakeAtom(upred(e.u.size()), {x}),
                            MakeAtom(nextsibling_, {x, y}),
                            MakeAtom(bw, {y})},
                           {"x", "y"}));
        } else {
          for (State q0 : q0_range_) {
            AddRule(MakeRule(MakeAtom(vpred(1), {y}),
                             {MakeAtom(Pair(q0, q), {x}),
                              MakeAtom(firstchild_, {x, y}),
                              MakeAtom(Label(a), {x}), MakeAtom(bw, {y})},
                             {"x", "y"}));
          }
        }
        for (size_t j = 1; j < e.v.size(); ++j) {
          AddRule(MakeRule(MakeAtom(vpred(j + 1), {y}),
                           {MakeAtom(vpred(j), {x}),
                            MakeAtom(nextsibling_, {x, y}),
                            MakeAtom(bw, {y})},
                           {"x", "y"}));
        }
        AddRule(MakeRule(MakeAtom(vpred(1), {y}),
                         {MakeAtom(vpred(e.v.size()), {x}),
                          MakeAtom(nextsibling_, {x, y}), MakeAtom(bw, {y})},
                         {"x", "y"}));
      }
      // (e) succ: the subexpression matches the child count.
      //     Zero v-repetitions: m = |u| + |w|.
      if (!e.u.empty() && !e.w.empty()) {
        AddRule(MakeRule(MakeAtom(succ, {x}),
                         {MakeAtom(upred(e.u.size()), {x}),
                          MakeAtom(nextsibling_, {x, y}),
                          MakeAtom(wpred(1), {y})},
                         {"x", "y"}));
      } else if (!e.u.empty()) {
        AddRule(MakeRule(MakeAtom(succ, {x}),
                         {MakeAtom(upred(e.u.size()), {x}),
                          MakeAtom(lastsibling_, {x})},
                         {"x"}));
      } else if (!e.w.empty()) {
        AddRule(MakeRule(MakeAtom(succ, {x}),
                         {MakeAtom(wpred(1), {x}),
                          MakeAtom(firstsibling_, {x})},
                         {"x"}));
      }
      //     One or more v-repetitions.
      if (!e.v.empty()) {
        if (!e.w.empty()) {
          AddRule(MakeRule(MakeAtom(succ, {x}),
                           {MakeAtom(vpred(e.v.size()), {x}),
                            MakeAtom(nextsibling_, {x, y}),
                            MakeAtom(wpred(1), {y})},
                           {"x", "y"}));
        } else {
          AddRule(MakeRule(MakeAtom(succ, {x}),
                           {MakeAtom(vpred(e.v.size()), {x}),
                            MakeAtom(lastsibling_, {x})},
                           {"x"}));
        }
      }
      //     Spread succ across all siblings.
      AddRule(MakeRule(MakeAtom(succ, {y}),
                       {MakeAtom(succ, {x}), MakeAtom(nextsibling_, {x, y})},
                       {"x", "y"}));
      AddRule(MakeRule(MakeAtom(succ, {y}),
                       {MakeAtom(succ, {x}), MakeAtom(nextsibling_, {y, x})},
                       {"x", "y"}));
      // (f) state assignments from the position marks.
      for (size_t k = 0; k < e.u.size(); ++k) {
        AddRule(MakeRule(MakeAtom(Pair(q, e.u[k]), {x}),
                         {MakeAtom(succ, {x}), MakeAtom(upred(k + 1), {x})},
                         {"x"}));
      }
      for (size_t j = 0; j < e.v.size(); ++j) {
        AddRule(MakeRule(MakeAtom(Pair(q, e.v[j]), {x}),
                         {MakeAtom(succ, {x}), MakeAtom(vpred(j + 1), {x})},
                         {"x"}));
      }
      for (size_t l = 0; l < e.w.size(); ++l) {
        AddRule(MakeRule(MakeAtom(Pair(q, e.w[l]), {x}),
                         {MakeAtom(succ, {x}), MakeAtom(wpred(l + 1), {x})},
                         {"x"}));
      }
    }
  }

  /// Up transitions: simulate the L↑(q_res) NFA left-to-right along the
  /// siblings, then walk back and assign the parent state.
  void EncodeUp(State q_res, const PairNfa& nfa) {
    Term x = Term::Var(0), y = Term::Var(1);
    std::string base = "up" + StateName(q_res);
    auto tmp = [&](State q2, int32_t s) {
      return Tmp(base + "_" + StateName(q2) + "_s" + std::to_string(s));
    };
    auto bck = [&](State q2) { return Tmp(base + "_" + StateName(q2) + "_b"); };

    for (State q2 = 0; q2 < qa_.num_states; ++q2) {
      // (a) NFA start on the first sibling.
      for (const auto& [key, targets] : nfa.trans) {
        const auto& [s, sym] = key;
        if (s != nfa.start) continue;
        for (int32_t s2 : targets) {
          AddRule(MakeRule(MakeAtom(tmp(q2, s2), {x}),
                           {MakeAtom(firstchild_, {y, x}),
                            MakeAtom(Pair(q2, sym.q), {x}),
                            MakeAtom(Label(sym.label), {x})},
                           {"x", "x0"}));
        }
      }
      // (b) NFA steps along nextsibling.
      for (const auto& [key, targets] : nfa.trans) {
        const auto& [s, sym] = key;
        for (int32_t s2 : targets) {
          AddRule(MakeRule(MakeAtom(tmp(q2, s2), {y}),
                           {MakeAtom(tmp(q2, s), {x}),
                            MakeAtom(nextsibling_, {x, y}),
                            MakeAtom(Pair(q2, sym.q), {y}),
                            MakeAtom(Label(sym.label), {y})},
                           {"x", "y"}));
        }
      }
      // (c) acceptance at the last sibling; walk back; assign the parent.
      for (int32_t f : nfa.finals) {
        AddRule(MakeRule(MakeAtom(bck(q2), {x}),
                         {MakeAtom(tmp(q2, f), {x}),
                          MakeAtom(lastsibling_, {x})},
                         {"x"}));
      }
      AddRule(MakeRule(MakeAtom(bck(q2), {x}),
                       {MakeAtom(nextsibling_, {x, y}), MakeAtom(bck(q2), {y})},
                       {"x", "y"}));
      for (State q1 : q0_range_) {
        AddRule(MakeRule(MakeAtom(Pair(q1, q_res), {x}),
                         {MakeAtom(Pair(q1, q2), {x}),
                          MakeAtom(firstchild_, {x, y}),
                          MakeAtom(bck(q2), {y})},
                         {"x", "y"}));
      }
    }
  }

  /// Stay transitions: simulate the 2DFA B; each move depends on a single
  /// state assignment, so the monotone encoding is sound for valid automata
  /// (each node participates in at most one stay transition).
  void EncodeStay(const TwoDfa& dfa) {
    Term x = Term::Var(0), y = Term::Var(1);
    auto bpred = [&](State q2, int32_t s) {
      return Tmp("st_" + StateName(q2) + "_s" + std::to_string(s));
    };
    for (State q2 = 0; q2 < qa_.num_states; ++q2) {
      // B starts on the leftmost child, whatever its pair state.
      for (State q = 0; q < qa_.num_states; ++q) {
        AddRule(MakeRule(MakeAtom(bpred(q2, dfa.start), {x}),
                         {MakeAtom(firstchild_, {y, x}),
                          MakeAtom(Pair(q2, q), {x})},
                         {"x", "x0"}));
      }
      for (const auto& [key, step] : dfa.trans) {
        const auto& [s, sym] = key;
        Atom move = step.dir > 0 ? MakeAtom(nextsibling_, {x, y})
                                 : MakeAtom(nextsibling_, {y, x});
        AddRule(MakeRule(MakeAtom(bpred(q2, step.next), {y}),
                         {MakeAtom(bpred(q2, s), {x}),
                          MakeAtom(Pair(q2, sym.q), {x}),
                          MakeAtom(Label(sym.label), {x}), std::move(move)},
                         {"x", "y"}));
      }
      for (const auto& [key, q_new] : dfa.select) {
        const auto& [s, sym] = key;
        AddRule(MakeRule(MakeAtom(Pair(q2, q_new), {x}),
                         {MakeAtom(bpred(q2, s), {x}),
                          MakeAtom(Pair(q2, sym.q), {x}),
                          MakeAtom(Label(sym.label), {x})},
                         {"x"}));
      }
    }
  }

  const UnrankedQA& qa_;
  Program program_;
  std::set<std::string> labels_;
  std::vector<State> q0_range_;
  PredId root_, leaf_, firstchild_, nextsibling_, lastsibling_, firstsibling_,
      child_, lastchild_, accept_, query_;
};

}  // namespace

util::Result<Program> UnrankedQAToDatalog(const UnrankedQA& qa) {
  return SqauEncoder(qa).Encode();
}

}  // namespace mdatalog::qa
