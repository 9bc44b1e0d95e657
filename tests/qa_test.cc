#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/qa/ranked.h"
#include "src/qa/ranked_to_datalog.h"
#include "src/qa/unranked.h"
#include "src/qa/unranked_to_datalog.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "tests/support/edb.h"
#include "tests/support/reference_eval.h"
#include "tests/support/trees.h"

namespace mdatalog::qa {
namespace {

using tree::NodeId;
using tree::Tree;

/// A random full binary tree (every node has 0 or 2 children) with
/// `num_internal` internal nodes: split a random leaf `num_internal` times,
/// then label the nodes in preorder. The binary query automata of Examples
/// 4.9/4.21 need this shape.
Tree RandomFullBinaryTree(util::Rng& rng, int32_t num_internal,
                          const std::vector<std::string>& labels) {
  std::vector<std::vector<int32_t>> kids(1);
  std::vector<int32_t> leaves = {0};
  for (int32_t s = 0; s < num_internal; ++s) {
    const size_t slot = rng.Below(leaves.size());
    const int32_t node = leaves[slot];
    leaves[slot] = leaves.back();
    leaves.pop_back();
    for (int32_t c = 0; c < 2; ++c) {
      const int32_t kid = static_cast<int32_t>(kids.size());
      kids[node].push_back(kid);
      leaves.push_back(kid);
      kids.emplace_back();
    }
  }
  const auto pick = [&] { return labels[rng.Below(labels.size())]; };
  tree::TreeBuilder b;
  b.Root(pick());
  std::function<void(int32_t, NodeId)> attach = [&](int32_t src, NodeId dst) {
    for (int32_t k : kids[src]) attach(k, b.Child(dst, pick()));
  };
  attach(0, 0);
  return b.Build();
}

// ---------------------------------------------------------------------------
// Ranked query automata (Definition 4.8, Example 4.9)
// ---------------------------------------------------------------------------

TEST(RankedQaTest, Example49TraceOnThreeNodeTree) {
  // The paper's run: c0 --down n0--> c1 --leaf n1--> c2 --leaf n2--> c3
  //                  --up n0--> c4; root ends in s0; query result empty.
  RankedQA qa = EvenAQAr({"a"});
  Tree t = tree::PaperExample49Tree();
  QaRunOptions opts;
  opts.trace = true;
  auto run = RunRankedQA(qa, t, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->accepted);
  EXPECT_TRUE(run->selected.empty());
  EXPECT_EQ(run->steps, 4);
  ASSERT_EQ(run->trace.size(), 4u);
  EXPECT_EQ(run->trace[0].kind, "down");
  EXPECT_EQ(run->trace[0].node, 0);
  EXPECT_EQ(run->trace[1].kind, "leaf");
  EXPECT_EQ(run->trace[2].kind, "leaf");
  EXPECT_EQ(run->trace[3].kind, "up");
  EXPECT_EQ(run->trace[3].node, 0);
}

TEST(RankedQaTest, EvenAMatchesDatalogReference) {
  // The QAr of Example 4.9 computes the Example 3.2 query on binary trees.
  RankedQA qa = EvenAQAr({"a", "b"});
  core::Program reference = core::EvenAProgram({"b"});
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    Tree t = RandomFullBinaryTree(
        rng, static_cast<int32_t>(rng.Below(20)), {"a", "b"});
    auto run = RunRankedQA(qa, t);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->accepted);
    auto ref = core::EvaluateOnTree(reference, t);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(run->selected, ref->Query()) << tree::ToDebugString(t);
  }
}

TEST(RankedQaTest, ValidationCatchesIllFormedAutomata) {
  RankedQA qa = EvenAQAr({"a"});
  qa.delta_down[{1, "a", 2}] = {0, 0};  // δ↓ on a U-pair
  EXPECT_FALSE(qa.Validate().ok());

  RankedQA qa2 = EvenAQAr({"a"});
  qa2.delta_down[{0, "a", 2}] = {0};  // arity mismatch
  EXPECT_FALSE(qa2.Validate().ok());

  RankedQA qa3 = EvenAQAr({"a"});
  qa3.final_states.push_back(99);
  EXPECT_FALSE(qa3.Validate().ok());
}

TEST(RankedQaTest, RejectsOverArityTrees) {
  RankedQA qa = EvenAQAr({"a"});
  Tree t = tree::PaperExample32Tree();  // arity 3 > K = 2
  EXPECT_FALSE(RunRankedQA(qa, t).ok());
}

TEST(RankedQaTest, StuckRunIsNotAccepting) {
  // A one-child node has no applicable δ↓ (only arity 2 is defined).
  RankedQA qa = EvenAQAr({"a"});
  Tree t = tree::ChainTree(2, "a");
  auto run = RunRankedQA(qa, t);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->accepted);
  EXPECT_TRUE(run->selected.empty());
}

// ---------------------------------------------------------------------------
// Example 4.21: the superpolynomial blow-up automaton
// ---------------------------------------------------------------------------

TEST(BlowupQaTest, AcceptsCompleteBinaryTrees) {
  for (int32_t alpha : {1, 2}) {
    RankedQA qa = BlowupQAr(alpha);
    for (int32_t depth : {0, 1, 2, 3}) {
      Tree t = tree::CompleteBinaryTree(depth, "a");
      auto run = RunRankedQA(qa, t);
      ASSERT_TRUE(run.ok()) << "alpha=" << alpha << " depth=" << depth;
      EXPECT_TRUE(run->accepted);
      // Selection is an anytime notion: during the exponentially many
      // passes, every node carries the selected state q_{1,β+1} at some
      // configuration, including the root.
      EXPECT_TRUE(std::binary_search(run->selected.begin(),
                                     run->selected.end(), 0));
    }
  }
}

TEST(BlowupQaTest, StepCountGrowsSuperlinearly) {
  // Θ(((n+1)/2)^(α+1)) with α = 1: quadrupling per depth level (vs. tree
  // size only doubling).
  RankedQA qa = BlowupQAr(1);
  std::vector<int64_t> steps;
  for (int32_t depth : {2, 3, 4, 5}) {
    Tree t = tree::CompleteBinaryTree(depth, "a");
    auto run = RunRankedQA(qa, t);
    ASSERT_TRUE(run.ok());
    steps.push_back(run->steps);
  }
  for (size_t i = 1; i < steps.size(); ++i) {
    double ratio = static_cast<double>(steps[i]) / steps[i - 1];
    EXPECT_GT(ratio, 3.0) << "depth step " << i;  // → 4 asymptotically
    EXPECT_LT(ratio, 5.0);
  }
}

TEST(BlowupQaTest, StepLimitIsEnforced) {
  RankedQA qa = BlowupQAr(2);
  Tree t = tree::CompleteBinaryTree(6, "a");
  QaRunOptions opts;
  opts.max_steps = 1000;
  auto run = RunRankedQA(qa, t, opts);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Theorem 4.11: QAr → monadic datalog
// ---------------------------------------------------------------------------

TEST(RankedTranslationTest, EvenAEquivalentToRunner) {
  RankedQA qa = EvenAQAr({"a", "b"});
  auto program = RankedQAToDatalog(qa);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(core::GroundableOverTree(*program));
  util::Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    Tree t = RandomFullBinaryTree(
        rng, static_cast<int32_t>(rng.Below(15)), {"a", "b"});
    auto run = RunRankedQA(qa, t);
    ASSERT_TRUE(run.ok());
    auto eval = core::EvaluateGrounded(*program, t);
    ASSERT_TRUE(eval.ok());
    EXPECT_EQ(eval->Query(), run->selected) << tree::ToDebugString(t);
  }
}

TEST(RankedTranslationTest, BlowupAutomatonMatchesRunner) {
  // The runner needs Θ(((n+1)/2)^(α+1)) steps; the translation evaluates
  // the same query via the grounded engine in linear time.
  RankedQA qa = BlowupQAr(1);
  auto program = RankedQAToDatalog(qa);
  ASSERT_TRUE(program.ok());
  for (int32_t depth : {1, 2, 3}) {
    Tree t = tree::CompleteBinaryTree(depth, "a");
    auto run = RunRankedQA(qa, t);
    ASSERT_TRUE(run.ok());
    auto eval = core::EvaluateGrounded(*program, t);
    ASSERT_TRUE(eval.ok());
    EXPECT_EQ(eval->Query(), run->selected) << "depth " << depth;
  }
}

TEST(RankedTranslationTest, EncodingSizeQuadraticInAutomaton) {
  // |P| = O(|A|²) — the complexity claim behind Example 4.21's O(β⁴·n).
  int64_t prev_atoms = 0;
  int64_t prev_size = 0;
  for (int32_t alpha : {1, 2}) {
    RankedQA qa = BlowupQAr(alpha);
    auto program = RankedQAToDatalog(qa);
    ASSERT_TRUE(program.ok());
    int64_t atoms = program->SizeInAtoms();
    int64_t size = qa.Size();
    if (prev_atoms > 0) {
      // |A| grows ~4x per alpha step; |P| must grow ~16x, not ~64x.
      double growth = static_cast<double>(atoms) / prev_atoms;
      double quad = std::pow(static_cast<double>(size) / prev_size, 2.0);
      EXPECT_LT(growth, quad * 4);
      EXPECT_GT(growth, quad / 4);
    }
    prev_atoms = atoms;
    prev_size = size;
  }
}

TEST(RankedTranslationTest, RejectsOnNonAcceptedTrees) {
  // Non-full binary trees make the run stuck -> nothing accepted/selected.
  RankedQA qa = EvenAQAr({"a"});
  auto program = RankedQAToDatalog(qa);
  ASSERT_TRUE(program.ok());
  Tree t = tree::ChainTree(3, "a");
  auto eval = core::EvaluateGrounded(*program, t);
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->Query().empty());
  EXPECT_TRUE(eval->Unary(program->preds().Find("accept")).empty());
}

// ---------------------------------------------------------------------------
// Unranked SQAu (Definition 4.12)
// ---------------------------------------------------------------------------

TEST(UnrankedQaTest, EvenAMatchesDatalogReferenceOnUnrankedTrees) {
  UnrankedQA qa = EvenASQAu({"a", "b"});
  core::Program reference = core::EvenAProgram({"b"});
  util::Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(40)),
                              {"a", "b"});
    auto run = RunUnrankedQA(qa, t);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->accepted);
    auto ref = core::EvaluateOnTree(reference, t);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(run->selected, ref->Query()) << tree::ToDebugString(t);
  }
}

TEST(UnrankedQaTest, DownWordDensityOne) {
  UnrankedQA qa = OddPositionSQAu({"a"});
  // (q1 q0)* ∪ (q1 q0)* q1: lengths 0..5 all have exactly one word.
  for (int32_t m = 1; m <= 5; ++m) {
    auto word = qa.DownWord(0, "a", m);
    ASSERT_TRUE(word.ok()) << m;
    ASSERT_EQ(static_cast<int32_t>(word->size()), m);
    for (int32_t i = 0; i < m; ++i) {
      EXPECT_EQ((*word)[i], i % 2 == 0 ? 2 : 1) << "position " << i;
    }
  }
}

TEST(UnrankedQaTest, DensityViolationDetected) {
  UnrankedQA qa = OddPositionSQAu({"a"});
  // Add a conflicting word of length 1.
  qa.delta_down[{0, "a"}].push_back(UVW{{1}, {}, {}});
  EXPECT_FALSE(qa.DownWord(0, "a", 1).ok());
  // Length 2 is unaffected.
  EXPECT_TRUE(qa.DownWord(0, "a", 2).ok());
}

TEST(UnrankedQaTest, OddPositionSelection) {
  UnrankedQA qa = OddPositionSQAu({"a"});
  for (int32_t m : {1, 2, 3, 4, 7}) {
    Tree t = tree::ChildrenWord("a", std::vector<std::string>(m, "a"));
    auto run = RunUnrankedQA(qa, t);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->accepted) << m;
    std::vector<tree::NodeId> expected;
    for (int32_t i = 1; i <= m; i += 2) expected.push_back(i);
    EXPECT_EQ(run->selected, expected) << "m=" << m;
  }
}

// Both automata validate their final states the same way: a final state
// outside [0, num_states) is a typed error, not a run that never accepts.
TEST(UnrankedQaTest, BothValidatesRejectAnOutOfRangeFinalState) {
  RankedQA ranked = EvenAQAr({"a"});
  ranked.final_states.push_back(ranked.num_states);
  EXPECT_EQ(ranked.Validate().code(), util::StatusCode::kInvalidArgument);

  UnrankedQA unranked = OddPositionSQAu({"a"});
  ASSERT_TRUE(unranked.Validate().ok());
  unranked.final_states.push_back(unranked.num_states);
  EXPECT_EQ(unranked.Validate().code(), util::StatusCode::kInvalidArgument);
  unranked.final_states.back() = -1;
  EXPECT_EQ(unranked.Validate().code(), util::StatusCode::kInvalidArgument);
}

TEST(UnrankedQaTest, UpDeterminismViolationDetected) {
  UnrankedQA qa = OddPositionSQAu({"a"});
  // A second up language accepting the same words.
  PairNfa clone = qa.delta_up[3];
  qa.num_states += 1;
  qa.delta_up[4] = clone;
  for (const std::string& l : {std::string("a")}) {
    qa.up_partition[{4, l}] = true;
  }
  Tree t = tree::ChildrenWord("a", {"a", "a"});
  auto run = RunUnrankedQA(qa, t);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(UnrankedQaTest, StayTransitionRemarksChildren) {
  UnrankedQA qa = StayOddPositionSQAu({"a", "b"});
  util::Rng rng(99);
  for (int32_t m : {1, 2, 3, 5, 8}) {
    std::vector<std::string> labels;
    for (int32_t i = 0; i < m; ++i) {
      labels.push_back(rng.Chance(1, 2) ? "a" : "b");
    }
    Tree t = tree::ChildrenWord("a", labels);
    QaRunOptions opts;
    opts.trace = true;
    auto run = RunUnrankedQA(qa, t, opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->accepted) << m;
    std::vector<tree::NodeId> expected;
    for (int32_t i = 1; i <= m; i += 2) expected.push_back(i);
    EXPECT_EQ(run->selected, expected) << "m=" << m;
    bool has_stay = false;
    for (const auto& step : run->trace) has_stay |= (step.kind == "stay");
    EXPECT_TRUE(has_stay);
  }
}

TEST(UnrankedQaTest, StayHappensAtMostOncePerNode) {
  UnrankedQA qa = StayOddPositionSQAu({"a"});
  Tree t = tree::ChildrenWord("a", {"a", "a", "a"});
  QaRunOptions opts;
  opts.trace = true;
  auto run = RunUnrankedQA(qa, t, opts);
  ASSERT_TRUE(run.ok());
  int32_t stays = 0;
  for (const auto& step : run->trace) {
    if (step.kind == "stay") ++stays;
  }
  EXPECT_EQ(stays, 1);
}

// The two runners share one driver of the cut semantics; these runs pin its
// exact behaviour: step counts, transition order and selections.
std::string TraceString(const QaRunResult& run) {
  std::string out;
  for (const QaTraceStep& step : run.trace) {
    if (!out.empty()) out += ' ';
    out += step.kind + std::to_string(step.node);
  }
  return out;
}

TEST(BlowupQaTest, StepCountsArePinned) {
  struct Case {
    int32_t alpha, depth;
    int64_t steps;
  };
  for (const Case& c : {Case{2, 0, 1}, Case{2, 1, 16}, Case{2, 2, 136},
                        Case{2, 3, 1096}, Case{3, 0, 1}, Case{3, 1, 32},
                        Case{3, 2, 528}, Case{3, 3, 8464}}) {
    auto run = RunRankedQA(BlowupQAr(c.alpha),
                           tree::CompleteBinaryTree(c.depth, "a"));
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->accepted);
    EXPECT_EQ(run->steps, c.steps) << "alpha=" << c.alpha
                                   << " depth=" << c.depth;
  }
}

TEST(UnrankedQaTest, EvenATracesArePinned) {
  QaRunOptions opts;
  opts.trace = true;
  auto fig1 = RunUnrankedQA(EvenASQAu({"a", "b"}), tree::PaperFigure1Tree(),
                            opts);
  ASSERT_TRUE(fig1.ok());
  EXPECT_TRUE(fig1->accepted);
  EXPECT_EQ(fig1->steps, 8);
  EXPECT_EQ(TraceString(*fig1),
            "down0 leaf1 down2 leaf5 leaf3 leaf4 up2 up0");
  EXPECT_EQ(fig1->selected, (std::vector<NodeId>{0}));

  // b(a(b, a), b, a(a, b, b)), ids in creation order.
  tree::TreeBuilder b;
  const NodeId root = b.Root("b");
  const NodeId x = b.Child(root, "a");
  b.Child(x, "b");
  b.Child(x, "a");
  b.Child(root, "b");
  const NodeId y = b.Child(root, "a");
  b.Child(y, "a");
  b.Child(y, "b");
  b.Child(y, "b");
  auto mixed = RunUnrankedQA(EvenASQAu({"a", "b"}), b.Build(), opts);
  ASSERT_TRUE(mixed.ok());
  EXPECT_TRUE(mixed->accepted);
  EXPECT_EQ(mixed->steps, 12);
  EXPECT_EQ(TraceString(*mixed),
            "down0 down1 leaf4 down5 leaf2 leaf3 leaf6 leaf7 leaf8 up1 up5 "
            "up0");
  EXPECT_EQ(mixed->selected, (std::vector<NodeId>{0, 1, 2, 4, 5, 7, 8}));
}

TEST(UnrankedQaTest, StayTraceIsPinned) {
  QaRunOptions opts;
  opts.trace = true;
  auto run = RunUnrankedQA(StayOddPositionSQAu({"a", "b"}),
                           tree::ChildrenWord("a", {"a", "b", "a", "b", "b"}),
                           opts);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->accepted);
  EXPECT_EQ(run->steps, 3);
  EXPECT_EQ(TraceString(*run), "down0 stay0 up0");
  EXPECT_EQ(run->selected, (std::vector<NodeId>{1, 3, 5}));
}

// ---------------------------------------------------------------------------
// Theorem 4.14: SQAu → monadic datalog (Figure 2 machinery)
// ---------------------------------------------------------------------------

void ExpectSqauTranslationMatchesRunner(const UnrankedQA& qa, const Tree& t) {
  auto program = UnrankedQAToDatalog(qa);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto run = RunUnrankedQA(qa, t);
  ASSERT_TRUE(run.ok());
  // Grounded: the translation's lastchild atoms lower to child ∧ lastsibling.
  EXPECT_TRUE(core::GroundableOverTree(*program));
  auto eval = core::EvaluateOnTree(*program, t);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  EXPECT_EQ(eval->Query(), run->selected) << tree::ToDebugString(t);
  const core::TreeDatabase db(t);
  auto ref = core::EvaluateNaiveReference(*program, db);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->Query(), run->selected) << tree::ToDebugString(t);
  bool accept_derived =
      !eval->Unary(program->preds().Find("accept")).empty();
  EXPECT_EQ(accept_derived, run->accepted) << tree::ToDebugString(t);
}

TEST(UnrankedTranslationTest, EvenAOnRandomTrees) {
  UnrankedQA qa = EvenASQAu({"a", "b"});
  util::Rng rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(25)),
                              {"a", "b"});
    ExpectSqauTranslationMatchesRunner(qa, t);
  }
}

TEST(UnrankedTranslationTest, Figure2OddPositions) {
  // Example 4.15 / Figure 2: a node with four children; the first
  // subexpression (q1 q0)* matches, the second (q1 q0)* q1 does not.
  UnrankedQA qa = OddPositionSQAu({"a"});
  Tree t = tree::ChildrenWord("a", {"a", "a", "a", "a"});
  auto program = UnrankedQAToDatalog(qa);
  ASSERT_TRUE(program.ok());
  auto eval = core::EvaluateOnTree(*program, t);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->Query(), (std::vector<int32_t>{1, 3}));
  // succ of subexpression 0 derived, succ of subexpression 1 not.
  core::PredId succ0 = program->preds().Find("d0_a_0_s");
  core::PredId succ1 = program->preds().Find("d0_a_1_s");
  ASSERT_GE(succ0, 0);
  ASSERT_GE(succ1, 0);
  EXPECT_EQ(eval->Unary(succ0).size(), 4u);  // spread over all children
  EXPECT_TRUE(eval->Unary(succ1).empty());
}

TEST(UnrankedTranslationTest, OddPositionsOnWideTrees) {
  UnrankedQA qa = OddPositionSQAu({"a", "b"});
  util::Rng rng(11);
  for (int32_t m : {1, 2, 3, 6, 9}) {
    std::vector<std::string> labels;
    for (int32_t i = 0; i < m; ++i) {
      labels.push_back(rng.Chance(1, 2) ? "a" : "b");
    }
    ExpectSqauTranslationMatchesRunner(qa, tree::ChildrenWord("a", labels));
  }
}

TEST(UnrankedTranslationTest, StayAutomaton) {
  UnrankedQA qa = StayOddPositionSQAu({"a", "b"});
  util::Rng rng(13);
  for (int32_t m : {1, 2, 4, 7}) {
    std::vector<std::string> labels;
    for (int32_t i = 0; i < m; ++i) {
      labels.push_back(rng.Chance(1, 2) ? "a" : "b");
    }
    ExpectSqauTranslationMatchesRunner(qa, tree::ChildrenWord("a", labels));
  }
}

TEST(UnrankedTranslationTest, ComposesWithTmnfPipeline) {
  // SQAu → datalog (extended schema) → TMNF (τ_ur) → grounded evaluation.
  UnrankedQA qa = OddPositionSQAu({"a"});
  auto program = UnrankedQAToDatalog(qa);
  ASSERT_TRUE(program.ok());
  auto tmnf = tmnf::ToTmnf(*program);
  ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString();
  EXPECT_TRUE(core::GroundableOverTree(*tmnf));
  Tree t = tree::ChildrenWord("a", {"a", "a", "a", "a", "a"});
  auto eval = core::EvaluateGrounded(*tmnf, t);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->Query(), (std::vector<int32_t>{1, 3, 5}));
}

}  // namespace
}  // namespace mdatalog::qa
