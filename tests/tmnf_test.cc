#include <gtest/gtest.h>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/core/tree_schema.h"
#include "src/core/validate.h"
#include "src/tmnf/acyclic.h"
#include "src/tmnf/normal_form.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "tests/support/edb.h"
#include "tests/support/fixtures.h"
#include "tests/support/program_generator.h"
#include "tests/support/reference_eval.h"
#include "tests/support/trees.h"

namespace mdatalog::tmnf {
namespace {

using core::Program;
using tree::Tree;

// ---------------------------------------------------------------------------
// Definition 5.1: the TMNF checker
// ---------------------------------------------------------------------------

Program MustParse(const std::string& text) {
  auto p = core::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(*p);
}

TEST(TmnfCheckTest, AcceptsAllThreeForms) {
  Program p = MustParse(
      "p(X) :- leaf(X).\n"                       // form (1), EDB
      "q(X) :- p(X).\n"                          // form (1), IDB
      "r(X) :- p(X0), firstchild(X0, X).\n"      // form (2), B = R
      "s(X) :- p(X0), nextsibling(X, X0).\n"     // form (2), B = R^-1
      "t(X) :- p(X), label_a(X).\n"              // form (3)
      "u(X) :- root(X), lastsibling(X).\n");     // form (3), EDB × EDB
  EXPECT_TRUE(IsTmnf(p));
}

TEST(TmnfCheckTest, RejectsNonTmnfShapes) {
  EXPECT_FALSE(IsTmnf(MustParse("p(X) :- q(X), r(X), s(X).")));  // 3 atoms
  EXPECT_FALSE(IsTmnf(MustParse("p(X) :- child(X0, X), q(X0)."))) <<
      "child is not a τ_ur relation";
  EXPECT_FALSE(IsTmnf(MustParse("p(X) :- firstchild(X0, X).")));  // no unary
  EXPECT_FALSE(
      IsTmnf(MustParse("p(X) :- q(Y), firstchild(Y, Z), r(X).")));
  EXPECT_FALSE(IsTmnf(MustParse("p(X) :- q(X0), firstchild(X0, Y).")));
  EXPECT_FALSE(IsTmnf(MustParse("p(X) :- firstsibling(X).")));  // not τ_ur
}

TEST(TmnfCheckTest, RankedModeUsesChildK) {
  Program p = MustParse("p(X) :- q(X0), child2(X0, X). q(X) :- leaf(X).");
  EXPECT_TRUE(IsTmnf(p, {.ranked = true}));
  EXPECT_FALSE(IsTmnf(p, {.ranked = false}));
  Program ur = MustParse("p(X) :- q(X0), firstchild(X0, X). q(X) :- leaf(X).");
  EXPECT_FALSE(IsTmnf(ur, {.ranked = true}));
}

// ---------------------------------------------------------------------------
// Acyclicity (query multigraph, Section 5)
// ---------------------------------------------------------------------------

TEST(AcyclicRuleTest, ForestsAndCycles) {
  Program p = MustParse(
      "a(X) :- firstchild(X, Y), nextsibling(Y, Z).\n"
      "b(X) :- firstchild(X, Y), nextsibling(X, Y).\n"   // parallel edge
      "c(X) :- nextsibling(X, X).\n"                     // self-loop
      "d(X) :- leaf(X), root(Y).\n");                    // no binary: forest
  EXPECT_TRUE(IsAcyclicRule(p.rules()[0]));
  EXPECT_FALSE(IsAcyclicRule(p.rules()[1]));
  EXPECT_FALSE(IsAcyclicRule(p.rules()[2]));
  EXPECT_TRUE(IsAcyclicRule(p.rules()[3]));
}

// ---------------------------------------------------------------------------
// Lemma 5.5 chase (unranked)
// ---------------------------------------------------------------------------

TEST(ChaseUnrankedTest, MergesSiblingParents) {
  // x1 and x3 are parents of siblings -> merged (Figure 3 situation).
  Program p = MustParse(
      "q(X1) :- firstchild(X1, X5), child(X3, X6), nextsibling(X5, X6).");
  auto res = MakeRuleAcyclicUnranked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_TRUE(res->satisfiable);
  EXPECT_GE(res->merged_vars, 1);
  // child is gone; the result uses only firstchild/nextsibling.
  for (const core::Atom& a : res->rule.body) {
    EXPECT_NE(p.preds().Name(a.pred), "child");
  }
  EXPECT_TRUE(IsAcyclicRule(res->rule));
  // x1 ≡ x3: only 3 variables remain (x1, x5, x6).
  EXPECT_EQ(res->rule.num_vars(), 3);
}

TEST(ChaseUnrankedTest, AnchorsChildComponentWithFreshFirstchild) {
  // Lemma 5.5 step 5, "otherwise" case: no firstchild atom at all.
  Program p = MustParse("q(X) :- child(X, Y), nextsibling(Y, Z).");
  auto res = MakeRuleAcyclicUnranked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->satisfiable);
  bool has_fc = false, has_nstc = false;
  for (const core::Atom& a : res->rule.body) {
    if (p.preds().Name(a.pred) == "firstchild") has_fc = true;
    if (p.preds().Name(a.pred) == "nextsibling_tc") has_nstc = true;
    EXPECT_NE(p.preds().Name(a.pred), "child");
  }
  EXPECT_TRUE(has_fc);
  EXPECT_TRUE(has_nstc);
  EXPECT_EQ(res->rule.num_vars(), 4);  // fresh anchor y0 added
}

TEST(ChaseUnrankedTest, ChildImpliedByFirstchildAnchorInComponent) {
  // The component already contains the firstchild target: child atoms are
  // simply dropped, no nextsibling* needed.
  Program p = MustParse(
      "q(X) :- firstchild(X, Y), nextsibling(Y, Z), child(X, Z).");
  auto res = MakeRuleAcyclicUnranked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->satisfiable);
  EXPECT_EQ(res->rule.body.size(), 2u);  // firstchild + nextsibling
  EXPECT_EQ(res->rule.num_vars(), 3);
}

TEST(ChaseUnrankedTest, UnsatDetection) {
  const char* unsat_rules[] = {
      // A first child cannot have a previous sibling.
      "q(X) :- firstchild(X, Y), nextsibling(Z, Y).",
      // Sibling cycle.
      "q(X) :- nextsibling(X, Y), nextsibling(Y, X).",
      // Depth cycle through child.
      "q(X) :- child(X, Y), child(Y, X).",
      // Child of itself.
      "q(X) :- child(X, X).",
      // Sibling of itself (after forced merge: Y≡X via two firstchild FDs).
      "q(X) :- firstchild(X, Y), firstchild(X, Z), nextsibling(Y, Z).",
      // Position conflict: Z before the first child Y.
      "q(X) :- firstchild(X, Y), child(X, Z), nextsibling(Z, Y).",
      // Mixed depth conflict: Y both child and sibling of X.
      "q(X) :- firstchild(X, Y), nextsibling(X, Y).",
  };
  for (const char* text : unsat_rules) {
    Program p = MustParse(text);
    auto res = MakeRuleAcyclicUnranked(&p, p.rules()[0]);
    ASSERT_TRUE(res.ok()) << text << ": " << res.status().ToString();
    EXPECT_FALSE(res->satisfiable) << text;
  }
}

TEST(ChaseUnrankedTest, SemanticsPreserved) {
  util::Rng rng(404);
  const char* rules[] = {
      "q(X) :- firstchild(X, Y), child(X, Z), nextsibling(Y, Z), label_a(Z).",
      "q(X) :- child(X, Y), label_b(Y), lastsibling(Y).",
      "q(X) :- child(Y, X), leaf(X), root(Y).",
      "q(X) :- firstchild(X1, X5), child(X3, X6), nextsibling(X5, X6), "
      "leaf(X6), label_a(X1), root(X3), label_a(X)., q2(X) :- q(X).",
  };
  for (const char* text : rules) {
    std::string fixed(text);
    // The last entry sneaks in a second rule with ", " — normalize.
    for (size_t pos; (pos = fixed.find("., ")) != std::string::npos;) {
      fixed.replace(pos, 3, ".\n");
    }
    Program original = MustParse(fixed);
    Program chased_prog = original;  // copy preds
    std::vector<core::Rule> chased_rules;
    for (const core::Rule& r : original.rules()) {
      auto res = MakeRuleAcyclicUnranked(&chased_prog, r);
      ASSERT_TRUE(res.ok()) << fixed;
      if (res->satisfiable) chased_rules.push_back(res->rule);
    }
    chased_prog.mutable_rules() = chased_rules;
    for (int trial = 0; trial < 10; ++trial) {
      Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(25)),
                                {"a", "b"});
      auto lhs = core::EvaluateOnTree(original, t);
      // The chase introduces nextsibling_tc, which does not ground: the
      // reference oracle evaluates it.
      const core::TreeDatabase db(t);
      auto rhs = core::EvaluateNaiveReference(chased_prog, db);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      core::PredId q = original.preds().Find("q");
      EXPECT_EQ(lhs->Unary(q), rhs->Unary(q)) << fixed;
    }
  }
}

// ---------------------------------------------------------------------------
// Lemma 5.4 chase (ranked)
// ---------------------------------------------------------------------------

TEST(ChaseRankedTest, MergesViaFunctionalDependencies) {
  Program p = MustParse("q(X) :- child1(X, Y), child1(X, Z), label_a(Z).");
  auto res = MakeRuleAcyclicRanked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->satisfiable);
  EXPECT_EQ(res->rule.num_vars(), 2);  // Y ≡ Z
  EXPECT_EQ(res->rule.body.size(), 2u);
}

TEST(ChaseRankedTest, CrossArityTargetIsUnsat) {
  // Y cannot be both the 1st and the 2nd child.
  Program p = MustParse("q(X) :- child1(X, Y), child2(Z, Y).");
  auto res = MakeRuleAcyclicRanked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->satisfiable);
}

TEST(ChaseRankedTest, DepthCycleIsUnsat) {
  Program p = MustParse("q(X) :- child1(X, Y), child2(Y, X).");
  auto res = MakeRuleAcyclicRanked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->satisfiable);
}

TEST(ChaseRankedTest, MergesParents) {
  Program p = MustParse("q(X) :- child2(X, Y), child2(Z, Y), label_a(Z).");
  auto res = MakeRuleAcyclicRanked(&p, p.rules()[0]);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->satisfiable);
  EXPECT_EQ(res->rule.num_vars(), 2);  // X ≡ Z
}

// ---------------------------------------------------------------------------
// Theorem 5.2: the full pipeline
// ---------------------------------------------------------------------------

void ExpectTmnfEquivalent(const Program& input, util::Rng& rng,
                          int32_t trials = 8, int32_t max_nodes = 30) {
  TmnfStats stats;
  auto tmnf = ToTmnf(input, &stats);
  ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString() << "\n"
                         << core::ToString(input);
  EXPECT_TRUE(IsTmnf(*tmnf)) << core::ToString(*tmnf);
  // The TMNF output is over τ_ur, hence groundable (Theorem 4.2 engine).
  EXPECT_TRUE(core::GroundableOverTree(*tmnf));
  std::vector<bool> intensional = input.IntensionalMask();
  for (int trial = 0; trial < trials; ++trial) {
    Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(max_nodes)), {"a", "b", "c"});
    auto lhs = core::EvaluateOnTree(input, t);
    auto rhs = core::EvaluateGrounded(*tmnf, t);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rhs.ok()) << rhs.status().ToString();
    for (core::PredId q = 0; q < input.preds().size(); ++q) {
      if (!intensional[q] || input.preds().Arity(q) != 1) continue;
      // Predicate ids carry over: ToTmnf starts from a copy of the input.
      EXPECT_EQ(lhs->Unary(q), rhs->Unary(q))
          << "pred " << input.preds().Name(q) << "\ninput:\n"
          << core::ToString(input);
    }
  }
}

TEST(TmnfPipelineTest, PaperProgramsRoundTrip) {
  util::Rng rng(77);
  ExpectTmnfEquivalent(core::EvenAProgram({"b", "c"}), rng);
  ExpectTmnfEquivalent(core::HasAncestorProgram("b"), rng);
  ExpectTmnfEquivalent(core::EvenDepthLeafProgram(), rng);
  ExpectTmnfEquivalent(core::DomProgram(), rng);
}

TEST(TmnfPipelineTest, ExtendedSignatureProgramsRoundTrip) {
  util::Rng rng(1234);
  const char* programs[] = {
      "q(X) :- child(X, Y), label_a(Y).",
      "q(X) :- lastchild(X, Y), leaf(Y).",
      "q(X) :- child(X, Y), child(Y, Z), label_b(Z).",
      "q(X) :- firstsibling(X), label_a(X).",
      "q(X) :- child(Y, X), q2(Y).\nq2(X) :- root(X).\nq2(X) :- q(X).",
      // Disconnected rule: q holds of leaves if any node is labeled c.
      "q(X) :- leaf(X), label_c(Y).",
      // Deeply mixed.
      "q(X) :- child(X, Y), nextsibling(Y, Z), child(X, W), "
      "nextsibling(Z, W), label_a(W).",
  };
  for (const char* text : programs) {
    ExpectTmnfEquivalent(MustParse(text), rng);
  }
}

TEST(TmnfPipelineTest, RandomProgramsRoundTrip) {
  util::Rng rng(20240611);
  for (int i = 0; i < 12; ++i) {
    core::ProgramGenOptions opts;
    opts.num_rules = 2 + static_cast<int32_t>(rng.Below(5));
    opts.num_idb_preds = 2 + static_cast<int32_t>(rng.Below(3));
    opts.allow_extended = (i % 2 == 0);
    Program p = core::RandomMonadicProgram(rng, opts);
    ExpectTmnfEquivalent(p, rng, /*trials=*/4, /*max_nodes=*/20);
  }
}

TEST(TmnfPipelineTest, UnsatRulesAreDropped) {
  Program p = MustParse(
      "q(X) :- child(X, X).\n"
      "q(X) :- root(X).\n");
  TmnfStats stats;
  auto tmnf = ToTmnf(p, &stats);
  ASSERT_TRUE(tmnf.ok());
  EXPECT_EQ(stats.rules_dropped_unsat, 1);
  util::Rng rng(1);
  Tree t = tree::RandomTree(rng, 10, {"a"});
  auto r = core::EvaluateOnTree(*tmnf, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Unary(p.preds().Find("q")), (std::vector<int32_t>{0}));
}

/// Every body atom of `tmnf` names either a predicate that heads a rule of
/// `tmnf` or a tree-schema predicate (τ_rk when `ranked`): no rule reads an
/// empty predicate. Also fails when a rule reads a `reads_none` predicate.
void ExpectNoRuleReadsAnEmptyPredicate(const Program& tmnf, bool ranked,
                                       const std::string& reads_none) {
  std::vector<bool> has_rule(tmnf.preds().size(), false);
  for (const core::Rule& r : tmnf.rules()) has_rule[r.head.pred] = true;
  for (const core::Rule& r : tmnf.rules()) {
    for (const core::Atom& a : r.body) {
      const std::string& name = tmnf.preds().Name(a.pred);
      EXPECT_NE(name, reads_none) << core::ToString(tmnf);
      if (has_rule[a.pred]) continue;
      const int32_t arity = tmnf.preds().Arity(a.pred);
      const bool schema =
          ranked ? (arity == 2 && core::ChildKIndex(name) >= 1) ||
                       (arity == 1 && (name == "root" || name == "leaf" ||
                                       name == "lastsibling" ||
                                       !core::LabelFromPredName(name).empty()))
                 : core::IsTreePredicate(name, arity);
      EXPECT_TRUE(schema) << name << " is read but has no rule\n"
                          << core::ToString(tmnf);
    }
  }
}

/// True iff some rule of `program` reads the predicate `name`.
bool SomeRuleReads(const Program& program, const std::string& name) {
  for (const core::Rule& r : program.rules()) {
    for (const core::Atom& a : r.body) {
      if (program.preds().Name(a.pred) == name) return true;
    }
  }
  return false;
}

TEST(TmnfPipelineTest, RulesOverEmptiedPredicatesArePruned) {
  // p's only rule is unsatisfiable, so the chase leaves p without rules. The
  // second q rule reads p at Y next to a label test, which decomposition
  // turns into a generated `__` conjunction over p: both it and the q rule
  // reading it must go. The schema atoms of the other rules stay.
  Program input = MustParse(
      "p(X) :- child(X, X).\n"
      "q(X) :- firstchild(X, Y), label_a(Y).\n"
      "q(X) :- firstchild(X, Y), p(Y), label_b(Y).\n"
      "r(X) :- nextsibling(X, Y), q(Y).\n");
  TmnfStats stats;
  auto tmnf = ToTmnf(input, &stats);
  ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString();
  EXPECT_EQ(stats.rules_dropped_unsat, 1);
  ExpectNoRuleReadsAnEmptyPredicate(*tmnf, /*ranked=*/false, "p");
  EXPECT_TRUE(SomeRuleReads(*tmnf, "firstchild")) << core::ToString(*tmnf);
  EXPECT_TRUE(SomeRuleReads(*tmnf, "nextsibling")) << core::ToString(*tmnf);
  EXPECT_TRUE(SomeRuleReads(*tmnf, "label_a")) << core::ToString(*tmnf);
  EXPECT_FALSE(SomeRuleReads(*tmnf, "label_b")) << core::ToString(*tmnf);

  // A rule-emptied predicate named like a tree relation would pass for that
  // relation after the chase (q would select every leaf; the input selects
  // nothing), so heads must not name tree-schema predicates.
  auto shadowed = ToTmnf(MustParse("leaf(X) :- child(X, X).\n"
                                   "q(X) :- leaf(X).\n"));
  EXPECT_EQ(shadowed.status().code(), util::StatusCode::kInvalidArgument)
      << shadowed.status().ToString();

  util::Rng rng(2718);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(25)),
                              {"a", "b"});
    const core::TreeDatabase db(t);
    auto oracle = core::EvaluateNaiveReference(input, db);
    auto got = core::EvaluateGrounded(*tmnf, t);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (const char* name : {"p", "q", "r"}) {
      const core::PredId pred = input.preds().Find(name);
      EXPECT_EQ(got->Unary(pred), oracle->Unary(pred)) << name;
    }
  }
}

TEST(TmnfPipelineRankedTest, RulesOverEmptiedPredicatesArePruned) {
  // Y cannot be both the 1st and the 2nd child, so p is left without rules;
  // the rules over child2 and label_a stay.
  Program input = MustParse(
      "p(X) :- child1(X, Y), child2(Z, Y).\n"
      "q(X) :- child2(X, Y), label_a(Y).\n"
      "q(X) :- child2(X, Y), p(Y), label_b(Y).\n"
      "r(X) :- child1(Y, X), q(Y).\n");
  TmnfStats stats;
  auto tmnf = ToTmnfRanked(input, &stats);
  ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString();
  EXPECT_EQ(stats.rules_dropped_unsat, 1);
  ExpectNoRuleReadsAnEmptyPredicate(*tmnf, /*ranked=*/true, "p");
  EXPECT_TRUE(SomeRuleReads(*tmnf, "child2")) << core::ToString(*tmnf);
  EXPECT_TRUE(SomeRuleReads(*tmnf, "label_a")) << core::ToString(*tmnf);
  EXPECT_FALSE(SomeRuleReads(*tmnf, "label_b")) << core::ToString(*tmnf);

  // firstsibling is outside τ_rk but a τ_ur relation; as a head it is
  // rejected in ranked mode too.
  auto shadowed = ToTmnfRanked(MustParse("firstsibling(X) :- child1(X, X).\n"
                                         "q(X) :- firstsibling(X).\n"));
  EXPECT_EQ(shadowed.status().code(), util::StatusCode::kInvalidArgument)
      << shadowed.status().ToString();

  util::Rng rng(3141);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomBoundedArityTree(
        rng, 1 + static_cast<int32_t>(rng.Below(25)), {"a", "b"}, 2);
    const core::TreeDatabase db(t);
    auto oracle = core::EvaluateNaiveReference(input, db);
    auto got = core::EvaluateOnTree(*tmnf, t);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (const char* name : {"p", "q", "r"}) {
      const core::PredId pred = input.preds().Find(name);
      EXPECT_EQ(got->Unary(pred), oracle->Unary(pred)) << name;
    }
  }
}

TEST(TmnfPipelineTest, OutputSizeIsLinear) {
  // Output rules should be within a constant factor of input atoms.
  util::Rng rng(55);
  for (int32_t m : {4, 8, 16, 32}) {
    core::ProgramGenOptions opts;
    opts.num_rules = m;
    opts.allow_extended = true;
    Program p = core::RandomMonadicProgram(rng, opts);
    TmnfStats stats;
    auto tmnf = ToTmnf(p, &stats);
    ASSERT_TRUE(tmnf.ok());
    // The __any connector contributes ~90 rules per disconnected component;
    // the bound is generous but linear in input size.
    EXPECT_LE(stats.output_rules, 120 * p.SizeInAtoms());
  }
}

TEST(TmnfPipelineTest, QueryPredicateCarriesOver) {
  Program p = MustParse("q(X) :- child(X, Y), leaf(Y).");
  p.set_query_pred(p.preds().Find("q"));
  auto tmnf = ToTmnf(p);
  ASSERT_TRUE(tmnf.ok());
  EXPECT_EQ(tmnf->query_pred(), p.query_pred());
  Tree t = tree::PaperFigure1Tree();
  auto r = core::EvaluateOnTree(*tmnf, t);
  ASSERT_TRUE(r.ok());
  // Nodes with a leaf child: root (children n2, n6 are leaves) and n3.
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 2}));
}

TEST(TmnfPipelineTest, RejectsBadInput) {
  EXPECT_FALSE(ToTmnf(MustParse("q(X) :- edge(X, Y).")).ok());
  EXPECT_FALSE(ToTmnf(MustParse("q(X) :- q2(X, X). q2(X, Y) :- "
                                "firstchild(X, Y).")).ok());  // non-monadic
  EXPECT_FALSE(ToTmnf(MustParse("b :- leaf(X). q(X) :- leaf(X), b.")).ok());
  EXPECT_FALSE(ToTmnf(MustParse("q(3) :- root(0).")).ok());
  EXPECT_FALSE(ToTmnf(MustParse("__q(X) :- leaf(X).")).ok());  // reserved
}

TEST(TmnfPipelineRankedTest, RoundTripOnBoundedArityTrees) {
  util::Rng rng(88);
  const char* programs[] = {
      "q(X) :- child1(X, Y), label_a(Y).",
      "q(X) :- child2(X, Y), leaf(Y), label_b(X).",
      "q(X) :- child1(X, Y), child2(X, Z), label_a(Y), label_a(Z).",
      "q(X) :- leaf(X), label_c(Y).",  // disconnected
      "q(X) :- child1(Y, X), q2(Y).\nq2(X) :- root(X).",
  };
  for (const char* text : programs) {
    Program input = MustParse(text);
    TmnfStats stats;
    auto tmnf = ToTmnfRanked(input, &stats);
    ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString() << "\n" << text;
    EXPECT_TRUE(IsTmnf(*tmnf, {.ranked = true})) << core::ToString(*tmnf);
    for (int trial = 0; trial < 6; ++trial) {
      Tree t = tree::RandomBoundedArityTree(
          rng, 1 + static_cast<int32_t>(rng.Below(25)), {"a", "b", "c"}, 2);
      auto lhs = core::EvaluateOnTree(input, t);
      auto rhs = core::EvaluateOnTree(*tmnf, t);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      core::PredId q = input.preds().Find("q");
      EXPECT_EQ(lhs->Unary(q), rhs->Unary(q)) << text;
    }
  }
}

}  // namespace
}  // namespace mdatalog::tmnf
