// Cross-engine equivalence property test: on random monadic programs over
// random trees, the naive, semi-naive and grounded (Theorem 4.2) engines —
// and the independent naive reference oracle (reference_eval.h) — must
// compute identical fixpoints, and their derivation counters must agree
// (num_derived is the size of the IDB part of T^ω_P regardless of engine).

#include <gtest/gtest.h>

#include "src/core/ast.h"
#include "src/core/eval.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "tests/support/program_generator.h"
#include "tests/support/reference_eval.h"

namespace {

using namespace mdatalog;

TEST(EngineEquivalenceTest, AllEnginesAgreeOnRandomPrograms) {
  util::Rng rng(20260729);
  int grounded_runs = 0;
  for (int trial = 0; trial < 50; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 1 + static_cast<int32_t>(rng.Below(12));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(6));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(6));
    opts.allow_extended = rng.Chance(1, 2);
    core::Program p = core::RandomMonadicProgram(rng, opts);
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(60)), {"a", "b"});
    core::TreeDatabase db(t);

    auto naive = core::EvaluateNaive(p, db);
    auto semi = core::EvaluateSemiNaive(p, db);
    auto ref = core::EvaluateNaiveReference(p, db);
    ASSERT_TRUE(naive.ok()) << core::ToString(p);
    ASSERT_TRUE(semi.ok()) << core::ToString(p);
    ASSERT_TRUE(ref.ok()) << core::ToString(p);

    EXPECT_EQ(naive->Query(), semi->Query()) << core::ToString(p);
    EXPECT_EQ(naive->Query(), ref->Query()) << core::ToString(p);

    // The whole IDB must match, not just the query predicate. The generator
    // only emits unary IDB, but compare every arity's accessors anyway so a
    // future generator extension is covered automatically.
    for (core::PredId q = 0; q < p.preds().size(); ++q) {
      EXPECT_EQ(naive->NullaryTrue(q), semi->NullaryTrue(q));
      EXPECT_EQ(naive->NullaryTrue(q), ref->NullaryTrue(q));
      EXPECT_EQ(naive->Binary(q), semi->Binary(q));
      EXPECT_EQ(naive->Binary(q), ref->Binary(q));
      if (p.preds().Arity(q) != 1) continue;
      EXPECT_EQ(naive->Unary(q), semi->Unary(q))
          << p.preds().Name(q) << "\n" << core::ToString(p);
      EXPECT_EQ(naive->Unary(q), ref->Unary(q))
          << p.preds().Name(q) << "\n" << core::ToString(p);
    }

    // num_derived counts the unique atoms of the fixpoint's IDB part.
    EXPECT_EQ(naive->num_derived(), semi->num_derived()) << core::ToString(p);
    EXPECT_EQ(naive->num_derived(), ref->num_derived()) << core::ToString(p);

    if (core::GroundableOverTree(p)) {
      ++grounded_runs;
      auto grounded = core::EvaluateGrounded(p, t);
      ASSERT_TRUE(grounded.ok()) << core::ToString(p);
      EXPECT_EQ(naive->Query(), grounded->Query()) << core::ToString(p);
      for (core::PredId q = 0; q < p.preds().size(); ++q) {
        if (p.preds().Arity(q) != 1) continue;
        EXPECT_EQ(naive->Unary(q), grounded->Unary(q))
            << p.preds().Name(q) << "\n" << core::ToString(p);
      }
      EXPECT_EQ(naive->num_derived(), grounded->num_derived())
          << core::ToString(p);
    }
  }
  // The sweep must actually exercise the Theorem 4.2 path.
  EXPECT_GT(grounded_runs, 5);
}

// The random generator emits only unary IDB, so the dense nullary/binary
// stores and their deltas get a directed cross-engine check here: binary
// transitive closure plus a nullary bridge, naive vs semi-naive vs the
// naive reference oracle.
TEST(EngineEquivalenceTest, BinaryAndNullaryIdbAgreeAcrossEngines) {
  auto p = core::ParseProgram(
      "tc(X, Y) :- nextsibling(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), nextsibling(Y, Z).\n"
      "found :- tc(X, Y), label_b(Y).\n"
      "hit(X) :- leaf(X), found.\n");
  ASSERT_TRUE(p.ok());
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(40)), {"a", "b"});
    core::TreeDatabase db(t);
    auto naive = core::EvaluateNaive(*p, db);
    auto semi = core::EvaluateSemiNaive(*p, db);
    auto ref = core::EvaluateNaiveReference(*p, db);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(semi.ok());
    ASSERT_TRUE(ref.ok());
    const core::PredId tc = p->preds().Find("tc");
    const core::PredId found = p->preds().Find("found");
    const core::PredId hit = p->preds().Find("hit");
    EXPECT_EQ(naive->Binary(tc), semi->Binary(tc));
    EXPECT_EQ(naive->Binary(tc), ref->Binary(tc));
    EXPECT_EQ(naive->NullaryTrue(found), semi->NullaryTrue(found));
    EXPECT_EQ(naive->NullaryTrue(found), ref->NullaryTrue(found));
    EXPECT_EQ(naive->Unary(hit), semi->Unary(hit));
    EXPECT_EQ(naive->Unary(hit), ref->Unary(hit));
    EXPECT_EQ(naive->num_derived(), semi->num_derived());
    EXPECT_EQ(naive->num_derived(), ref->num_derived());
  }
}

// Heads with out-of-domain constants are not derivable — and every engine,
// including the reference oracle, must agree (eval.h contract).
TEST(EngineEquivalenceTest, OutOfDomainHeadConstantsAreNotDerivable) {
  auto p = core::ParseProgramWithQuery("p(7) :- root(X).", "p");
  ASSERT_TRUE(p.ok());
  tree::Tree t = tree::ChainTree(3, "a");
  core::TreeDatabase db(t);
  auto naive = core::EvaluateNaive(*p, db);
  auto semi = core::EvaluateSemiNaive(*p, db);
  auto ref = core::EvaluateNaiveReference(*p, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(naive->Query().empty());
  EXPECT_TRUE(semi->Query().empty());
  EXPECT_TRUE(ref->Query().empty());
  EXPECT_EQ(naive->num_derived(), 0);
  EXPECT_EQ(ref->num_derived(), 0);
}

}  // namespace
