// Cross-engine equivalence property test: on random monadic programs over
// random trees, the grounded (Theorem 4.2) engine and the independent naive
// reference oracle (reference_eval.h) must compute identical fixpoints, and
// their derivation counters must agree (num_derived is the size of the IDB
// part of T^ω_P regardless of engine).

#include <gtest/gtest.h>

#include "src/core/ast.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "tests/support/program_generator.h"
#include "tests/support/reference_eval.h"
#include "tests/support/trees.h"

namespace {

using namespace mdatalog;

TEST(EngineEquivalenceTest, AllEnginesAgreeOnRandomPrograms) {
  util::Rng rng(20260729);
  constexpr int kTrials = 50;
  int grounded_runs = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 1 + static_cast<int32_t>(rng.Below(12));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(6));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(6));
    opts.allow_extended = rng.Chance(1, 2);
    core::Program p = core::RandomMonadicProgram(rng, opts);
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(60)), {"a", "b"});
    core::TreeDatabase db(t);
    auto ref = core::EvaluateNaiveReference(p, db);
    ASSERT_TRUE(ref.ok()) << core::ToString(p);

    // Every generated program grounds: child and lastchild (lowered to
    // child ∧ lastsibling) included.
    if (!core::GroundableOverTree(p)) continue;
    ++grounded_runs;
    auto grounded = core::EvaluateGrounded(p, t);
    ASSERT_TRUE(grounded.ok()) << core::ToString(p);
    EXPECT_EQ(grounded->Query(), ref->Query()) << core::ToString(p);

    // The whole IDB must match, not just the query predicate.
    for (core::PredId q = 0; q < p.preds().size(); ++q) {
      EXPECT_EQ(grounded->NullaryTrue(q), ref->NullaryTrue(q));
      if (p.preds().Arity(q) != 1) continue;
      EXPECT_EQ(grounded->Unary(q), ref->Unary(q))
          << p.preds().Name(q) << "\n" << core::ToString(p);
    }

    // num_derived counts the unique atoms of the fixpoint's IDB part.
    EXPECT_EQ(grounded->num_derived(), ref->num_derived())
        << core::ToString(p);
  }
  // Every trial must exercise the Theorem 4.2 path.
  EXPECT_EQ(grounded_runs, kTrials);
}

// The random generator emits only unary IDB, so the oracle's nullary and
// binary stores get a directed check here: binary transitive closure plus a
// nullary bridge, against the fixpoint computed from the tree directly. The
// grounded engine refuses the binary IDB.
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
    auto ref = core::EvaluateNaiveReference(*p, db);
    ASSERT_TRUE(ref.ok());
    // tc(x, y): y is a later sibling of x; found: some b has a previous
    // sibling; hit: every leaf, if found.
    std::vector<std::pair<int32_t, int32_t>> want_tc;
    bool want_found = false;
    std::vector<int32_t> want_hit;
    for (tree::NodeId n = 0; n < t.size(); ++n) {
      for (tree::NodeId s = t.next_sibling(n); s != tree::kNoNode;
           s = t.next_sibling(s)) {
        want_tc.emplace_back(n, s);
        if (t.label_name(s) == "b") want_found = true;
      }
    }
    for (tree::NodeId n = 0; want_found && n < t.size(); ++n) {
      if (t.IsLeaf(n)) want_hit.push_back(n);
    }
    const core::PredId tc = p->preds().Find("tc");
    const core::PredId found = p->preds().Find("found");
    const core::PredId hit = p->preds().Find("hit");
    EXPECT_EQ(ref->Binary(tc), want_tc);
    EXPECT_EQ(ref->NullaryTrue(found), want_found);
    EXPECT_EQ(ref->Unary(hit), want_hit);
    EXPECT_EQ(ref->num_derived(),
              static_cast<int64_t>(want_tc.size() + want_found +
                                   want_hit.size()));
    EXPECT_EQ(core::EvaluateOnTree(*p, t).status().code(),
              util::StatusCode::kFailedPrecondition);
  }
}

// Heads with out-of-domain constants are not derivable — and every engine,
// including the reference oracle, must agree (eval.h contract).
TEST(EngineEquivalenceTest, OutOfDomainHeadConstantsAreNotDerivable) {
  auto p = core::ParseProgramWithQuery("p(7) :- root(X).", "p");
  ASSERT_TRUE(p.ok());
  tree::Tree t = tree::ChainTree(3, "a");
  core::TreeDatabase db(t);
  auto ref = core::EvaluateNaiveReference(*p, db);
  auto grounded = core::EvaluateGrounded(*p, t);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(grounded.ok());
  EXPECT_TRUE(ref->Query().empty());
  EXPECT_TRUE(grounded->Query().empty());
  EXPECT_EQ(ref->num_derived(), 0);
  EXPECT_EQ(grounded->num_derived(), 0);
}

}  // namespace
