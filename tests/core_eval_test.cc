#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "tests/support/horn.h"
#include "tests/support/program_generator.h"
#include "tests/support/reference_eval.h"

namespace mdatalog::core {
namespace {

using tree::Tree;
using tree::TreeBuilder;

Tree SmallTree() {
  // a(b, c(d, e), f)  — ids 0..5
  TreeBuilder b;
  auto r = b.Root("a");
  b.Child(r, "b");
  auto c = b.Child(r, "c");
  b.Child(c, "d");
  b.Child(c, "e");
  b.Child(r, "f");
  return b.Build();
}

// ---------------------------------------------------------------------------
// TreeDatabase: the τ_ur relational view
// ---------------------------------------------------------------------------

TEST(TreeDatabaseTest, UnaryRelations) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  EXPECT_EQ(db.Get("root", 1)->unary_tuples(), (std::vector<int32_t>{0}));
  EXPECT_EQ(db.Get("leaf", 1)->unary_tuples(),
            (std::vector<int32_t>{1, 3, 4, 5}));
  EXPECT_EQ(db.Get("lastsibling", 1)->unary_tuples(),
            (std::vector<int32_t>{4, 5}));
  EXPECT_EQ(db.Get("firstsibling", 1)->unary_tuples(),
            (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(db.Get("label_c", 1)->unary_tuples(), (std::vector<int32_t>{2}));
  // Unknown label: empty but valid relation (Remark 2.2).
  EXPECT_EQ(db.Get("label_zzz", 1)->size(), 0);
}

TEST(TreeDatabaseTest, BinaryRelations) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  using P = std::vector<std::pair<int32_t, int32_t>>;
  EXPECT_EQ(db.Get("firstchild", 2)->binary_tuples(),
            (P{{0, 1}, {2, 3}}));
  EXPECT_EQ(db.Get("nextsibling", 2)->binary_tuples(),
            (P{{1, 2}, {2, 5}, {3, 4}}));
  EXPECT_EQ(db.Get("child", 2)->binary_tuples(),
            (P{{0, 1}, {0, 2}, {0, 5}, {2, 3}, {2, 4}}));
  EXPECT_EQ(db.Get("lastchild", 2)->binary_tuples(), (P{{0, 5}, {2, 4}}));
  EXPECT_EQ(db.Get("child1", 2)->binary_tuples(), (P{{0, 1}, {2, 3}}));
  EXPECT_EQ(db.Get("child2", 2)->binary_tuples(), (P{{0, 2}, {2, 4}}));
  EXPECT_EQ(db.Get("child3", 2)->binary_tuples(), (P{{0, 5}}));
}

TEST(TreeDatabaseTest, NextSiblingTransitiveClosureIsReflexive) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  const Relation* tc = db.Get("nextsibling_tc", 2);
  // Reflexive pairs for all 6 nodes + (1,2),(1,5),(2,5),(3,4).
  EXPECT_EQ(tc->size(), 6 + 4);
  EXPECT_TRUE(tc->ContainsBinary(0, 0));
  EXPECT_TRUE(tc->ContainsBinary(1, 5));
  EXPECT_FALSE(tc->ContainsBinary(5, 1));
}

TEST(TreeDatabaseTest, RejectsNonTreePredicates) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  EXPECT_EQ(db.Get("edge", 2), nullptr);
  EXPECT_EQ(db.Get("root", 2), nullptr);
  EXPECT_EQ(db.Get("firstchild", 1), nullptr);
}

TEST(TreeDatabaseTest, IndexedAccessPaths) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  const Relation* child = db.Get("child", 2);
  EXPECT_EQ(child->Forward(0), (std::vector<int32_t>{1, 2, 5}));
  EXPECT_EQ(child->Backward(4), (std::vector<int32_t>{2}));
  EXPECT_TRUE(child->ContainsBinary(0, 5));
  EXPECT_FALSE(child->ContainsBinary(0, 4));
}

TEST(ExplicitDatabaseTest, StoresArbitraryFacts) {
  ExplicitDatabase db(4);
  db.AddFact("p");
  db.AddFact("u", 2);
  db.AddFact("e", 0, 1);
  db.AddFact("e", 1, 2);
  EXPECT_TRUE(db.Get("p", 0)->nullary_true());
  EXPECT_TRUE(db.Get("u", 1)->ContainsUnary(2));
  EXPECT_EQ(db.Get("e", 2)->Forward(1), (std::vector<int32_t>{2}));
  EXPECT_EQ(db.Get("missing", 1), nullptr);
}

// ---------------------------------------------------------------------------
// LTUR Horn solver (Proposition 3.5)
// ---------------------------------------------------------------------------

TEST(HornTest, FactsAndChains) {
  HornInstance inst;
  inst.num_atoms = 4;
  inst.clauses = {{0, {}}, {1, {0}}, {2, {1}}, {3, {2}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_EQ(model, (std::vector<bool>{true, true, true, true}));
}

TEST(HornTest, CyclesAreNotSelfSupporting) {
  HornInstance inst;
  inst.num_atoms = 2;
  inst.clauses = {{0, {1}}, {1, {0}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_EQ(model, (std::vector<bool>{false, false}));
}

TEST(HornTest, ConjunctionNeedsAllBodyAtoms) {
  HornInstance inst;
  inst.num_atoms = 4;
  inst.clauses = {{0, {}}, {3, {0, 1}}, {1, {}}, {2, {0, 3}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_TRUE(model[3]);
  EXPECT_TRUE(model[2]);
}

TEST(HornTest, DuplicateBodyAtomsCountedPerOccurrence) {
  HornInstance inst;
  inst.num_atoms = 2;
  inst.clauses = {{0, {}}, {1, {0, 0}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_TRUE(model[1]);
}

TEST(HornTest, UnreachableStaysFalse) {
  HornInstance inst;
  inst.num_atoms = 3;
  inst.clauses = {{0, {}}, {1, {2}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_EQ(model, (std::vector<bool>{true, false, false}));
}

// ---------------------------------------------------------------------------
// Example 3.2: the paper's fixpoint trace, reproduced exactly
// ---------------------------------------------------------------------------

TEST(Example32Test, FixpointTraceMatchesPaper) {
  // Tree: root n1 with children n2, n3, n4 (paper ids) = our ids 0..3.
  Tree t = tree::PaperExample32Tree();
  Program p = EvenAProgram();
  TreeDatabase db(t);
  EvalOptions opts;
  opts.trace = true;
  auto result = EvaluateNaive(p, db, opts);
  ASSERT_TRUE(result.ok());

  auto pred = [&](const std::string& name) { return p.preds().Find(name); };
  auto atoms_of_stage = [&](size_t i) {
    std::vector<std::pair<std::string, int32_t>> out;
    for (const GroundAtom& g : result->stages()[i].new_atoms) {
      out.emplace_back(p.preds().Name(g.pred), g.args[0]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  using A = std::vector<std::pair<std::string, int32_t>>;

  // T1 = {B0(n2), B0(n3), B0(n4)}
  ASSERT_EQ(result->stages().size(), 7u);
  EXPECT_EQ(atoms_of_stage(0), (A{{"b0", 1}, {"b0", 2}, {"b0", 3}}));
  // T2 adds C1 on the three leaves.
  EXPECT_EQ(atoms_of_stage(1), (A{{"c1", 1}, {"c1", 2}, {"c1", 3}}));
  // T3 = {R1(n4)}
  EXPECT_EQ(atoms_of_stage(2), (A{{"r1", 3}}));
  // T4 = {R0(n3)}
  EXPECT_EQ(atoms_of_stage(3), (A{{"r0", 2}}));
  // T5 = {R1(n2)}
  EXPECT_EQ(atoms_of_stage(4), (A{{"r1", 1}}));
  // T6 = {B1(n1)}
  EXPECT_EQ(atoms_of_stage(5), (A{{"b1", 0}}));
  // T7 = {C0(n1)}
  EXPECT_EQ(atoms_of_stage(6), (A{{"c0", 0}}));

  // Query C0 evaluates to {n1}.
  EXPECT_EQ(result->Query(), (std::vector<int32_t>{0}));
  // 7 productive iterations + 1 fixpoint check.
  EXPECT_EQ(result->num_iterations(), 8);
  (void)pred;
}

TEST(Example32Test, AllEnginesAgree) {
  Tree t = tree::PaperExample32Tree();
  Program p = EvenAProgram();
  auto naive = EvaluateOnTree(p, t, Engine::kNaive);
  auto semi = EvaluateOnTree(p, t, Engine::kSemiNaive);
  auto grounded = EvaluateOnTree(p, t, Engine::kGrounded);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE(grounded.ok());
  EXPECT_EQ(naive->Query(), (std::vector<int32_t>{0}));
  EXPECT_EQ(semi->Query(), (std::vector<int32_t>{0}));
  EXPECT_EQ(grounded->Query(), (std::vector<int32_t>{0}));
}

TEST(Example32Test, EvenAOnVariousTrees) {
  Program p = EvenAProgram();
  // Single node labeled a: subtree has 1 'a' -> odd -> not selected.
  {
    TreeBuilder b;
    b.Root("a");
    auto r = EvaluateOnTree(p, b.Build());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->Query().empty());
  }
  // Chain of 4 a's: node at depth d roots a subtree with 4-d a's.
  {
    Tree t = tree::ChainTree(4, "a");
    auto r = EvaluateOnTree(p, t);
    ASSERT_TRUE(r.ok());
    // Subtree sizes: 4,3,2,1 -> even at ids 0 and 2.
    EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 2}));
  }
}

TEST(Example32Test, EvenACountsOnlyLabelA) {
  Program p = EvenAProgram({"b"});
  // Tree a(b, a): root subtree has two a's -> selected; b-leaf has zero
  // a's -> even -> selected; a-leaf has one -> not.
  Tree t = tree::ChildrenWord("a", {"b", "a"});
  auto r = EvaluateOnTree(p, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Reference query programs
// ---------------------------------------------------------------------------

TEST(ExampleProgramsTest, HasAncestor) {
  // a(b, c(d, e), f): descendants of label c = {d, e}.
  Tree t = SmallTree();
  auto r = EvaluateOnTree(HasAncestorProgram("c"), t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{3, 4}));
  auto ra = EvaluateOnTree(HasAncestorProgram("a"), t);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->Query(), (std::vector<int32_t>{1, 2, 3, 4, 5}));
}

TEST(ExampleProgramsTest, EvenDepthLeaves) {
  Tree t = SmallTree();  // leaves: 1 (d1), 3 (d2), 4 (d2), 5 (d1)
  auto r = EvaluateOnTree(EvenDepthLeafProgram(), t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{3, 4}));
}

TEST(ExampleProgramsTest, ChainProgramDerivesRootOnly) {
  Tree t = SmallTree();
  Program p = ChainProgram(10);
  auto r = EvaluateOnTree(p, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0}));
}

TEST(ExampleProgramsTest, DomProgramSelectsAllNodes) {
  Tree t = SmallTree();
  auto r = EvaluateOnTree(DomProgram(), t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Engine cross-validation (naive == semi-naive == grounded)
// ---------------------------------------------------------------------------

void ExpectSameResults(const Program& p, const Tree& t) {
  TreeDatabase db(t);
  auto naive = EvaluateNaive(p, db);
  auto semi = EvaluateSemiNaive(p, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  std::vector<bool> intensional = p.IntensionalMask();
  for (PredId q = 0; q < p.preds().size(); ++q) {
    if (!intensional[q]) continue;
    if (p.preds().Arity(q) == 1) {
      EXPECT_EQ(naive->Unary(q), semi->Unary(q))
          << "pred " << p.preds().Name(q) << "\n" << ToString(p);
    } else if (p.preds().Arity(q) == 0) {
      EXPECT_EQ(naive->NullaryTrue(q), semi->NullaryTrue(q));
    }
  }
  if (GroundableOverTree(p)) {
    auto grounded = EvaluateGrounded(p, t);
    ASSERT_TRUE(grounded.ok());
    for (PredId q = 0; q < p.preds().size(); ++q) {
      if (!intensional[q]) continue;
      if (p.preds().Arity(q) == 1) {
        EXPECT_EQ(naive->Unary(q), grounded->Unary(q))
            << "pred " << p.preds().Name(q) << "\n" << ToString(p);
      } else if (p.preds().Arity(q) == 0) {
        EXPECT_EQ(naive->NullaryTrue(q), grounded->NullaryTrue(q));
      }
    }
  }
}

TEST(EngineEquivalenceTest, RandomProgramsOnRandomTrees) {
  util::Rng rng(20240610);
  for (int trial = 0; trial < 40; ++trial) {
    ProgramGenOptions opts;
    opts.num_rules = 3 + static_cast<int32_t>(rng.Below(8));
    opts.num_idb_preds = 2 + static_cast<int32_t>(rng.Below(4));
    Program p = RandomMonadicProgram(rng, opts);
    ASSERT_TRUE(GroundableOverTree(p)) << ToString(p);
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(60)),
                              {"a", "b", "c"});
    ExpectSameResults(p, t);
  }
}

TEST(EngineEquivalenceTest, ExtendedSignatureProgramsSemiVsNaive) {
  util::Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    ProgramGenOptions opts;
    opts.allow_extended = true;
    opts.num_rules = 3 + static_cast<int32_t>(rng.Below(6));
    Program p = RandomMonadicProgram(rng, opts);
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(40)),
                              {"a", "b"});
    ExpectSameResults(p, t);
  }
}

TEST(EngineEquivalenceTest, PaperProgramsOnRandomTrees) {
  util::Rng rng(7);
  std::vector<Program> programs;
  programs.push_back(EvenAProgram({"b", "c"}));
  programs.push_back(HasAncestorProgram("b"));
  programs.push_back(EvenDepthLeafProgram());
  programs.push_back(DomProgram());
  for (int trial = 0; trial < 15; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(100)),
                              {"a", "b", "c"});
    for (const Program& p : programs) ExpectSameResults(p, t);
  }
}

// ---------------------------------------------------------------------------
// Grounded engine specifics (Theorem 4.2)
// ---------------------------------------------------------------------------

TEST(GroundedTest, RejectsExtendedSignature) {
  auto p = ParseProgram("q(X) :- lastchild(X, Y), leaf(Y).");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(GroundableOverTree(*p));
  EXPECT_FALSE(EvaluateGrounded(*p, SmallTree()).ok());
  // The facade falls back to semi-naive.
  auto r = EvaluateOnTree(*p, SmallTree(), Engine::kAuto);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Unary(p->preds().Find("q")), (std::vector<int32_t>{0, 2}));
}

TEST(GroundedTest, AdmitsChildUpwardAndDownward) {
  // child is functional upward and enumerated downward: q needs some leaf
  // child (downward from X), r the parent of a leaf labeled e (upward).
  auto p = ParseProgram(
      "q(X) :- child(X, Y), leaf(Y).\n"
      "r(X) :- child(X, Y), label_e(Y).\n"
      "s(Y) :- r(X), child(X, Y).");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(GroundableOverTree(*p));
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->Unary(p->preds().Find("q")), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(r->Unary(p->preds().Find("r")), (std::vector<int32_t>{2}));
  EXPECT_EQ(r->Unary(p->preds().Find("s")), (std::vector<int32_t>{3, 4}));
}

TEST(GroundedTest, DisconnectedRuleSplitsViaBridge) {
  // q(X) holds for all leaves X iff some node is labeled c.
  auto p = ParseProgramWithQuery("q(X) :- leaf(X), label_c(Y).", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{1, 3, 4, 5}));
  // Without any c-labeled node the bridge stays false.
  auto r2 = EvaluateGrounded(*p, tree::PaperExample32Tree());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->Query().empty());
}

TEST(GroundedTest, PropositionalHeads) {
  auto p = ParseProgramWithQuery(
      "found :- label_e(X). q(X) :- leaf(X), found.", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{1, 3, 4, 5}));
  EXPECT_TRUE(r->NullaryTrue(p->preds().Find("found")));
}

TEST(GroundedTest, ConstantsInRules) {
  // Node 2 of SmallTree is labeled c.
  auto p = ParseProgramWithQuery("q(2) :- root(0). r(X) :- q(X).", "q");
  ASSERT_TRUE(p.ok());
  auto res = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Query(), (std::vector<int32_t>{2}));
  EXPECT_EQ(res->Unary(p->preds().Find("r")), (std::vector<int32_t>{2}));
}

TEST(GroundedTest, ChildKBackwardRequiresExactPosition) {
  auto p = ParseProgramWithQuery("q(X) :- child2(X, Y), label_e(Y).", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  // e (id 4) is the 2nd child of c (id 2).
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{2}));
}

TEST(GroundedTest, StatsAreLinear) {
  Program p = EvenAProgram();
  Tree t = tree::CompleteBinaryTree(6, "a");  // 127 nodes
  GroundStats stats;
  auto r = EvaluateGrounded(p, t, &stats);
  ASSERT_TRUE(r.ok());
  // At most one ground clause per (rule, node).
  EXPECT_LE(stats.num_clauses,
            static_cast<int64_t>(p.rules().size()) * t.size());
  EXPECT_GT(stats.num_clauses, 0);
}

// Theorem 4.2 as a work count rather than a time: every ground rule instance
// fires at most once, so the fired instances stay within one per (rule,
// node) as the tree grows and as the program grows.
TEST(GroundedTest, WorkIsLinearInTreeAndProgram) {
  const Program even_a = EvenAProgram({"b", "c"});
  const int64_t even_a_rules = static_cast<int64_t>(even_a.rules().size());
  for (int32_t log_n = 10; log_n <= 16; ++log_n) {
    util::Rng rng(42);
    Tree t = tree::RandomTree(rng, 1 << log_n, {"a", "b", "c"});
    GroundStats stats;
    auto grounded = EvaluateGrounded(even_a, t, &stats);
    ASSERT_TRUE(grounded.ok());
    TreeDatabase db(t);
    auto reference = EvaluateSemiNaive(even_a, db);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(grounded->num_derived(), reference->num_derived()) << t.size();
    EXPECT_LE(stats.num_clauses, even_a_rules * t.size()) << t.size();
    EXPECT_GE(stats.num_clauses, grounded->num_derived()) << t.size();
  }

  util::Rng rng(42);
  const Tree t = tree::RandomTree(rng, 4096, {"a", "b", "c"});
  TreeDatabase db(t);
  for (int32_t m = 8; m <= 512; m *= 2) {
    const Program chain = ChainProgram(m);
    const int64_t rules = static_cast<int64_t>(chain.rules().size());
    GroundStats stats;
    auto grounded = EvaluateGrounded(chain, t, &stats);
    ASSERT_TRUE(grounded.ok());
    auto reference = EvaluateSemiNaive(chain, db);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(grounded->num_derived(), reference->num_derived()) << m;
    EXPECT_LE(stats.num_clauses, rules * t.size()) << m;
  }
}

// One GroundArena serves alternating programs and trees of different sizes;
// stale queue, binding or label state from the previous evaluation must not
// leak into the next. The programs include bridges, nullary IDB predicates
// and constants, so every shared-body path of the evaluator runs.
TEST(GroundedTest, ArenaReuseAcrossProgramsAndTrees) {
  util::Rng rng(20261017);
  GroundArena arena;
  for (int trial = 0; trial < 60; ++trial) {
    ProgramGenOptions opts;
    opts.num_rules = 2 + static_cast<int32_t>(rng.Below(10));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(5));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(6));
    opts.allow_nonlocal = trial % 4 != 3;
    Program p = RandomMonadicProgram(rng, opts);
    ASSERT_TRUE(GroundableOverTree(p)) << ToString(p);
    auto plan = GroundPlan::Compile(p);
    ASSERT_TRUE(plan.ok());
    const int32_t size = trial % 2 == 0
                             ? 1 + static_cast<int32_t>(rng.Below(12))
                             : 40 + static_cast<int32_t>(rng.Below(200));
    Tree t = tree::RandomTree(rng, size, {"a", "b"});
    TreeDatabase db(t);
    auto reference = EvaluateNaiveReference(p, db);
    ASSERT_TRUE(reference.ok());
    auto grounded = EvaluateGrounded(*plan, t, &arena);
    ASSERT_TRUE(grounded.ok());
    for (PredId q = 0; q < p.preds().size(); ++q) {
      EXPECT_EQ(grounded->NullaryTrue(q), reference->NullaryTrue(q))
          << p.preds().Name(q) << "\n" << ToString(p);
      EXPECT_EQ(grounded->Unary(q), reference->Unary(q))
          << p.preds().Name(q) << "\n" << ToString(p);
    }
    EXPECT_EQ(grounded->num_derived(), reference->num_derived())
        << ToString(p);
  }
}

/// Theorem 4.2's proof taken literally: grounds `p` over `t` by brute force
/// — every rule under every assignment of its variables to nodes whose
/// extensional body holds becomes one clause — and solves the ground program
/// with SolveHorn (Proposition 3.5). Atom ids: q·(|dom|+1) for a nullary q,
/// q·(|dom|+1) + 1 + v for q(v).
std::vector<bool> SolveExplicitGrounding(const Program& p, const Tree& t) {
  const int32_t n = t.size();
  const std::vector<bool> intensional = p.IntensionalMask();
  TreeDatabase db(t);
  auto atom_id = [n](PredId q, int32_t v) { return q * (n + 1) + 1 + v; };
  HornInstance inst;
  inst.num_atoms = p.preds().size() * (n + 1);
  for (const Rule& r : p.rules()) {
    std::vector<int32_t> binding(r.num_vars(), 0);
    auto value = [&](const Term& term) {
      return term.is_var() ? binding[term.value] : term.value;
    };
    // The ground atom id of an IDB atom; false if its constant lies outside
    // the domain (such an atom never holds).
    auto idb_atom = [&](const Atom& a, int32_t* id) {
      const int32_t v = a.args.empty() ? -1 : value(a.args[0]);
      if (v >= n) return false;
      *id = atom_id(a.pred, v);
      return true;
    };
    auto edb_holds = [&](const Atom& a) {
      std::vector<int32_t> args;
      for (const Term& term : a.args) args.push_back(value(term));
      for (int32_t v : args) {
        if (v >= n) return false;
      }
      const Relation* rel = db.Get(p.preds().Name(a.pred),
                                   static_cast<int32_t>(args.size()));
      if (rel == nullptr) return false;
      return args.size() == 1 ? rel->ContainsUnary(args[0])
                              : rel->ContainsBinary(args[0], args[1]);
    };
    while (true) {
      HornClause clause;
      bool holds = idb_atom(r.head, &clause.head);
      for (const Atom& a : r.body) {
        if (!holds) break;
        int32_t id;
        if (!intensional[a.pred]) {
          holds = edb_holds(a);
        } else if ((holds = idb_atom(a, &id))) {
          clause.body.push_back(id);
        }
      }
      if (holds) inst.clauses.push_back(std::move(clause));
      // Next assignment (odometer over dom^vars).
      int32_t k = 0;
      while (k < r.num_vars() && ++binding[k] == n) binding[k++] = 0;
      if (k == r.num_vars()) break;
    }
  }
  return SolveHorn(inst);
}

// The grounded evaluator (implicit clauses, built when a body atom is
// derived) against the explicit ground program solved by SolveHorn, on
// every tree shape up to a few nodes: paper programs, the bridge /
// propositional / constant cases, and random programs with all three.
TEST(GroundedTest, MatchesExplicitGroundingSolvedByHorn) {
  std::vector<Program> programs;
  programs.push_back(EvenAProgram());
  programs.push_back(HasAncestorProgram("a"));
  programs.push_back(EvenDepthLeafProgram());
  for (const char* text : {
           "q(X) :- leaf(X), label_c(Y).",
           "found :- label_c(X). q(X) :- leaf(X), found.",
           "q(2) :- root(0). r(X) :- q(X). q(X) :- r(Y), nextsibling(Y, X).",
           "p(Y) :- label_b(Y). q(X) :- child2(X, Y), p(Y). "
           "r(X) :- child3(X, Y), leaf(Y).",
           "q(0). q(Y) :- q(X), firstchild(X, Y). q(Y) :- q(X), "
           "nextsibling(X, Y).",
       }) {
    auto parsed = ParseProgramWithQuery(text, "q");
    ASSERT_TRUE(parsed.ok()) << text;
    programs.push_back(*std::move(parsed));
  }
  util::Rng rng(3502);
  for (int i = 0; i < 40; ++i) {
    ProgramGenOptions opts;
    opts.num_rules = 2 + static_cast<int32_t>(rng.Below(6));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(4));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(4));
    opts.allow_nonlocal = i % 4 != 3;
    programs.push_back(RandomMonadicProgram(rng, opts));
  }
  for (const Program& p : programs) {
    ASSERT_TRUE(GroundableOverTree(p)) << ToString(p);
    const std::vector<bool> intensional = p.IntensionalMask();
    std::vector<Tree> trees;
    trees.push_back(tree::ChildrenWord("a", {"c", "a", "b", "b", "a"}));
    for (int32_t size = 1; size <= 7; ++size) {
      trees.push_back(tree::RandomTree(rng, size, {"a", "b", "c"}));
    }
    for (const Tree& t : trees) {
      const int32_t size = t.size();
      auto grounded = EvaluateGrounded(p, t);
      ASSERT_TRUE(grounded.ok()) << ToString(p);
      const std::vector<bool> model = SolveExplicitGrounding(p, t);
      int64_t num_true = 0;
      for (PredId q = 0; q < p.preds().size(); ++q) {
        if (!intensional[q]) continue;
        const int32_t base = q * (size + 1);
        num_true += model[base];
        EXPECT_EQ(grounded->NullaryTrue(q), static_cast<bool>(model[base]))
            << p.preds().Name(q) << "\n" << ToString(p);
        if (p.preds().Arity(q) != 1) continue;
        std::vector<int32_t> expected;
        for (int32_t v = 0; v < size; ++v) {
          if (model[base + 1 + v]) expected.push_back(v);
        }
        num_true += static_cast<int64_t>(expected.size());
        EXPECT_EQ(grounded->Unary(q), expected)
            << p.preds().Name(q) << "\n" << ToString(p);
      }
      EXPECT_EQ(grounded->num_derived(), num_true) << ToString(p);
    }
  }
}

/// Grounded vs the compiled semi-naive engine on the full IDB of `p`.
void ExpectGroundedMatchesSemiNaive(const Program& p, const Tree& t) {
  auto grounded = EvaluateGrounded(p, t);
  ASSERT_TRUE(grounded.ok());
  TreeDatabase db(t);
  auto semi = EvaluateSemiNaive(p, db);
  ASSERT_TRUE(semi.ok());
  for (PredId q = 0; q < p.preds().size(); ++q) {
    EXPECT_EQ(grounded->Unary(q), semi->Unary(q)) << p.preds().Name(q);
    EXPECT_EQ(grounded->NullaryTrue(q), semi->NullaryTrue(q));
  }
  EXPECT_EQ(grounded->num_derived(), semi->num_derived());
}

std::vector<Program> AdversarialShapePrograms() {
  std::vector<Program> programs;
  programs.push_back(EvenAProgram({"b"}));
  programs.push_back(HasAncestorProgram("a"));
  programs.push_back(EvenDepthLeafProgram());
  programs.push_back(DomProgram());
  return programs;
}

TEST(GroundedTest, DeepChainMatchesSemiNaive) {
  const Tree t = tree::ChainTree(100000, "a");
  for (const Program& p : AdversarialShapePrograms()) {
    ExpectGroundedMatchesSemiNaive(p, t);
  }
}

TEST(GroundedTest, WideFanOutMatchesSemiNaive) {
  std::vector<std::string> children(100000, "a");
  for (size_t i = 0; i < children.size(); i += 3) children[i] = "b";
  const Tree t = tree::ChildrenWord("a", children);
  for (const Program& p : AdversarialShapePrograms()) {
    ExpectGroundedMatchesSemiNaive(p, t);
  }
}

TEST(GroundedTest, SelfLoopBinaryAtomIsUnsatisfiable) {
  auto p = ParseProgramWithQuery("q(X) :- nextsibling(X, X).", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Query().empty());
}

TEST(EvalOptionsTest, MaxDerivedGuard) {
  Program p = DomProgram();
  Tree t = tree::ChainTree(50, "a");
  TreeDatabase db(t);
  EvalOptions opts;
  opts.max_derived = 10;
  auto r = EvaluateSemiNaive(p, db, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(EvalTest, BinaryIdbSupportedByFixpointEngines) {
  // Non-monadic baseline: transitive closure of nextsibling.
  auto p = ParseProgram(
      "tc(X, Y) :- nextsibling(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), nextsibling(Y, Z).\n");
  ASSERT_TRUE(p.ok());
  Tree t = SmallTree();  // TreeDatabase references the tree; keep it alive.
  TreeDatabase db(t);
  auto r = EvaluateSemiNaive(*p, db);
  ASSERT_TRUE(r.ok());
  using P = std::vector<std::pair<int32_t, int32_t>>;
  EXPECT_EQ(r->Binary(p->preds().Find("tc")),
            (P{{1, 2}, {1, 5}, {2, 5}, {3, 4}}));
}

TEST(EvalTest, ExplicitDatabaseEvaluation) {
  // Reachability over an explicit graph (arbitrary finite structure).
  auto p = ParseProgramWithQuery(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n",
      "reach");
  ASSERT_TRUE(p.ok());
  ExplicitDatabase db(5);
  db.AddFact("start", 0);
  db.AddFact("edge", 0, 1);
  db.AddFact("edge", 1, 2);
  db.AddFact("edge", 3, 4);
  auto r = EvaluateNaive(*p, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace mdatalog::core
