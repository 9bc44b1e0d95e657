// Tests for the static-analysis subsystem (src/analysis/): SAT-backed
// bounded containment/equivalence, extraction-preserving minimization, and
// canonical program/wrapper keys.
//
// The heavy property tests cross-check the subsystem against ground truth
// the repo already trusts: brute-force tree enumeration plus the production
// evaluators. Equivalent() must agree with exhaustive small-tree search;
// Minimize() must leave every root extent byte-identical on every tree and
// engine.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/canonical.h"
#include "src/analysis/containment.h"
#include "src/analysis/minimize.h"
#include "src/analysis/sat_solver.h"
#include "src/core/ast.h"
#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/elog/ast.h"
#include "src/elog/lint.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/runtime/runtime.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"
#include "tests/support/reference_eval.h"

namespace {

using namespace mdatalog;
using analysis::ContainmentOptions;
using analysis::Verdict;

core::Program MustParse(const std::string& text, const std::string& query) {
  auto p = core::ParseProgramWithQuery(text, query);
  EXPECT_TRUE(p.ok()) << p.status().message() << "\n" << text;
  return std::move(*p);
}

// --- SAT core sanity ------------------------------------------------------

TEST(SatSolverTest, BasicSatUnsat) {
  analysis::SatSolver s;
  analysis::Lit a = s.NewVar(), b = s.NewVar();
  s.AddBinary(a, b);
  s.AddBinary(-a, b);
  EXPECT_EQ(s.Solve(), analysis::SatSolver::Outcome::kSat);
  EXPECT_TRUE(s.ModelValue(b));
  // Under assumptions the formula flips unsat, but stays sat without them.
  EXPECT_EQ(s.Solve({-b}), analysis::SatSolver::Outcome::kUnsat);
  EXPECT_EQ(s.Solve(), analysis::SatSolver::Outcome::kSat);
  s.AddUnit(-b);
  EXPECT_EQ(s.Solve(), analysis::SatSolver::Outcome::kUnsat);
  EXPECT_TRUE(s.terminally_unsat());
}

TEST(SatSolverTest, PigeonholeIsUnsat) {
  // 4 pigeons, 3 holes: forces real conflict analysis and backtracking.
  analysis::SatSolver s;
  analysis::Lit x[4][3];
  for (auto& row : x) {
    for (auto& v : row) v = s.NewVar();
  }
  for (int p = 0; p < 4; ++p) {
    s.AddTernary(x[p][0], x[p][1], x[p][2]);
  }
  for (int h = 0; h < 3; ++h) {
    for (int p = 0; p < 4; ++p) {
      for (int q = p + 1; q < 4; ++q) s.AddBinary(-x[p][h], -x[q][h]);
    }
  }
  EXPECT_EQ(s.Solve(), analysis::SatSolver::Outcome::kUnsat);
  EXPECT_GT(s.conflicts(), 0);
}

// --- containment: directed cases ------------------------------------------

TEST(ContainmentTest, RenamedProgramsAreEquivalent) {
  core::Program p = MustParse("q(X) :- label_a(X).", "q");
  core::Program q = MustParse("r(Y) :- label_a(Y).", "r");
  auto eq = analysis::Equivalent(p, q);
  ASSERT_TRUE(eq.ok()) << eq.status().message();
  EXPECT_EQ(eq->verdict, Verdict::kContained);
}

TEST(ContainmentTest, DifferentLabelsRefutedWithWitness) {
  core::Program p = MustParse("q(X) :- label_a(X).", "q");
  core::Program q = MustParse("r(X) :- label_b(X).", "r");
  auto c = analysis::Contains(p, q);
  ASSERT_TRUE(c.ok()) << c.status().message();
  ASSERT_EQ(c->verdict, Verdict::kNotContained);
  // The witness was already re-verified by the production engine
  // (verify_witness defaults on); spot-check its shape anyway.
  ASSERT_TRUE(c->witness_tree.has_value());
  EXPECT_EQ(c->witness_tree->label_name(c->witness_node), "a");
  EXPECT_EQ(c->witness_depth, 0);  // a single a-labeled root suffices
}

TEST(ContainmentTest, StrictSubsetOneDirectionOnly) {
  // "a-labeled leaves" ⊆ "a-labeled nodes", strictly on trees of depth ≥ 1.
  core::Program p = MustParse("q(X) :- leaf(X), label_a(X).", "q");
  core::Program q = MustParse("r(X) :- label_a(X).", "r");
  auto fwd = analysis::Contains(p, q);
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd->verdict, Verdict::kContained);
  auto bwd = analysis::Contains(q, p);
  ASSERT_TRUE(bwd.ok());
  ASSERT_EQ(bwd->verdict, Verdict::kNotContained);
  // Counterexample: an a-labeled non-leaf. Needs one child, so depth 1.
  EXPECT_EQ(bwd->witness_depth, 1);
}

TEST(ContainmentTest, RecursiveReachabilityCoversLeaves) {
  // Q derives every node (root + firstchild/nextsibling closure), so any
  // unary query is contained in it; the reverse is refutable at depth 1.
  const std::string all =
      "all(X) :- root(X).\n"
      "all(X) :- all(X0), firstchild(X0, X).\n"
      "all(X) :- all(X0), nextsibling(X0, X).\n";
  core::Program p = MustParse("q(X) :- leaf(X).", "q");
  core::Program q = MustParse(all, "all");
  auto fwd = analysis::Contains(p, q);
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd->verdict, Verdict::kContained);
  auto bwd = analysis::Contains(q, p);
  ASSERT_TRUE(bwd.ok());
  EXPECT_EQ(bwd->verdict, Verdict::kNotContained);
}

TEST(ContainmentTest, DepthBoundIsPartOfTheContract) {
  // q nonempty only on trees with a firstchild-chain of length 2; against
  // an empty program, the verdict flips exactly when the bound admits the
  // counterexample.
  const std::string deep =
      "lvl1(X) :- root(X0), firstchild(X0, X).\n"
      "q(X) :- lvl1(X0), firstchild(X0, X).\n";
  core::Program p = MustParse(deep, "q");
  core::Program q = MustParse("r(X) :- never(X).", "r");
  ContainmentOptions shallow;
  shallow.max_depth = 1;
  auto c1 = analysis::Contains(p, q, shallow);
  ASSERT_TRUE(c1.ok()) << c1.status().message();
  EXPECT_EQ(c1->verdict, Verdict::kContained);  // within bounds only
  ContainmentOptions deep_enough;
  deep_enough.max_depth = 2;
  auto c2 = analysis::Contains(p, q, deep_enough);
  ASSERT_TRUE(c2.ok());
  ASSERT_EQ(c2->verdict, Verdict::kNotContained);
  EXPECT_EQ(c2->witness_depth, 2);
}

TEST(ContainmentTest, ConflictBudgetYieldsUnknown) {
  const std::string all =
      "all(X) :- root(X).\n"
      "all(X) :- all(X0), firstchild(X0, X).\n"
      "all(X) :- all(X0), nextsibling(X0, X).\n";
  core::Program p = MustParse(all, "all");
  core::Program q = MustParse("r(X) :- leaf(X).", "r");
  ContainmentOptions opts;
  opts.max_conflicts = 0;  // no search allowed beyond pure propagation
  auto c = analysis::Contains(p, q, opts);
  ASSERT_TRUE(c.ok());
  // Either propagation alone already found the witness or we get kUnknown —
  // never a (wrong) kContained.
  EXPECT_NE(c->verdict, Verdict::kContained);
}

TEST(ContainmentTest, NonTmnfProgramRejected) {
  core::Program p = MustParse("q(X) :- child(X0, X), label_a(X0).", "q");
  core::Program q = MustParse("r(X) :- label_a(X).", "r");
  auto c = analysis::Contains(p, q);
  EXPECT_FALSE(c.ok());  // child/2 is outside TMNF's firstchild/nextsibling
}

// --- containment vs. brute force ------------------------------------------

// Enumerates every tree with ≤ max_depth levels below the root, ≤ 2
// children per node, labels drawn from {a, b, c}, and calls `fn` on each.
std::vector<tree::Tree> AllTrees(int max_depth) {
  // Shapes are generated as nested vectors: a shape is a label index plus
  // child shapes (≤ 2 children per node, 3 labels).
  struct Shape {
    int label;
    std::vector<Shape> children;
  };
  std::vector<std::vector<Shape>> by_depth(max_depth + 1);
  for (int d = 0; d <= max_depth; ++d) {
    // All shapes of depth ≤ d: label × (children lists of size 0..2 over
    // shapes of depth ≤ d-1).
    std::vector<std::vector<Shape>> child_lists;
    child_lists.push_back({});
    if (d > 0) {
      for (const Shape& c0 : by_depth[d - 1]) {
        child_lists.push_back({c0});
        for (const Shape& c1 : by_depth[d - 1]) {
          child_lists.push_back({c0, c1});
        }
      }
    }
    for (int l = 0; l < 3; ++l) {
      for (const auto& cl : child_lists) {
        by_depth[d].push_back(Shape{l, cl});
      }
    }
  }
  const std::vector<std::string> label_names = {"a", "b", "c"};
  struct Builder {
    const std::vector<std::string>& names;
    tree::TreeBuilder* b;
    void Add(tree::NodeId parent, const Shape& s) {
      tree::NodeId n = b->Child(parent, names[s.label]);
      for (const Shape& c : s.children) Add(n, c);
    }
  };
  std::vector<tree::Tree> trees;
  trees.reserve(by_depth[max_depth].size());
  for (const Shape& root : by_depth[max_depth]) {
    tree::TreeBuilder b;
    tree::NodeId r = b.Root(label_names[root.label]);
    Builder helper{label_names, &b};
    for (const Shape& c : root.children) helper.Add(r, c);
    trees.push_back(b.Build());
  }
  return trees;
}

// Random TMNF programs over labels {a, b} and IDB preds p0..p2 (query p0).
core::Program RandomTmnfProgram(util::Rng& rng) {
  const std::vector<std::string> ops = {"root",    "leaf", "lastsibling",
                                        "label_a", "label_b",
                                        "p0",      "p1",   "p2"};
  const std::vector<std::string> heads = {"p0", "p1", "p2"};
  std::string text;
  int num_rules = 1 + static_cast<int>(rng.Below(5));
  for (int i = 0; i < num_rules; ++i) {
    const std::string& h = heads[rng.Below(heads.size())];
    const std::string& o = ops[rng.Below(ops.size())];
    switch (rng.Below(3)) {
      case 0:
        text += h + "(X) :- " + o + "(X).\n";
        break;
      case 1: {
        const char* b = rng.Chance(1, 2) ? "firstchild" : "nextsibling";
        if (rng.Chance(1, 2)) {
          text += h + "(X) :- " + o + "(X0), " + b + "(X0, X).\n";
        } else {
          text += h + "(X) :- " + o + "(X0), " + b + "(X, X0).\n";
        }
        break;
      }
      default: {
        const std::string& o2 = ops[rng.Below(ops.size())];
        text += h + "(X) :- " + o + "(X), " + o2 + "(X).\n";
        break;
      }
    }
  }
  // p0 may end up ruleless; ParseProgramWithQuery requires the pred to
  // occur, so mention it through a throwaway rule head guard.
  text += "p0(X) :- p0(X).\n";
  return MustParse(text, "p0");
}

TEST(ContainmentTest, AgreesWithBruteForceOnRandomPrograms) {
  util::Rng rng(20260808);
  constexpr int kDepth = 2;
  const std::vector<tree::Tree> trees = AllTrees(kDepth);
  int refuted = 0;
  for (int trial = 0; trial < 30; ++trial) {
    core::Program p = RandomTmnfProgram(rng);
    core::Program q = RandomTmnfProgram(rng);

    // Ground truth: search all trees of depth ≤ 2, branch ≤ 2 over three
    // labels (two mentioned + one fresh — exactly the encoder's alphabet).
    bool counterexample = false;
    for (const tree::Tree& t : trees) {
      core::TreeDatabase db(t);
      auto pe = core::EvaluateSemiNaive(p, db);
      auto qe = core::EvaluateSemiNaive(q, db);
      ASSERT_TRUE(pe.ok() && qe.ok());
      for (int32_t v : pe->Query()) {
        if (!qe->ContainsUnary(q.query_pred(), v)) {
          counterexample = true;
          break;
        }
      }
      if (counterexample) break;
    }

    ContainmentOptions opts;
    opts.max_depth = kDepth;
    opts.max_branch = 2;
    auto c = analysis::Contains(p, q, opts);
    ASSERT_TRUE(c.ok()) << c.status().message();
    ASSERT_NE(c->verdict, Verdict::kUnknown) << core::ToString(p);
    EXPECT_EQ(c->verdict == Verdict::kNotContained, counterexample)
        << "P:\n" << core::ToString(p) << "Q:\n" << core::ToString(q);
    refuted += c->verdict == Verdict::kNotContained ? 1 : 0;
  }
  // The sweep must exercise both verdicts to mean anything.
  EXPECT_GT(refuted, 3);
  EXPECT_LT(refuted, 30);
}

// --- minimization ----------------------------------------------------------

TEST(MinimizeTest, FatesCoverEveryCategory) {
  const std::string text =
      "q(X) :- label_a(X).\n"                 // 0: kept
      "q(X) :- label_a(X), label_b(X).\n"     // 1: unsat body (two labels)
      "q(X) :- ghost(X).\n"                   // 2: underivable (ghost is
                                              //    IDB-with-no-rules? no —
                                              //    EDB; see below)
      "dead(X) :- label_b(X).\n"              // 3: unreachable from q
      "q(Y) :- label_a(Y).\n"                 // 4: duplicate of 0
      "q(X) :- label_a(X), leaf(X).\n"        // 5: subsumed by 0
      "q(X) :- child(X, Y), child(X, Z).\n";  // 6: condenses to one literal
  core::Program p = MustParse(text, "q");
  // `ghost` is extensional here (no rules), so rule 2 is NOT removable —
  // an unknown EDB predicate may hold facts in other databases. Pin that.
  auto r = analysis::Minimize(p);
  ASSERT_TRUE(r.ok()) << r.status().message();
  using analysis::RuleFate;
  ASSERT_EQ(r->fates.size(), 7u);
  EXPECT_EQ(r->fates[0], RuleFate::kKept);
  EXPECT_EQ(r->fates[1], RuleFate::kUnsatBody);
  EXPECT_EQ(r->fates[2], RuleFate::kKept);
  EXPECT_EQ(r->fates[3], RuleFate::kUnreachable);
  EXPECT_EQ(r->fates[4], RuleFate::kDuplicate);
  EXPECT_EQ(r->fates[5], RuleFate::kSubsumed);
  EXPECT_EQ(r->fates[6], RuleFate::kKept);
  EXPECT_EQ(r->literals_removed[6], 1);
  EXPECT_EQ(r->program.rules().size(), 3u);
}

TEST(MinimizeTest, UnderivableIdbCascades) {
  const std::string text =
      "q(X) :- label_a(X).\n"
      "aux(X) :- aux(X).\n"        // IDB, only self-supported: underivable
      "q(X) :- aux(X), leaf(X).\n";
  core::Program p = MustParse(text, "q");
  auto r = analysis::Minimize(p);
  ASSERT_TRUE(r.ok());
  using analysis::RuleFate;
  EXPECT_EQ(r->fates[0], RuleFate::kKept);
  EXPECT_EQ(r->fates[1], RuleFate::kUnderivableBody);
  EXPECT_EQ(r->fates[2], RuleFate::kUnderivableBody);
}

TEST(MinimizeTest, TreeAxiomContradictions) {
  const std::string text =
      "q(X) :- root(X), lastsibling(X).\n"       // root is never lastsibling
      "q(X) :- root(X), child(Y, X).\n"          // root has no parent
      "q(X) :- leaf(X), firstchild(X, Y).\n"     // leaves have no children
      "q(X) :- lastsibling(X), nextsibling(X, Y).\n"
      "q(X) :- root(X).\n";                      // fine
  core::Program p = MustParse(text, "q");
  auto r = analysis::Minimize(p);
  ASSERT_TRUE(r.ok());
  using analysis::RuleFate;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r->fates[i], RuleFate::kUnsatBody) << "rule " << i;
  }
  EXPECT_EQ(r->fates[4], RuleFate::kKept);
}

TEST(MinimizeTest, DifferentialOnRandomTreesAllEngines) {
  // The acceptance property: Minimize(P) computes byte-identical root
  // extents on every tree, for every engine the repo ships.
  util::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    core::Program p = RandomTmnfProgram(rng);
    auto m = analysis::Minimize(p);
    ASSERT_TRUE(m.ok()) << core::ToString(p);
    for (int i = 0; i < 6; ++i) {
      tree::Tree t = tree::RandomTree(
          rng, 1 + static_cast<int32_t>(rng.Below(40)), {"a", "b", "c"});
      core::TreeDatabase db(t);
      auto naive0 = core::EvaluateNaive(p, db);
      auto naive1 = core::EvaluateNaive(m->program, db);
      auto semi0 = core::EvaluateSemiNaive(p, db);
      auto semi1 = core::EvaluateSemiNaive(m->program, db);
      auto ref0 = core::EvaluateNaiveReference(p, db);
      auto ref1 = core::EvaluateNaiveReference(m->program, db);
      ASSERT_TRUE(naive0.ok() && naive1.ok() && semi0.ok() && semi1.ok() &&
                  ref0.ok() && ref1.ok());
      EXPECT_EQ(naive0->Query(), naive1->Query())
          << core::ToString(p) << "-- minimized:\n"
          << core::ToString(m->program);
      EXPECT_EQ(semi0->Query(), semi1->Query());
      EXPECT_EQ(ref0->Query(), ref1->Query());
      if (core::GroundableOverTree(p) &&
          core::GroundableOverTree(m->program)) {
        auto g0 = core::EvaluateGrounded(p, t);
        auto g1 = core::EvaluateGrounded(m->program, t);
        ASSERT_TRUE(g0.ok() && g1.ok());
        EXPECT_EQ(g0->Query(), g1->Query());
      }
    }
  }
}

TEST(MinimizeTest, VerifyOptionProvesReductions) {
  const std::string text =
      "q(X) :- label_a(X).\n"
      "q(X) :- label_a(X), leaf(X).\n"   // subsumed
      "q(Y) :- label_a(Y).\n";           // duplicate
  core::Program p = MustParse(text, "q");
  analysis::MinimizeOptions opts;
  opts.verify = true;
  opts.verify_options.max_depth = 2;
  opts.verify_options.max_branch = 2;
  auto r = analysis::Minimize(p, opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->verified, Verdict::kContained);
  EXPECT_EQ(r->program.rules().size(), 1u);
}

TEST(MinimizeTest, SubsumptionHelper) {
  core::Program p = MustParse(
      "q(X) :- child(X, Y).\n"
      "q(X) :- child(X, Y), child(X, Z).\n"
      "q(X) :- child(Y, X).\n",
      "q");
  const auto& rules = p.rules();
  EXPECT_TRUE(analysis::Subsumes(rules[0], rules[1]));
  // θ-subsumption is not symmetric-free here: mapping both body literals
  // onto the single child(X, Y) (θ(Z) = Y) works, so rule 1 subsumes
  // rule 0 as well — they are genuinely equivalent.
  EXPECT_TRUE(analysis::Subsumes(rules[1], rules[0]));
  // Flipped argument order cannot be matched by any substitution.
  EXPECT_FALSE(analysis::Subsumes(rules[0], rules[2]));
}

// --- canonicalization ------------------------------------------------------

TEST(CanonicalTest, ReorderedAndRenamedRulesShareText) {
  core::Program a = MustParse(
      "q(X) :- label_a(X), child(X, Y), leaf(Y).\n"
      "q(X) :- root(X).\n",
      "q");
  core::Program b = MustParse(
      "q(N) :- root(N).\n"
      "q(U) :- child(U, W), leaf(W), label_a(U).\n",
      "q");
  EXPECT_EQ(analysis::CanonicalProgramText(a),
            analysis::CanonicalProgramText(b));
}

TEST(CanonicalTest, DistinctProgramsKeepDistinctText) {
  core::Program a = MustParse("q(X) :- label_a(X).", "q");
  core::Program b = MustParse("q(X) :- label_b(X).", "q");
  EXPECT_NE(analysis::CanonicalProgramText(a),
            analysis::CanonicalProgramText(b));
}

TEST(CanonicalTest, EquivalentWrapperFormulationsShareKey) {
  // The same extraction task stated three ways: clean, redundant (duplicate
  // + subsumed rules), and reordered. All three must map to one key.
  const std::string clean =
      "item(X) <- root(R), subelem(R, \"_.item\", X), leaf(X), "
      "lastsibling(X).\n";
  const std::string redundant =
      "item(X) <- root(R), subelem(R, \"_.item\", X), leaf(X), "
      "lastsibling(X).\n"
      "item(Y) <- root(S), subelem(S, \"_.item\", Y), lastsibling(Y), "
      "leaf(Y).\n";
  const std::string reordered =
      "item(V) <- root(W), subelem(W, \"_.item\", V), lastsibling(V), "
      "leaf(V).\n";
  auto pa = elog::ParseElog(clean);
  auto pb = elog::ParseElog(redundant);
  auto pc = elog::ParseElog(reordered);
  ASSERT_TRUE(pa.ok()) << pa.status().message();
  ASSERT_TRUE(pb.ok()) << pb.status().message();
  ASSERT_TRUE(pc.ok()) << pc.status().message();
  auto ka = analysis::CanonicalWrapperKey(*pa, {"item"});
  auto kb = analysis::CanonicalWrapperKey(*pb, {"item"});
  auto kc = analysis::CanonicalWrapperKey(*pc, {"item"});
  ASSERT_TRUE(ka.ok() && kb.ok() && kc.ok());
  EXPECT_TRUE(ka->canonicalized);
  EXPECT_EQ(ka->fingerprint, kb->fingerprint);
  EXPECT_EQ(ka->text, kb->text);
  EXPECT_EQ(ka->fingerprint, kc->fingerprint);
}

TEST(CanonicalTest, PatternOrderIsPartOfTheKey) {
  const std::string text =
      "a(X) <- root(R), subelem(R, \"_.a\", X).\n"
      "b(X) <- root(R), subelem(R, \"_.b\", X).\n";
  auto p = elog::ParseElog(text);
  ASSERT_TRUE(p.ok());
  auto k1 = analysis::CanonicalWrapperKey(*p, {"a", "b"});
  auto k2 = analysis::CanonicalWrapperKey(*p, {"b", "a"});
  ASSERT_TRUE(k1.ok() && k2.ok());
  // Output-tree construction depends on pattern order; keys must differ.
  EXPECT_NE(k1->fingerprint, k2->fingerprint);
}

// --- wrapper corpus (examples/wrappers) -----------------------------------
//
// The checked-in corpus is shared by these tests, the mdl-lint CI smoke run
// and bench_analysis — one set of real-ish wrappers, three consumers.

std::string CorpusPath(const std::string& name) {
  return std::string(MDATALOG_WRAPPER_CORPUS_DIR) + "/" + name;
}

wrapper::Wrapper MustLoadWrapper(const std::string& name) {
  std::ifstream in(CorpusPath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  auto w = wrapper::ParseWrapperText(ss.str());
  EXPECT_TRUE(w.ok()) << name << ": " << w.status().message();
  return std::move(*w);
}

/// Random page over the corpus vocabulary: nested tables/divs with
/// class-attributed cells, plus unrelated tags, so both the catalog and the
/// news wrappers have real (and near-miss) matches.
std::string RandomCorpusPage(util::Rng& rng, int32_t depth) {
  static const char* kTags[] = {"table", "tr", "td", "div", "h2", "span"};
  static const char* kClasses[] = {"item", "name", "price", "story", ""};
  const char* tag = kTags[rng.Below(6)];
  const char* cls = kClasses[rng.Below(5)];
  std::string open = std::string("<") + tag;
  if (*cls != '\0') open += std::string(" class=\"") + cls + "\"";
  open += ">";
  std::string body;
  if (depth > 0) {
    const int32_t kids = static_cast<int32_t>(rng.Below(4));
    for (int32_t i = 0; i < kids; ++i) {
      body += RandomCorpusPage(rng, depth - 1);
    }
  }
  return open + body + "</" + tag + ">";
}

/// Drops every rule the linter proved removable, keeping the Elog surface
/// form of the rest. Extraction-preservation of exactly this reduction is
/// what the differential harness below pins.
wrapper::Wrapper MinimizedWrapper(const wrapper::Wrapper& w) {
  auto report = elog::LintWrapper(w.program, w.extraction_patterns);
  EXPECT_TRUE(report.ok()) << report.status().message();
  std::vector<bool> drop(w.program.rules().size(), false);
  for (const elog::LintFinding& f : report->findings) {
    if (f.rule_index < 0) continue;
    if (f.kind != elog::LintFinding::Kind::kRedundantLiterals) {
      drop[static_cast<size_t>(f.rule_index)] = true;
    }
  }
  wrapper::Wrapper out;
  for (size_t i = 0; i < w.program.rules().size(); ++i) {
    if (!drop[i]) out.program.AddRule(w.program.rules()[i]);
  }
  out.extraction_patterns = w.extraction_patterns;
  return out;
}

/// The differential property harness: for every Elog⁻ corpus wrapper, the
/// minimized wrapper's output is byte-identical to the original's on random
/// pages, under both runtime engine modes and the compiled semi-naive
/// engine.
TEST(WrapperCorpusTest, MinimizeIsExtractionPreservingAcrossEngines) {
  const std::vector<std::string> corpus = {
      "catalog_clean.elog",  "catalog_redundant.elog",
      "catalog_reordered.elog", "news_clean.elog",
      "news_broken.elog",    "lint_dirty.elog"};
  const runtime::RuntimeOptions::EngineMode kModes[] = {
      runtime::RuntimeOptions::EngineMode::kAuto,
      runtime::RuntimeOptions::EngineMode::kNativeElog,
  };
  util::Rng rng(20260808);
  std::vector<std::string> pages;
  for (int i = 0; i < 8; ++i) {
    pages.push_back("<html>" + RandomCorpusPage(rng, 4) +
                    RandomCorpusPage(rng, 3) + "</html>");
  }
  for (const std::string& name : corpus) {
    wrapper::Wrapper original = MustLoadWrapper(name);
    ASSERT_FALSE(original.program.UsesDeltaBuiltins());
    wrapper::Wrapper minimized = MinimizedWrapper(original);
    for (const std::string& page : pages) {
      std::string reference;
      bool first = true;
      for (auto mode : kModes) {
        runtime::RuntimeOptions opts;
        opts.engine = mode;
        opts.result_memo.byte_budget = 0;  // every Wrap must really evaluate
        runtime::WrapperRuntime rt(opts);
        for (const wrapper::Wrapper* w : {&original, &minimized}) {
          auto handle = rt.Register(*w, "class");
          ASSERT_TRUE(handle.ok()) << name;
          auto got = rt.Wrap(*handle, page);
          ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
          if (first) {
            reference = *got;
            first = false;
          } else {
            ASSERT_EQ(*got, reference)
                << name << " diverged (engine mode "
                << static_cast<int>(mode) << ")";
          }
        }
      }
      // The compiled semi-naive engine, from core, over the same tree.
      runtime::WrapperRuntime rt;
      auto t = html::ParseTree(page, "class");
      ASSERT_TRUE(t.ok());
      const core::TreeDatabase db(*t);
      for (const wrapper::Wrapper* w : {&original, &minimized}) {
        auto handle = rt.Register(*w, "class");
        ASSERT_TRUE(handle.ok()) << name;
        auto got = oracle::SemiNaiveXml(*handle->program, db, *t);
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
        ASSERT_EQ(*got, reference) << name << " diverged (semi-naive)";
      }
    }
  }
}

TEST(WrapperCorpusTest, LintFindingsPinned) {
  // Clean wrappers stay clean; the dirty wrapper fires every category once.
  for (const char* name :
       {"catalog_clean.elog", "catalog_reordered.elog", "news_clean.elog",
        "news_broken.elog"}) {
    wrapper::Wrapper w = MustLoadWrapper(name);
    auto report = elog::LintWrapper(w.program, w.extraction_patterns);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << name << ":\n" << report->ToText();
  }

  wrapper::Wrapper delta = MustLoadWrapper("anbn_delta.elog");
  auto delta_report =
      elog::LintWrapper(delta.program, delta.extraction_patterns);
  ASSERT_TRUE(delta_report.ok());
  EXPECT_TRUE(delta_report->delta_builtins);
  EXPECT_TRUE(delta_report->clean());

  wrapper::Wrapper dirty = MustLoadWrapper("lint_dirty.elog");
  auto report = elog::LintWrapper(dirty.program, dirty.extraction_patterns);
  ASSERT_TRUE(report.ok());
  std::vector<elog::LintFinding::Kind> kinds;
  for (const elog::LintFinding& f : report->findings) kinds.push_back(f.kind);
  const std::vector<elog::LintFinding::Kind> expected = {
      elog::LintFinding::Kind::kDuplicateRule,
      elog::LintFinding::Kind::kSubsumedRule,
      elog::LintFinding::Kind::kUnsatBody,
      elog::LintFinding::Kind::kUnderivableBody,
      elog::LintFinding::Kind::kDeadRule,
      elog::LintFinding::Kind::kRedundantLiterals,
      elog::LintFinding::Kind::kUnusedPattern,
      elog::LintFinding::Kind::kUnusedPattern,
  };
  EXPECT_EQ(kinds, expected) << report->ToText();
}

TEST(WrapperCorpusTest, EquivalenceVerdictsPinned) {
  auto tmnf_of = [](const wrapper::Wrapper& w, const std::string& pattern) {
    auto datalog = elog::ElogToDatalog(w.program, pattern);
    EXPECT_TRUE(datalog.ok());
    auto t = tmnf::ToTmnf(*datalog);
    EXPECT_TRUE(t.ok());
    return std::move(*t);
  };
  ContainmentOptions opts;

  // The redundant catalog revision is extraction-equivalent to the clean one
  // on every pattern.
  wrapper::Wrapper clean = MustLoadWrapper("catalog_clean.elog");
  wrapper::Wrapper redundant = MustLoadWrapper("catalog_redundant.elog");
  ASSERT_EQ(clean.extraction_patterns, redundant.extraction_patterns);
  for (const std::string& pattern : clean.extraction_patterns) {
    core::Program a = tmnf_of(clean, pattern);
    core::Program b = tmnf_of(redundant, pattern);
    auto eq = analysis::Equivalent(a, b, opts);
    ASSERT_TRUE(eq.ok()) << eq.status().message();
    EXPECT_EQ(eq->verdict, Verdict::kContained) << pattern;
  }

  // The broken news revision differs on 'headline', with a witness page.
  wrapper::Wrapper news = MustLoadWrapper("news_clean.elog");
  wrapper::Wrapper broken = MustLoadWrapper("news_broken.elog");
  core::Program a = tmnf_of(news, "headline");
  core::Program b = tmnf_of(broken, "headline");
  auto eq = analysis::Equivalent(a, b, opts);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->verdict, Verdict::kNotContained);
  // The clean wrapper extracts strictly more (broken adds leaf(Y)), so the
  // forward direction refutes — with a concrete counterexample page.
  // Equivalent() short-circuits before trying the backward direction.
  EXPECT_EQ(eq->forward.verdict, Verdict::kNotContained);
  ASSERT_TRUE(eq->forward.witness_tree.has_value());
}

/// Concurrent lint stress (tsan-labeled via analysis_test): the analysis
/// entry points share no mutable state, so parallel lints of the same parsed
/// wrappers must be race-free and give identical reports.
TEST(WrapperCorpusConcurrencyTest, ParallelLintIsRaceFree) {
  const std::vector<std::string> corpus = {
      "catalog_clean.elog", "catalog_redundant.elog", "lint_dirty.elog",
      "news_broken.elog",   "anbn_delta.elog"};
  std::vector<wrapper::Wrapper> wrappers;
  std::vector<std::string> expected_reports;
  std::vector<uint64_t> expected_keys;
  for (const std::string& name : corpus) {
    wrappers.push_back(MustLoadWrapper(name));
    auto report = elog::LintWrapper(wrappers.back().program,
                                    wrappers.back().extraction_patterns);
    ASSERT_TRUE(report.ok());
    expected_reports.push_back(report->ToText());
    auto key = analysis::CanonicalWrapperKey(
        wrappers.back().program, wrappers.back().extraction_patterns);
    ASSERT_TRUE(key.ok());
    expected_keys.push_back(key->fingerprint);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < wrappers.size(); ++i) {
          auto report = elog::LintWrapper(wrappers[i].program,
                                          wrappers[i].extraction_patterns);
          auto key = analysis::CanonicalWrapperKey(
              wrappers[i].program, wrappers[i].extraction_patterns);
          if (!report.ok() || report->ToText() != expected_reports[i] ||
              !key.ok() || key->fingerprint != expected_keys[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
