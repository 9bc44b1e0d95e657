// Cross-cutting reproductions of the paper's remaining formal results:
// Corollary 4.7 (tree-language recognition by monadic datalog ≡ MSO ≡
// regular), the Remark 2.2 infinite-alphabet discipline, and integration
// checks that chain several theorems together.

#include <gtest/gtest.h>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/elog/from_datalog.h"
#include "src/elog/eval.h"
#include "src/mso/compile.h"
#include "src/mso/formula.h"
#include "src/mso/to_datalog.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

namespace mdatalog {
namespace {

using tree::Tree;

/// Corollary 4.7 acceptance: a program with an "accept" predicate accepts a
/// tree iff accept(root) is in the fixpoint.
bool ProgramAccepts(const core::Program& p, const Tree& t) {
  auto result = core::EvaluateOnTree(p, t);
  EXPECT_TRUE(result.ok());
  core::PredId accept = p.preds().Find("accept");
  EXPECT_GE(accept, 0);
  return result->ContainsUnary(accept, t.root());
}

// ---------------------------------------------------------------------------
// Corollary 4.7: tree languages in monadic datalog ≡ MSO
// ---------------------------------------------------------------------------

TEST(Corollary47Test, DtdLikeLanguageDatalogVsMso) {
  // The "DTD": every child of a table-labeled node is labeled tr.
  // As monadic datalog with acceptance (positive form: verified top-down by
  // scanning for violations bottom-up would need negation, so we state the
  // *violation-free* check positively: ok(x) for every node whose subtree
  // conforms; accept at the root).
  auto program = core::ParseProgram(R"(
    kidsok(X)  :- leaf(X).
    kidsok(X)  :- firstchild(X, Y), chainok(Y), label_table(X).
    kidsok(X)  :- firstchild(X, Y), anychain(Y), label_tr(X).
    kidsok(X)  :- firstchild(X, Y), anychain(Y), label_td(X).
    % chainok: every node in this sibling chain is a conforming tr.
    chainok(Y) :- lastsibling(Y), label_tr(Y), kidsok(Y).
    chainok(Y) :- label_tr(Y), kidsok(Y), nextsibling(Y, Z), chainok(Z).
    % anychain: every node in this chain conforms (labels unconstrained).
    anychain(Y) :- lastsibling(Y), kidsok(Y).
    anychain(Y) :- kidsok(Y), nextsibling(Y, Z), anychain(Z).
    accept(X)  :- root(X), kidsok(X), label_tr(X).
    accept(X)  :- root(X), kidsok(X), label_td(X).
    accept(X)  :- root(X), kidsok(X), label_table(X).
  )");
  ASSERT_TRUE(program.ok());

  // The same language in MSO: child(p, x) is encoded per pair as "x belongs
  // to every set that contains p's first child and is closed under
  // nextsibling" (the standard reachability trick over the binary encoding).
  auto closed = mso::ParseFormula(
      "forall p. forall x. ((label_table(p) & "
      "(forall S. (((forall y. (firstchild(p, y) -> in(y, S))) & "
      "(forall u. (forall v. ((in(u, S) & nextsibling(u, v)) -> in(v, S)))))"
      " -> in(x, S)))) -> label_tr(x))");
  ASSERT_TRUE(closed.ok());
  mso::MsoCompileOptions opts;
  opts.alphabet = {"table", "tr", "td"};
  auto bta = mso::CompileSentence(*closed, opts);
  ASSERT_TRUE(bta.ok()) << bta.status().ToString();

  util::Rng rng(505);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(15)),
                              {"table", "tr", "td"});
    bool datalog = ProgramAccepts(*program, t);
    auto cls = mso::ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto msor = mso::BtaAcceptsTree(*bta, t, *cls);
    ASSERT_TRUE(msor.ok());
    EXPECT_EQ(datalog, *msor) << tree::ToDebugString(t);
    (datalog ? accepted : rejected) += 1;
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Corollary47Test, EvenALanguageAcceptance) {
  // Language: the whole document has an even number of a's — the Example
  // 3.2 program, read at the root (query pred as acceptance).
  core::Program p = core::EvenAProgram({"b"});
  util::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(25)),
                              {"a", "b"});
    int32_t a_count = 0;
    for (tree::NodeId n = 0; n < t.size(); ++n) {
      if (t.label_name(n) == "a") ++a_count;
    }
    auto result = core::EvaluateOnTree(p, t);
    ASSERT_TRUE(result.ok());
    bool root_selected = result->ContainsUnary(p.query_pred(), t.root());
    EXPECT_EQ(root_selected, a_count % 2 == 0) << tree::ToDebugString(t);
  }
}

// ---------------------------------------------------------------------------
// Remark 2.2: the infinite-alphabet discipline
// ---------------------------------------------------------------------------

TEST(Remark22Test, UnseenLabelsAreEmptyPredicates) {
  // A program may reference label predicates for symbols that never occur in
  // the tree: they are empty relations, not errors.
  auto p = core::ParseProgramWithQuery(
      "q(X) :- label_blink(X). q(X) :- label_a(X).", "q");
  ASSERT_TRUE(p.ok());
  Tree t = tree::PaperExample32Tree();
  auto r = core::EvaluateOnTree(*p, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(Remark22Test, ArbitraryTagAttributeLabels) {
  // Merged tag+attribute labels (the Remark's motivation) work end to end.
  auto p = core::ParseProgramWithQuery("q(X) :- label_td@price(X).", "q");
  ASSERT_FALSE(p.ok());  // '@' is not an identifier char in datalog syntax —
  // the Elog/XPath layers handle such labels; datalog reaches them via
  // programmatic construction:
  core::Program prog;
  core::PredId q = prog.preds().MustIntern("q", 1);
  core::PredId lbl = prog.preds().MustIntern("label_td@price", 1);
  prog.AddRule(core::MakeRule(core::MakeAtom(q, {core::Term::Var(0)}),
                              {core::MakeAtom(lbl, {core::Term::Var(0)})},
                              {"x"}));
  prog.set_query_pred(q);
  tree::TreeBuilder b;
  auto root = b.Root("tr@item");
  b.Child(root, "td@price");
  Tree t = b.Build();
  auto r = core::EvaluateOnTree(prog, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{1}));
}

// ---------------------------------------------------------------------------
// Integration: chaining the theorems
// ---------------------------------------------------------------------------

TEST(IntegrationTest, MsoToDatalogToTmnfToElog) {
  // Theorem 4.4 → Theorem 5.2 → Theorem 6.5: the same unary query as an MSO
  // formula, as monadic datalog, and as a visually-specifiable Elog⁻
  // wrapper, all agreeing.
  //
  // Note the datalog leg is a hand-written τ_ur program: BtaToDatalog output
  // necessarily tests the *root's* label (its context seeding), which is the
  // one thing the Theorem 6.5 construction cannot express (see
  // DatalogToElogTest.RootLabelCaveatIsDocumentedBehavior).
  auto formula =
      mso::ParseFormula("exists y. (nextsibling(y, x) & label_a(y))");
  ASSERT_TRUE(formula.ok());
  mso::MsoCompileOptions opts;
  opts.alphabet = {"a", "b", "r"};
  auto bta = mso::CompileUnaryQuery(*formula, "x", opts);
  ASSERT_TRUE(bta.ok());
  auto datalog = core::ParseProgramWithQuery(
      "query(X) :- nextsibling(Y, X), label_a(Y).", "query");
  ASSERT_TRUE(datalog.ok());
  auto elog = elog::DatalogToElog(*datalog);
  ASSERT_TRUE(elog.ok()) << elog.status().ToString();

  util::Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    // Fixed root label "r" (programs test only a/b — see the Theorem 6.5
    // root-label caveat).
    tree::TreeBuilder b;
    b.Root("r");
    Tree inner = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(12)),
                                  {"a", "b"});
    std::function<void(tree::NodeId, tree::NodeId)> graft =
        [&](tree::NodeId s, tree::NodeId dst) {
          tree::NodeId built = b.Child(dst, inner.label_name(s));
          for (tree::NodeId c = inner.first_child(s); c != tree::kNoNode;
               c = inner.next_sibling(c)) {
            graft(c, built);
          }
        };
    graft(inner.root(), 0);
    Tree t = b.Build();

    auto cls = mso::ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto by_automaton = mso::BtaUnaryQuery(*bta, t, *cls);
    ASSERT_TRUE(by_automaton.ok());
    auto by_elog = elog::EvaluateElog(*elog, t);
    ASSERT_TRUE(by_elog.ok());
    EXPECT_EQ(by_elog->Of("query"), *by_automaton)
        << tree::ToDebugString(t);
  }
}

TEST(IntegrationTest, TmnfOfMsoProgramStaysEquivalent) {
  // Corollary 4.17 output → Theorem 5.2 → Theorem 4.2 engine.
  auto formula = mso::ParseFormula("leaf(x) & exists y. nextsibling(x, y)");
  ASSERT_TRUE(formula.ok());
  mso::MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = mso::CompileUnaryQuery(*formula, "x", opts);
  ASSERT_TRUE(bta.ok());
  auto datalog = mso::BtaToDatalog(*bta, opts.alphabet);
  ASSERT_TRUE(datalog.ok());
  auto tmnf = tmnf::ToTmnf(*datalog);
  ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString();
  util::Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(30)),
                              {"a", "b"});
    auto lhs = core::EvaluateGrounded(*datalog, t);
    auto rhs = core::EvaluateGrounded(*tmnf, t);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rhs.ok());
    EXPECT_EQ(lhs->Query(), rhs->Query()) << tree::ToDebugString(t);
  }
}

}  // namespace
}  // namespace mdatalog
