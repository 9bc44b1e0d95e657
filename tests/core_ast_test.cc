#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/ast.h"
#include "src/core/parser.h"
#include "src/core/tree_schema.h"
#include "src/core/validate.h"

namespace mdatalog::core {
namespace {

TEST(PredicateTableTest, InternAndConflict) {
  PredicateTable t;
  auto p = t.Intern("foo", 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(t.Arity(*p), 1);
  EXPECT_EQ(t.Name(*p), "foo");
  auto again = t.Intern("foo", 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *p);
  auto conflict = t.Intern("foo", 2);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(t.Find("foo"), *p);
  EXPECT_EQ(t.Find("bar"), -1);
}

TEST(AstTest, MakeRuleInventsVarNames) {
  Program p;
  PredId q = p.preds().MustIntern("q", 1);
  PredId r = p.preds().MustIntern("r", 2);
  Rule rule = MakeRule(MakeAtom(q, {Term::Var(0)}),
                       {MakeAtom(r, {Term::Var(0), Term::Var(1)})});
  EXPECT_EQ(rule.num_vars(), 2);
  EXPECT_EQ(rule.var_names[0], "v0");
  EXPECT_EQ(rule.var_names[1], "v1");
}

TEST(AstTest, ToStringFormatsRules) {
  Program p;
  PredId q = p.preds().MustIntern("q", 1);
  PredId fc = p.preds().MustIntern("firstchild", 2);
  PredId la = p.preds().MustIntern("label_a", 1);
  Rule rule = MakeRule(
      MakeAtom(q, {Term::Var(1)}),
      {MakeAtom(fc, {Term::Var(0), Term::Var(1)}), MakeAtom(la, {Term::Var(0)})},
      {"x", "y"});
  p.AddRule(rule);
  EXPECT_EQ(ToString(p, p.rules()[0]),
            "q(y) :- firstchild(x, y), label_a(x).");
}

TEST(AstTest, ToStringConstantsAndPropositional) {
  Program p;
  PredId q = p.preds().MustIntern("q", 1);
  PredId b = p.preds().MustIntern("b", 0);
  p.AddRule(MakeRule(MakeAtom(q, {Term::Const(3)}), {MakeAtom(b, {})}, {}));
  EXPECT_EQ(ToString(p, p.rules()[0]), "q(3) :- b.");
}

TEST(AstTest, IntensionalMaskAndSize) {
  Program p;
  PredId q = p.preds().MustIntern("q", 1);
  PredId leaf = p.preds().MustIntern("leaf", 1);
  p.AddRule(
      MakeRule(MakeAtom(q, {Term::Var(0)}), {MakeAtom(leaf, {Term::Var(0)})}));
  std::vector<bool> mask = p.IntensionalMask();
  EXPECT_TRUE(mask[q]);
  EXPECT_FALSE(mask[leaf]);
  EXPECT_EQ(p.SizeInAtoms(), 2);
}

TEST(ParserTest, ParsesSimpleProgram) {
  auto p = ParseProgram(R"(
    % the even-a seed rule
    b0(X) :- leaf(X).
    c1(X) :- b0(X), label_a(X).  // inline comment
  )");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules().size(), 2u);
  EXPECT_EQ(ToString(*p, p->rules()[0]), "b0(X) :- leaf(X).");
  EXPECT_EQ(ToString(*p, p->rules()[1]), "c1(X) :- b0(X), label_a(X).");
}

TEST(ParserTest, AcceptsArrowSeparator) {
  auto p = ParseProgram("q(X) <- leaf(X).");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules().size(), 1u);
}

TEST(ParserTest, ParsesFactsAndConstants) {
  auto p = ParseProgram("start(0). edge(0, 1). q(X) :- edge(0, X).");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules().size(), 3u);
  EXPECT_TRUE(p->rules()[0].body.empty());
  EXPECT_EQ(p->rules()[1].head.args[1], Term::Const(1));
  EXPECT_EQ(p->rules()[2].body[0].args[0], Term::Const(0));
}

TEST(ParserTest, ParsesPropositionalAtoms) {
  auto p = ParseProgram("b :- q(X). r(X) :- leaf(X), b.");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->preds().Arity(p->preds().Find("b")), 0);
}

TEST(ParserTest, VariableScopePerRule) {
  auto p = ParseProgram("q(X) :- leaf(X). r(X) :- root(X).");
  ASSERT_TRUE(p.ok());
  // Both rules use variable index 0 despite the same name.
  EXPECT_EQ(p->rules()[0].head.args[0], Term::Var(0));
  EXPECT_EQ(p->rules()[1].head.args[0], Term::Var(0));
}

TEST(ParserTest, RejectsMissingDot) {
  EXPECT_FALSE(ParseProgram("q(X) :- leaf(X)").ok());
}

TEST(ParserTest, RejectsArityConflict) {
  auto p = ParseProgram("q(X) :- leaf(X). q(X, Y) :- firstchild(X, Y).");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseProgram("q(X) :- 3foo(X).").ok());
  EXPECT_FALSE(ParseProgram("(X).").ok());
  EXPECT_FALSE(ParseProgram("q(X :- leaf(X).").ok());
}

TEST(ParserTest, ErrorsMentionPosition) {
  auto p = ParseProgram("q(X) :- leaf(X)\nq(Y) :- root(Y).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, ParseProgramWithQuery) {
  auto p = ParseProgramWithQuery("q(X) :- leaf(X).", "q");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->query_pred(), p->preds().Find("q"));
  EXPECT_FALSE(ParseProgramWithQuery("q(X) :- leaf(X).", "nope").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* text =
      "q(X) :- leaf(X), label_a(X).\n"
      "r(Y) :- q(X), firstchild(X, Y).\n";
  auto p1 = ParseProgram(text);
  ASSERT_TRUE(p1.ok());
  auto p2 = ParseProgram(ToString(*p1));
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(ToString(*p1), ToString(*p2));
}

TEST(ValidateTest, SafetyViolation) {
  auto p = ParseProgram("q(X) :- leaf(Y).");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(CheckSafety(*p).ok());
  auto ok = ParseProgram("q(X) :- leaf(X), root(Y).");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(CheckSafety(*ok).ok());
}

TEST(ValidateTest, NonGroundFactIsUnsafe) {
  auto p = ParseProgram("q(X).");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(CheckSafety(*p).ok());
}

TEST(ValidateTest, MonadicCheck) {
  auto p = ParseProgram("q(X, Y) :- firstchild(X, Y).");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(CheckMonadic(*p).ok());
  auto ok = ParseProgram("q(X) :- firstchild(X, Y). b :- q(X).");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(CheckMonadic(*ok).ok());
}

/// The extensional predicates a program's rule bodies use, by name.
std::vector<std::string> ExtensionalPredNames(const Program& program) {
  const std::vector<bool> intensional = program.IntensionalMask();
  std::set<std::string> names;
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      if (!intensional[a.pred]) names.insert(program.preds().Name(a.pred));
    }
  }
  return std::vector<std::string>(names.begin(), names.end());
}

TEST(ValidateTest, TreeSignature) {
  auto p = ParseProgram("q(X) :- child(X, Y), label_td(Y).");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(ExtensionalPredNames(*p),
            (std::vector<std::string>{"child", "label_td"}));
  EXPECT_TRUE(IsTreePredicate("child", 2));
  EXPECT_TRUE(IsTreePredicate("label_td", 1));
  auto bad = ParseProgram("q(X) :- edge(X, Y).");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(ExtensionalPredNames(*bad), (std::vector<std::string>{"edge"}));
  EXPECT_FALSE(IsTreePredicate("edge", 2));
}

TEST(ValidateTest, ExtensionalPredNames) {
  auto p = ParseProgram("q(X) :- leaf(X), r(X). r(X) :- root(X).");
  ASSERT_TRUE(p.ok());
  std::vector<std::string> names = ExtensionalPredNames(*p);
  EXPECT_EQ(names, (std::vector<std::string>{"leaf", "root"}));
}

TEST(ValidateTest, FindGuard) {
  auto p = ParseProgram(
      "q(X) :- firstchild(X, Y), label_a(Y).\n"
      "r(X) :- q(X), leaf(Y).\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(FindGuard(p->rules()[0]), 0);   // firstchild(X,Y) covers {X,Y}
  EXPECT_EQ(FindGuard(p->rules()[1]), -1);  // no atom covers both X and Y
}

TEST(ValidateTest, ConnectednessTheorem42Graph) {
  auto p = ParseProgram(
      "a(X) :- leaf(X).\n"
      "b(X) :- leaf(X), root(Y).\n"
      "c(X) :- firstchild(X, Y), leaf(Y).\n");
  ASSERT_TRUE(p.ok());
  // A rule is connected iff every variable is in component 0.
  const auto connected = [&](const Rule& r) {
    const std::vector<int32_t> comp = RuleVarComponents(*p, r);
    return std::all_of(comp.begin(), comp.end(),
                       [](int32_t c) { return c == 0; });
  };
  EXPECT_TRUE(connected(p->rules()[0]));
  // X and Y are connected by no binary atom -> disconnected.
  EXPECT_FALSE(connected(p->rules()[1]));
  EXPECT_TRUE(connected(p->rules()[2]));
}

TEST(ValidateTest, RuleVarComponents) {
  auto p = ParseProgram(
      "q(X) :- firstchild(X, Y), nextsibling(A, B), leaf(C).");
  ASSERT_TRUE(p.ok());
  std::vector<int32_t> comp = RuleVarComponents(*p, p->rules()[0]);
  ASSERT_EQ(comp.size(), 5u);
  EXPECT_EQ(comp[0], comp[1]);  // X, Y
  EXPECT_EQ(comp[2], comp[3]);  // A, B
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[4]);  // C isolated
  EXPECT_NE(comp[2], comp[4]);
}

TEST(ValidateTest, DatalogLit) {
  // Rule 1: all-monadic body. Rule 2: guarded by firstchild.
  auto lit = ParseProgram(
      "q(X) :- leaf(X), label_a(X).\n"
      "r(Y) :- firstchild(X, Y), q(X).\n");
  ASSERT_TRUE(lit.ok());
  EXPECT_TRUE(IsDatalogLit(*lit));
  // Two binary atoms over three vars: no guard.
  auto notlit =
      ParseProgram("q(X) :- firstchild(X, Y), nextsibling(Y, Z).");
  ASSERT_TRUE(notlit.ok());
  EXPECT_FALSE(IsDatalogLit(*notlit));
}

}  // namespace
}  // namespace mdatalog::core
