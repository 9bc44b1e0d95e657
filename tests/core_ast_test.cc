#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/ast.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/core/tree_schema.h"
#include "src/core/validate.h"
#include "src/tree/generator.h"
#include "tests/support/edb.h"

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

// Every tree-schema name/arity maps to one kind (and k for child_k); every
// near miss is rejected; and each kind's meaning on Figure 1 agrees with the
// oracle's own relational view of the tree (tests/support/edb.h).
TEST(TreeSchemaTest, ClassifiesEveryTreePredicate) {
  using K = TreePred::Kind;
  struct Case {
    const char* name;
    int32_t arity;
    K kind;
    int32_t k;
  };
  const std::vector<Case> cases = {
      {"root", 1, K::kRoot, 0},
      {"leaf", 1, K::kLeaf, 0},
      {"firstsibling", 1, K::kFirstSibling, 0},
      {"lastsibling", 1, K::kLastSibling, 0},
      {"label_a", 1, K::kLabel, 0},
      {"label_b", 1, K::kLabel, 0},  // not in the tree: the empty relation
      {"firstchild", 2, K::kFirstChild, 0},
      {"nextsibling", 2, K::kNextSibling, 0},
      {"child", 2, K::kChild, 0},
      {"child1", 2, K::kChildK, 1},
      {"child2", 2, K::kChildK, 2},
      {"child3", 2, K::kChildK, 3},
      {"child4", 2, K::kChildK, 4},
      {"child2147483647", 2, K::kChildK, 2147483647},
      {"lastchild", 2, K::kLastChild, 0},
      {"nextsibling_tc", 2, K::kNextSiblingTc, 0},
  };
  for (const Case& c : cases) {
    const std::optional<TreePred> got = ClassifyTreePredicate(c.name, c.arity);
    ASSERT_TRUE(got.has_value()) << c.name;
    EXPECT_EQ(*got, (TreePred{c.kind, c.k})) << c.name;
    EXPECT_EQ(got->unary(), c.arity == 1) << c.name;
    EXPECT_TRUE(IsTreePredicate(c.name, c.arity)) << c.name;
  }
  const std::vector<std::pair<std::string, int32_t>> rejects = {
      {"child0", 2},
      {"child4294967297", 2},
      {"child01x", 2},
      {"label_", 1},
      {"root", 2},
      {"firstchild", 1},
      {"nextsibling_tc", 1},
      {"leaf", 0},
      {"label_a", 2},
      {"Root", 1},
      {DeltaBuiltinPredName(DeltaBuiltin::kNotAfter, "a", 0, 100), 2},
  };
  for (const auto& [name, arity] : rejects) {
    EXPECT_FALSE(ClassifyTreePredicate(name, arity).has_value())
        << name << "/" << arity;
    EXPECT_FALSE(IsTreePredicate(name, arity)) << name << "/" << arity;
  }

  // The TMNF schema: τ_ur's binary relations unranked, child_k ranked.
  for (const Case& c : cases) {
    const TreePred p{c.kind, c.k};
    const bool shared = c.kind == K::kRoot || c.kind == K::kLeaf ||
                        c.kind == K::kLastSibling || c.kind == K::kLabel;
    EXPECT_EQ(InTmnfSchema(p, false),
              shared || c.kind == K::kFirstChild || c.kind == K::kNextSibling)
        << c.name;
    EXPECT_EQ(InTmnfSchema(p, true), shared || c.kind == K::kChildK) << c.name;
  }

  const tree::Tree t = tree::PaperFigure1Tree();
  const TreeDatabase db(t);
  for (const Case& c : cases) {
    const TreePred pred{c.kind, c.k};
    const Relation* rel = db.Get(c.name, c.arity);
    if (c.arity == 1) {
      const tree::LabelId label = t.FindLabel(LabelFromPredName(c.name));
      for (tree::NodeId n = 0; n < t.size(); ++n) {
        EXPECT_EQ(HoldsUnary(t, c.kind, label, n),
                  rel != nullptr && rel->ContainsUnary(n))
            << c.name << " at n" << n + 1;
      }
      continue;
    }
    // The unique partner of a node in each direction, or kNoNode.
    auto partner = [&](tree::NodeId n, bool forward) {
      tree::NodeId found = tree::kNoNode;
      for (tree::NodeId m = 0; m < t.size(); ++m) {
        if (rel == nullptr || !(forward ? rel->ContainsBinary(n, m)
                                        : rel->ContainsBinary(m, n))) {
          continue;
        }
        if (found != tree::kNoNode) return tree::kNoNode - 1;  // not functional
        found = m;
      }
      return found;
    };
    const bool functional_forward = c.kind != K::kChild &&
                                    c.kind != K::kNextSiblingTc;
    const bool functional_backward = c.kind != K::kNextSiblingTc;
    for (tree::NodeId n = 0; n < t.size(); ++n) {
      EXPECT_EQ(StepForward(t, pred, n),
                functional_forward ? partner(n, true) : tree::kNoNode)
          << c.name << " forward from n" << n + 1;
      EXPECT_EQ(StepBackward(t, pred, n),
                functional_backward ? partner(n, false) : tree::kNoNode)
          << c.name << " backward from n" << n + 1;
    }
  }
}

}  // namespace
}  // namespace mdatalog::core
