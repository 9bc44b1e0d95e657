// Failure injection: every parser and translator in the library must turn
// malformed input into a clean Status — never crash, never silently accept.
// Plus resource-limit behavior (budgets return ResourceExhausted, not hangs).

#include <algorithm>
#include <string_view>

#include <gtest/gtest.h>

#include "src/caterpillar/eval.h"
#include "src/caterpillar/expr.h"
#include "src/core/eval.h"
#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/core/validate.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/mso/compile.h"
#include "src/mso/formula.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "src/xpath/xpath.h"
#include "tests/support/edb.h"
#include "tests/support/program_generator.h"
#include "tests/support/reference_eval.h"
#include "tests/support/trees.h"

namespace mdatalog {
namespace {

// ---------------------------------------------------------------------------
// Fuzz-ish inputs: random byte soup through every parser
// ---------------------------------------------------------------------------

std::string RandomGarbage(util::Rng& rng, int32_t len) {
  // string_view, and the bound derived from it: a hand-counted literal pool
  // size read past the terminator (caught by ASan in CI).
  constexpr std::string_view pool =
      "abcXY_()[]{}<>/\\.,:;|&~^-=*+\"'0123456789 \t\n%@#!?";
  std::string out;
  for (int32_t i = 0; i < len; ++i) {
    out += pool[rng.Below(pool.size())];
  }
  return out;
}

TEST(RobustnessTest, ParsersSurviveGarbage) {
  util::Rng rng(20260610);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk = RandomGarbage(rng, 1 + rng.Below(60));
    // Each call must return (ok or error) — no crash, no hang.
    (void)core::ParseProgram(junk);
    (void)caterpillar::ParseExpr(junk);
    (void)mso::ParseFormula(junk);
    (void)elog::ParseElog(junk);
    (void)xpath::ParseXPath(junk);
  }
  SUCCEED();
}

/// `open`×n, then `inner`, then `close`×n.
std::string Nest(std::string_view open, std::string_view inner,
                 std::string_view close, int32_t n) {
  std::string out;
  for (int32_t i = 0; i < n; ++i) out += open;
  out += inner;
  for (int32_t i = 0; i < n; ++i) out += close;
  return out;
}

TEST(RobustnessTest, DeepNestingIsATypedError) {
  constexpr int32_t kDeep = 100000;
  const auto code = [](const auto& result) { return result.status().code(); };
  constexpr util::StatusCode kInvalid = util::StatusCode::kInvalidArgument;
  EXPECT_EQ(code(xpath::ParseXPath(Nest("a[", "b", "]", kDeep))), kInvalid);
  EXPECT_EQ(code(xpath::ParseXPath("a[" + Nest("not(", "b", ")", kDeep) + "]")),
            kInvalid);
  EXPECT_EQ(code(mso::ParseFormula(Nest("(", "root(x)", ")", kDeep))),
            kInvalid);
  EXPECT_EQ(code(caterpillar::ParseExpr(Nest("(", "child", ")", kDeep))),
            kInvalid);
  // Chains that the parsers read with loops but that nest the AST: a
  // postfix operator wraps its operand, and `->` folds to the right.
  EXPECT_EQ(code(caterpillar::ParseExpr("child" + std::string(kDeep, '*'))),
            kInvalid);
  EXPECT_EQ(code(mso::ParseFormula(Nest("root(x) -> ", "leaf(x)", "", kDeep))),
            kInvalid);
  EXPECT_EQ(code(mso::ParseFormula(Nest("~", "leaf(x)", "", kDeep))), kInvalid);
}

TEST(RobustnessTest, NestingOf200ParsesAndRoundTrips) {
  constexpr int32_t kNest = 200;
  for (const std::string& text : {Nest("a[", "b", "]", kNest),
                                  "a[" + Nest("not(", "b", ")", kNest) + "]"}) {
    auto path = xpath::ParseXPath(text);
    ASSERT_TRUE(path.ok()) << path.status().message();
    auto again = xpath::ParseXPath(xpath::ToString(*path));
    ASSERT_TRUE(again.ok()) << again.status().message();
    EXPECT_EQ(xpath::ToString(*again), xpath::ToString(*path));
  }
  auto formula = mso::ParseFormula(Nest("(", "root(x) & leaf(x)", ")", kNest));
  ASSERT_TRUE(formula.ok()) << formula.status().message();
  auto formula_again = mso::ParseFormula(mso::ToString(*formula));
  ASSERT_TRUE(formula_again.ok()) << formula_again.status().message();
  EXPECT_EQ(mso::ToString(*formula_again), mso::ToString(*formula));
  auto expr = caterpillar::ParseExpr(Nest("(", "child", ")*", kNest));
  ASSERT_TRUE(expr.ok()) << expr.status().message();
  auto expr_again = caterpillar::ParseExpr(caterpillar::ToString(*expr));
  ASSERT_TRUE(expr_again.ok()) << expr_again.status().message();
  EXPECT_EQ(caterpillar::ToString(*expr_again), caterpillar::ToString(*expr));
}

TEST(RobustnessTest, OversizedIntegersAreTypedErrors) {
  constexpr util::StatusCode kInvalid = util::StatusCode::kInvalidArgument;
  EXPECT_EQ(wrapper::ParseWrapperText(
                "a(x) <- root(x0), subelem(x0, \"a\", x), b(y),\n"
                "        before(x0, \"a\", x, y, 99999999999, 100).")
                .status()
                .code(),
            kInvalid);
  EXPECT_EQ(core::ParseProgram("q(X) :- leaf(X), p(99999999999).")
                .status()
                .code(),
            kInvalid);
  EXPECT_EQ(core::ParseProgram("q(X) :- leaf(X), p(-99999999999).")
                .status()
                .code(),
            kInvalid);
  // INT32_MAX itself is a constant.
  EXPECT_TRUE(core::ParseProgram("q(X) :- leaf(X), p(2147483647).").ok());
}

TEST(RobustnessTest, HtmlParserSurvivesGarbage) {
  util::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk = RandomGarbage(rng, 1 + rng.Below(120));
    auto doc = html::ParseHtml(junk);
    if (doc.ok()) {
      // Whatever came out must be a well-formed tree.
      EXPECT_GE(doc->tree().size(), 1);
      EXPECT_EQ(doc->tree().Preorder().size(),
                static_cast<size_t>(doc->tree().size()));
    }
  }
}

TEST(RobustnessTest, HtmlPathologies) {
  // Deeply nested, never closed.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "<div>";
  auto doc = html::ParseHtml(deep + "x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->tree().size(), 201);
  // A wall of end tags with no matching start.
  EXPECT_FALSE(html::ParseHtml("</a></b></c>").ok());  // no content at all
  // Attributes with every quoting style and junk between them.
  auto attrs = html::ParseHtml("<a x=1 === y='2' \"stray\" z>t</a>");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->GetAttr(0, "x"), "1");
  EXPECT_EQ(attrs->GetAttr(0, "y"), "2");
  // The bare z is an attribute with an empty value.
  const std::vector<html::Token> tokens = html::Tokenize(
      "<a x=1 === y='2' \"stray\" z>t</a>");
  ASSERT_FALSE(tokens.empty());
  EXPECT_TRUE(std::any_of(tokens[0].attrs.begin(), tokens[0].attrs.end(),
                          [](const html::Attribute& a) {
                            return a.name == "z" && a.value.empty();
                          }));
  // The same attributes through construction-time projection; the bare z
  // has an empty value, which never projects.
  const std::string page = "<a x=1 === y='2' \"stray\" z>t</a>";
  EXPECT_EQ(html::ParseTree(page, "x")->label_name(0), "a@1");
  EXPECT_EQ(html::ParseTree(page, "y")->label_name(0), "a@2");
  EXPECT_EQ(html::ParseTree(page, "z")->label_name(0), "a");
}

// ---------------------------------------------------------------------------
// Random program × random tree sweeps through every engine must agree and
// never crash (wider than the per-module suites: one shared corpus).
// ---------------------------------------------------------------------------

TEST(RobustnessTest, EngineSweepNeverDiverges) {
  util::Rng rng(909);
  for (int trial = 0; trial < 30; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 1 + static_cast<int32_t>(rng.Below(10));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(5));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(6));
    opts.allow_extended = rng.Chance(1, 2);
    core::Program p = core::RandomMonadicProgram(rng, opts);
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(30)), {"a", "b"});
    auto automatic = core::EvaluateOnTree(p, t);
    const core::TreeDatabase db(t);
    auto ref = core::EvaluateNaiveReference(p, db);
    ASSERT_TRUE(automatic.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(automatic->Unary(p.query_pred()), ref->Unary(p.query_pred()));
    // The TMNF pipeline must accept everything the generator emits.
    auto tmnf = tmnf::ToTmnf(p);
    ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString() << core::ToString(p);
  }
}

// ---------------------------------------------------------------------------
// Resource limits surface as ResourceExhausted
// ---------------------------------------------------------------------------

TEST(RobustnessTest, MsoStateBudget) {
  // A formula with several set quantifiers under a tiny state budget.
  auto f = mso::ParseFormula(
      "exists Z. exists W. forall x. (in(x, Z) | in(x, W))");
  ASSERT_TRUE(f.ok());
  mso::MsoCompileOptions opts;
  opts.alphabet = {"a"};
  opts.max_states = 2;
  auto bta = mso::CompileSentence(*f, opts);
  EXPECT_FALSE(bta.ok());
  EXPECT_EQ(bta.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(RobustnessTest, ElogDerivationBudget) {
  auto p = elog::ParseElog(
      "anynode(X) <- root(X).\n"
      "anynode(X) <- anynode(P), subelem(P, \"_\", X).\n");
  ASSERT_TRUE(p.ok());
  tree::Tree t = tree::ChainTree(64, "a");
  auto r = elog::EvaluateElog(*p, t, /*max_derivations=*/8);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Degenerate trees through the main pipelines
// ---------------------------------------------------------------------------

TEST(RobustnessTest, SingleNodeTreeEverywhere) {
  tree::TreeBuilder b;
  b.Root("a");
  tree::Tree t = b.Build();

  auto even = core::EvaluateOnTree(core::EvenAProgram(), t);
  ASSERT_TRUE(even.ok());
  EXPECT_TRUE(even->Query().empty());  // one 'a': odd

  auto xp = xpath::EvalXPath(t, "//a");
  ASSERT_TRUE(xp.ok());
  EXPECT_EQ(*xp, (std::vector<tree::NodeId>{0}));

  auto elog_p = elog::ParseElog("q(X) <- root(X), leaf(X).");
  ASSERT_TRUE(elog_p.ok());
  auto er = elog::EvaluateElog(*elog_p, t);
  ASSERT_TRUE(er.ok());
  EXPECT_EQ(er->Of("q"), (std::vector<tree::NodeId>{0}));
}

TEST(RobustnessTest, WideFlatTreeEverywhere) {
  tree::Tree t =
      tree::ChildrenWord("r", std::vector<std::string>(500, "a"));
  auto anc = core::EvaluateOnTree(core::HasAncestorProgram("r"), t);
  ASSERT_TRUE(anc.ok());
  EXPECT_EQ(anc->Query().size(), 500u);
  auto xp = xpath::EvalXPath(t, "//a[not(following-sibling::a)]");
  ASSERT_TRUE(xp.ok());
  EXPECT_EQ(*xp, (std::vector<tree::NodeId>{500}));
}

TEST(RobustnessTest, DeepChainTreeEverywhere) {
  tree::Tree t = tree::ChainTree(800, "a");
  auto even = core::EvaluateOnTree(core::EvenAProgram(), t);
  ASSERT_TRUE(even.ok());
  EXPECT_EQ(even->Query().size(), 400u);  // every other depth is even-sized
  auto ord = caterpillar::EvalImage(t, caterpillar::DocumentOrderExpr(),
                                    {t.root()});
  ASSERT_TRUE(ord.ok());
  EXPECT_EQ(ord->size(), 799u);  // everything after the root
}

// not(·) sends a query to the set-based reference evaluator, whose
// descendant axis must walk without recursion.
TEST(RobustnessTest, XPathNegationOnMillionNodeChain) {
  tree::Tree t = tree::ChainTree(1000000, "a");
  auto xp = xpath::EvalXPath(t, "/a/descendant::a[not(b)]");
  ASSERT_TRUE(xp.ok()) << xp.status().ToString();
  EXPECT_EQ(xp->size(), 999999u);
}

}  // namespace
}  // namespace mdatalog
