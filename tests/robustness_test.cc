// Failure injection: every parser and translator in the library must turn
// malformed input into a clean Status — never crash, never silently accept.
// Plus resource-limit behavior (budgets return ResourceExhausted, not hangs).

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
#include "src/mso/compile.h"
#include "src/mso/formula.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "src/xpath/xpath.h"
#include "tests/support/program_generator.h"

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
  EXPECT_TRUE(attrs->HasAttr(0, "z"));
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
    auto semi = core::EvaluateOnTree(p, t, core::Engine::kSemiNaive);
    auto naive = core::EvaluateOnTree(p, t, core::Engine::kNaive);
    ASSERT_TRUE(semi.ok());
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(semi->Unary(p.query_pred()), naive->Unary(p.query_pred()));
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

TEST(RobustnessTest, FixpointDerivationBudget) {
  core::Program p = core::DomProgram();
  tree::Tree t = tree::ChainTree(100, "a");
  core::TreeDatabase db(t);
  core::EvalOptions opts;
  opts.max_derived = 5;
  auto naive = core::EvaluateNaive(p, db, opts);
  EXPECT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), util::StatusCode::kResourceExhausted);
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

}  // namespace
}  // namespace mdatalog
