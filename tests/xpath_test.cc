#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "src/core/grounder.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "src/xpath/xpath.h"
#include "tests/support/xpath_reference.h"

namespace mdatalog::xpath {
namespace {

using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

Path MustParse(const std::string& text) {
  auto p = ParseXPath(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << " in: " << text;
  return std::move(*p);
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(XPathParseTest, ShorthandAndAxes) {
  Path p = MustParse("/html/body//tr[td]/td");
  EXPECT_TRUE(p.absolute);
  ASSERT_EQ(p.steps.size(), 4u);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[0].label, "html");
  EXPECT_EQ(p.steps[2].axis, Axis::kDescendant);  // '//' shorthand
  EXPECT_EQ(p.steps[2].label, "tr");
  EXPECT_EQ(p.steps[2].predicates.size(), 1u);
}

TEST(XPathParseTest, ExplicitAxes) {
  Path p = MustParse("//li[following-sibling::li]/ancestor::ul");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);  // leading //
  EXPECT_EQ(p.steps[1].axis, Axis::kAncestor);
  const ExprP& pred = p.steps[0].predicates[0];
  EXPECT_EQ(pred->kind, Expr::Kind::kPath);
  EXPECT_EQ(pred->path.steps[0].axis, Axis::kFollowingSibling);
}

TEST(XPathParseTest, BooleanPredicates) {
  Path p = MustParse("//tr[td and not(th or self::x)]");
  const ExprP& pred = p.steps[0].predicates[0];
  EXPECT_EQ(pred->kind, Expr::Kind::kAnd);
  EXPECT_EQ(pred->children[1]->kind, Expr::Kind::kNot);
}

TEST(XPathParseTest, WildcardsAndRelative) {
  Path p = MustParse("a/*/b");
  EXPECT_FALSE(p.absolute);
  EXPECT_EQ(p.steps[1].label, "");
}

TEST(XPathParseTest, Errors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("/a[").ok());
  EXPECT_FALSE(ParseXPath("/a]").ok());
  EXPECT_FALSE(ParseXPath("/unknown-axis::a").ok());
  EXPECT_FALSE(ParseXPath("/a//").ok());
}

TEST(XPathParseTest, RoundTrip) {
  for (const char* text :
       {"/html/body//tr[td]/td", "//li[following-sibling::li]",
        "a/*/b[not(c)]", "/x[descendant::y and z]"}) {
    Path p1 = MustParse(text);
    Path p2 = MustParse(ToString(p1));
    EXPECT_EQ(ToString(p1), ToString(p2));
  }
}

// ---------------------------------------------------------------------------
// Reference semantics
// ---------------------------------------------------------------------------

Tree DocTree() {
  // html(body(ul(li, li(b), li), div(b)))     ids: 0..7
  TreeBuilder b;
  NodeId html = b.Root("html");
  NodeId body = b.Child(html, "body");
  NodeId ul = b.Child(body, "ul");
  b.Child(ul, "li");                   // 3
  NodeId li2 = b.Child(ul, "li");      // 4
  b.Child(li2, "b");                   // 5
  b.Child(ul, "li");                   // 6
  NodeId div = b.Child(body, "div");   // 7
  b.Child(div, "b");                   // 8
  return b.Build();
}

std::vector<NodeId> Ref(const Tree& t, const std::string& q) {
  auto r = EvalXPathReference(t, MustParse(q));
  EXPECT_TRUE(r.ok()) << q;
  return *r;
}

TEST(XPathReferenceTest, BasicSelection) {
  Tree t = DocTree();
  EXPECT_EQ(Ref(t, "/html/body/ul/li"), (std::vector<NodeId>{3, 4, 6}));
  EXPECT_EQ(Ref(t, "//b"), (std::vector<NodeId>{5, 8}));
  EXPECT_EQ(Ref(t, "//li[b]"), (std::vector<NodeId>{4}));
  EXPECT_EQ(Ref(t, "//li[not(b)]"), (std::vector<NodeId>{3, 6}));
  EXPECT_EQ(Ref(t, "//b/parent::li"), (std::vector<NodeId>{4}));
  EXPECT_EQ(Ref(t, "//b/ancestor::body"), (std::vector<NodeId>{1}));
  EXPECT_EQ(Ref(t, "//li[following-sibling::li]"),
            (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(Ref(t, "//li[preceding-sibling::li and b]"),
            (std::vector<NodeId>{4}));
}

TEST(XPathReferenceTest, RelativePathsStartAnywhere) {
  Tree t = DocTree();
  EXPECT_EQ(Ref(t, "b"), (std::vector<NodeId>{5, 8}));  // any b-child
  EXPECT_EQ(Ref(t, "self::li"), (std::vector<NodeId>{3, 4, 6}));
}

TEST(XPathReferenceTest, AbsolutePredicate) {
  Tree t = DocTree();
  // Every li qualifies because the document has a div somewhere.
  EXPECT_EQ(Ref(t, "//li[/html/body/div]"), (std::vector<NodeId>{3, 4, 6}));
  EXPECT_EQ(Ref(t, "//li[/html/xyz]"), (std::vector<NodeId>{}));
}

// ---------------------------------------------------------------------------
// Corollary-style claim (Section 7): XPath → monadic datalog, linear engine
// ---------------------------------------------------------------------------

void ExpectDatalogMatchesReference(const std::string& query, const Tree& t) {
  Path path = MustParse(query);
  auto reference = EvalXPathReference(t, path);
  ASSERT_TRUE(reference.ok());
  auto program = XPathToDatalog(path);
  ASSERT_TRUE(program.ok()) << program.status().ToString() << " for "
                            << query;
  auto eval = core::EvaluateOnTree(*program, t);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  EXPECT_EQ(eval->Query(), *reference)
      << query << " on " << tree::ToDebugString(t);
}

TEST(XPathToDatalogTest, PositiveQueriesMatchReference) {
  Tree t = DocTree();
  for (const char* q :
       {"/html/body/ul/li", "//b", "//li[b]", "//b/parent::li",
        "//li[following-sibling::li]", "//b/ancestor::body",
        "/html/body/*", "//li[preceding-sibling::li and b]",
        "self::li", "//ul/li[b]/b", "//li[/html/body/div]",
        "//li[descendant-or-self::b]", "b"}) {
    ExpectDatalogMatchesReference(q, t);
  }
}

TEST(XPathToDatalogTest, PropertyOnRandomTrees) {
  util::Rng rng(20260610);
  const char* queries[] = {
      "//a", "//a[b]", "//b[following-sibling::a]", "//a/parent::b",
      "//a[ancestor::b]", "/r//b[a or c]", "//c[preceding-sibling::a and b]",
  };
  for (int trial = 0; trial < 12; ++trial) {
    TreeBuilder b;
    b.Root("r");
    Tree inner = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(30)),
                                  {"a", "b", "c"});
    std::function<void(NodeId, NodeId)> graft = [&](NodeId s, NodeId dst) {
      NodeId built = b.Child(dst, inner.label_name(s));
      for (NodeId c = inner.first_child(s); c != tree::kNoNode;
           c = inner.next_sibling(c)) {
        graft(c, built);
      }
    };
    graft(inner.root(), 0);
    Tree t = b.Build();
    for (const char* q : queries) ExpectDatalogMatchesReference(q, t);
  }
}

TEST(XPathToDatalogTest, NegationIsRejectedButEvaluatorHandlesIt) {
  Tree t = DocTree();
  Path with_not = MustParse("//li[not(b)]");
  EXPECT_FALSE(XPathToDatalog(with_not).ok());
  // EvalXPath runs b's set as a lower stratum and reads its complement.
  auto r = EvalXPath(t, "//li[not(b)]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<NodeId>{3, 6}));
}

TEST(XPathToDatalogTest, CompiledProgramIsGroundable) {
  // The second: an absolute predicate whose first axis leaves the document
  // node empty still names an intensional witness.
  for (const char* q : {"//li[b]/b", "//li[/parent::b]"}) {
    auto program = XPathToDatalog(MustParse(q));
    ASSERT_TRUE(program.ok());
    EXPECT_TRUE(core::GroundableOverTree(*program)) << q;
  }
}

// ---------------------------------------------------------------------------
// Differential: EvalXPath (ground plan, one pass per not(·) stratum) against
// the set-based oracle on generated queries
// ---------------------------------------------------------------------------

constexpr const char* kAxes[] = {
    "self",     "child",           "descendant",        "descendant-or-self",
    "parent",   "ancestor",        "ancestor-or-self",  "following-sibling",
    "preceding-sibling"};

/// Random Core XPath over the labels a, b, c: all nine axes, '//' and '*',
/// and/or/parentheses, absolute paths inside predicates, and not(·) nested
/// up to three deep. Records what it emitted, so a test can check coverage.
class QueryGenerator {
 public:
  explicit QueryGenerator(util::Rng& rng) : rng_(rng) {}

  std::string Query() { return PathText(/*budget=*/3, /*nots=*/0, false); }

  bool axis_seen[std::size(kAxes)] = {};
  bool deepest_not_seen = false;  // a not(·) three deep
  bool absolute_predicate_seen = false;
  bool and_seen = false, or_seen = false;

 private:
  std::string PathText(int budget, int nots, bool in_predicate) {
    std::string out;
    if (rng_.Chance(1, in_predicate ? 5 : 2)) {
      if (in_predicate) absolute_predicate_seen = true;
      out = rng_.Chance(1, 2) ? "//" : "/";
    }
    const int64_t num_steps = rng_.Range(1, in_predicate ? 2 : 3);
    for (int64_t i = 0; i < num_steps; ++i) {
      if (i > 0) out += rng_.Chance(1, 4) ? "//" : "/";
      out += StepText(budget, nots);
    }
    return out;
  }

  std::string StepText(int budget, int nots) {
    static constexpr const char* kTests[] = {"a", "b", "c", "*"};
    std::string out;
    if (rng_.Chance(3, 4)) {
      const size_t axis = rng_.Below(std::size(kAxes));
      axis_seen[axis] = true;
      out = std::string(kAxes[axis]) + "::";
    }
    out += kTests[rng_.Below(std::size(kTests))];
    if (budget > 0 && rng_.Chance(1, 3)) {
      out += "[" + ExprText(budget - 1, nots) + "]";
    }
    return out;
  }

  std::string ExprText(int budget, int nots) {
    switch (rng_.Below(5)) {
      case 0:
        if (nots < 3) {
          if (nots == 2) deepest_not_seen = true;
          // Nested not(·)s spend no step budget: three can stack.
          return "not(" + ExprText(std::max(budget, 1), nots + 1) + ")";
        }
        break;
      case 1:
        if (budget == 0) break;
        and_seen = true;
        return ExprText(budget - 1, nots) + " and " +
               ExprText(budget - 1, nots);
      case 2:
        if (budget == 0) break;
        or_seen = true;
        return "(" + ExprText(budget - 1, nots) + " or " +
               ExprText(budget - 1, nots) + ")";
      default:
        break;
    }
    return PathText(budget, nots, /*in_predicate=*/true);
  }

  util::Rng& rng_;
};

/// EvalXPath == the oracle on `query` over `t`; XPathToDatalog rejects the
/// query iff it uses not(·).
void ExpectMatchesOracle(const Tree& t, const std::string& query) {
  Path path = MustParse(query);
  auto reference = EvalXPathReference(t, path);
  ASSERT_TRUE(reference.ok());
  auto served = EvalXPath(t, query);
  ASSERT_TRUE(served.ok()) << served.status().ToString() << " for " << query;
  EXPECT_EQ(*served, *reference) << query << " on " << tree::ToDebugString(t);
  auto program = XPathToDatalog(path);
  if (PathUsesNegation(path)) {
    EXPECT_EQ(program.status().code(), util::StatusCode::kUnimplemented)
        << query;
  } else {
    EXPECT_TRUE(program.ok()) << program.status().ToString() << " " << query;
  }
}

TEST(XPathDifferentialTest, GeneratedQueriesOnRandomTrees) {
  util::Rng rng(20261020);
  QueryGenerator gen(rng);
  for (int trial = 0; trial < 300; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(40)),
                              {"a", "b", "c"});
    for (int q = 0; q < 4; ++q) ExpectMatchesOracle(t, gen.Query());
  }
  for (size_t a = 0; a < std::size(kAxes); ++a) {
    EXPECT_TRUE(gen.axis_seen[a]) << kAxes[a];
  }
  EXPECT_TRUE(gen.deepest_not_seen);
  EXPECT_TRUE(gen.absolute_predicate_seen);
  EXPECT_TRUE(gen.and_seen);
  EXPECT_TRUE(gen.or_seen);
}

/// A chain of `n` nodes (each the only child of the one before) or a
/// fan-out (every node a child of the root). The first half draws its
/// labels from a, b, c; the second half is all a, so the negated queries
/// below select thousands of nodes.
Tree AdversarialTree(util::Rng& rng, int32_t n, bool chain) {
  static constexpr const char* kLabels[] = {"a", "b", "c"};
  TreeBuilder b;
  NodeId last = b.Root("a");
  for (int32_t i = 1; i < n; ++i) {
    last = b.Child(chain ? last : 0, i < n / 2 ? kLabels[rng.Below(3)] : "a");
  }
  return b.Build();
}

// The oracle walks a downward or sibling axis once per context node, so on
// these shapes it is quadratic: a few generated queries each.
TEST(XPathDifferentialTest, GeneratedQueriesOnDeepChainAndWideFanOut) {
  util::Rng rng(77);
  QueryGenerator gen(rng);
  for (const bool chain : {true, false}) {
    Tree t = AdversarialTree(rng, 10000, chain);
    for (int q = 0; q < 3; ++q) ExpectMatchesOracle(t, gen.Query());
    ExpectMatchesOracle(t, chain ? "//a[not(descendant::b)]"
                                 : "//a[not(following-sibling::b)]");
  }
}

TEST(XPathTest, OnSyntheticCatalog) {
  util::Rng rng(9);
  html::CatalogOptions opts;
  opts.num_items = 6;
  opts.with_ads = true;
  auto doc = html::ParseHtml(html::ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  Tree t = html::ProjectAttributeIntoLabels(*doc, "class");
  auto items = EvalXPath(t, "//tr@item");
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->size(), 6u);
  auto prices = EvalXPath(t, "//tr@item/td@price");
  ASSERT_TRUE(prices.ok());
  EXPECT_EQ(prices->size(), 6u);
  // Items that are not the last row of their table.
  auto not_last = EvalXPath(t, "//tr@item[following-sibling::tr@item]");
  ASSERT_TRUE(not_last.ok());
  EXPECT_EQ(not_last->size(), 5u);
}

}  // namespace
}  // namespace mdatalog::xpath
