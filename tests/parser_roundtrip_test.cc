// The five text languages read by src/ (datalog, Elog⁻, Core XPath, MSO and
// caterpillar expressions) pinned by round trips: for every text the tests
// and examples use, ToString(Parse(s)) parses again to the same ToString.
// Plus one bad input per language whose error is on line 2.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/caterpillar/expr.h"
#include "src/core/examples.h"
#include "src/core/parser.h"
#include "src/elog/ast.h"
#include "src/mso/formula.h"
#include "src/xpath/xpath.h"
#include "tests/support/fixtures.h"

namespace mdatalog {
namespace {

/// Parses `text`, prints it, parses the print and prints that again: the two
/// prints must agree.
template <typename ParseFn, typename PrintFn>
void ExpectRoundTrip(const std::string& text, ParseFn parse, PrintFn print) {
  auto first = parse(text);
  ASSERT_TRUE(first.ok()) << text << ": " << first.status().message();
  const std::string printed = print(*first);
  auto second = parse(printed);
  ASSERT_TRUE(second.ok()) << printed << ": " << second.status().message();
  EXPECT_EQ(print(*second), printed) << text;
}

TEST(ParseRoundTripTest, Datalog) {
  const auto parse = [](const std::string& s) {
    return core::ParseProgram(s);
  };
  const auto print = [](const core::Program& p) { return core::ToString(p); };
  for (const std::string text : {
           "q(X) :- leaf(X).",
           "q(X) <- leaf(X).",
           "q(X) :- firstchild(X, Y), nextsibling(Y, Z).",
           "q(X) :- leaf(X), r(X). r(X) :- root(X).",
           "b :- q(X). r(X) :- leaf(X), b.",
           "q(X) :- firstchild(X, Y). b :- q(X).",
           "start(0). edge(0, 1). q(X) :- edge(0, X).",
           "found :- label_e(X). q(X) :- leaf(X), found.",
           "q(2) :- root(0). r(X) :- q(X).",
           "q(X) :- child2(X, Y), label_e(Y).",
           "q(X) :- lastchild(X, Y), leaf(Y).",
           "q(X) :- nextsibling_tc(X, Y), label_f(Y).",
           "q(0). q(Y) :- q(X), firstchild(X, Y).",
           "query(X) :- nextsibling(Y, X), label_a(Y).",
           "% comment\nq(X) :- leaf(X). // another\n",
           "p(-7) :- root(X).",
       }) {
    ExpectRoundTrip(text, parse, print);
  }
  for (const core::Program& p :
       {core::EvenAProgram({"b"}), core::HasAncestorProgram("a"),
        core::EvenDepthLeafProgram(), core::ChainProgram(4),
        core::DomProgram()}) {
    ExpectRoundTrip(core::ToString(p), parse, print);
  }
}

TEST(ParseRoundTripTest, ElogWrapperCorpus) {
  const auto parse = [](const std::string& s) { return elog::ParseElog(s); };
  const auto print = [](const elog::ElogProgram& p) {
    return elog::ToString(p);
  };
  int32_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(MDATALOG_WRAPPER_CORPUS_DIR)) {
    if (entry.path().extension() != ".elog") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    SCOPED_TRACE(entry.path().filename().string());
    ExpectRoundTrip(text.str(), parse, print);
    ++files;
  }
  EXPECT_EQ(files, 7);
  ExpectRoundTrip(
      "anbn(X) <- root(X), contains(X, \"a\", Y), a0(Y),\n"
      "           before(X, \"b\", Y, Z, 50, 50), b0(Z).\n"
      "a0(Y) <- root(X), subelem(X, \"a\", Y).\n"
      "b0(Z) <- root(X), subelem(X, \"b\", Z), notafter(X, \"_\", Z),\n"
      "         notbefore(X, \"a\", Z), firstsibling(Z), leaf(Z).\n",
      parse, print);
}

TEST(ParseRoundTripTest, XPath) {
  const auto parse = [](const std::string& s) { return xpath::ParseXPath(s); };
  const auto print = [](const xpath::Path& p) { return xpath::ToString(p); };
  for (const std::string text : {
           "/html/body//tr[td]/td",
           "//li[following-sibling::li]/ancestor::ul",
           "//tr[td and not(th or self::x)]",
           "a/*/b",
           "a/*/b[not(c)]",
           "/x[descendant::y and z]",
           "/html/body/ul/li",
           "//b",
           "//li[b]",
           "//li[not(b)]",
           "//b/parent::li",
           "//b/ancestor::body",
           "//li[preceding-sibling::li and b]",
           "//li[/html/body/div]",
           "/html/body/*",
           "self::li",
           "//ul/li[b]/b",
           "//li[descendant-or-self::b]",
           "b",
           "//a[ancestor::b]",
           "/r//b[a or c]",
           "//tr@item/td@price",
           "//tr@item[following-sibling::tr@item]",
           "//a[not(following-sibling::a)]",
           "//div@article",
           "//div@article/h2/a",
           "//div@article[span@date]",
           "//div@article[following-sibling::div@article]",
           "//h2/ancestor::div@article",
           "//div@article[not(h2)]",
           "//#text",
           "//a[(b or c) and d]",
       }) {
    ExpectRoundTrip(text, parse, print);
  }
  // `and` binds tighter than `or`, so the print keeps the parentheses.
  auto grouped = xpath::ParseXPath("//a[(b or c) and d]");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(xpath::ToString(*grouped),
            "/descendant::a[(child::b or child::c) and child::d]");
}

TEST(ParseRoundTripTest, Mso) {
  const auto parse = [](const std::string& s) { return mso::ParseFormula(s); };
  const auto print = [](const mso::FormulaPtr& f) { return mso::ToString(f); };
  for (const std::string text : {
           "root(x) & ~leaf(x) | firstchild(x, y)",
           "label_a(x) -> x = y",
           "exists x. forall Y. (in(x, Y) -> label_a(x))",
           "(root(x) & leaf(y)) | x = y",
           "~(firstchild(x, y))",
           "exists y. (firstchild(x, y) & in(y, Z))",
           "exists x. (leaf(x) & forall Y. in(x, Y))",
           "exists x. leaf(x) & exists z. root(z)",
           "lastsibling(x)",
           "exists y. nextsibling(y, x)",
           "forall Z. ((forall r. (root(r) -> in(r, Z))) &"
           " (forall u. forall v. (in(u, Z) & firstchild(u, v) -> in(v, Z)))"
           " & (forall u2. forall v2. (in(u2, Z) & nextsibling(u2, v2) ->"
           " in(v2, Z))) -> in(x, Z))",
           "exists x. (root(x) & label_a(x))",
           "exists y. (nextsibling(x, y) & label_b(y)) & ~(leaf(x))",
           "exists y. (nextsibling(y, x) & label_a(y))",
           "leaf(x) & exists y. nextsibling(x, y)",
           "exists Z. exists W. forall x. (in(x, Z) | in(x, W))",
           "root(x) -> leaf(x) -> label_a(x)",
       }) {
    ExpectRoundTrip(text, parse, print);
  }
}

TEST(ParseRoundTripTest, Caterpillar) {
  const auto parse = [](const std::string& s) {
    return caterpillar::ParseExpr(s);
  };
  const auto print = [](const caterpillar::ExprPtr& e) {
    return caterpillar::ToString(e);
  };
  for (const std::string text : {
           "child+ | (child^-1)*.nextsibling+.child*",
           "firstchild.[lastsibling]",
           "eps | firstchild",
           "a.b* | c",
           "eps",
           "(a | b).c*",
           "firstchild^-1.nextsibling",
           "(nextsibling^-1)*.firstchild^-1",
           "(firstchild.nextsibling)^-1",
       }) {
    ExpectRoundTrip(text, parse, print);
  }
  ExpectRoundTrip(caterpillar::ToString(caterpillar::DocumentOrderExpr()),
                  parse, print);
  ExpectRoundTrip(caterpillar::ToString(caterpillar::AnyNodeExpr()), parse,
                  print);
}

// --- errors on line 2 --------------------------------------------------------
//
// Every parser reports a position as "at line L, column C" (1-based; the
// column counts bytes).

TEST(ParseErrorTest, DatalogReportsLineTwo) {
  auto p = core::ParseProgram("q(X) :- leaf(X).\nr(X) :- leaf(X)");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(p.status().message(),
            "expected '.' at end of rule at line 2, column 16");
}

TEST(ParseErrorTest, ElogReportsLineTwo) {
  auto p = elog::ParseElog("a(X) <- root(R), subelem(R, \"a\", X).\n"
                           "b(Y) <- a(X) subelem(X, \"b\", Y).");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(p.status().message(), "expected '.' at line 2, column 14");
}

TEST(ParseErrorTest, XPathReportsLineTwo) {
  auto p = xpath::ParseXPath("//a[b\n  c]");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(p.status().message(), "expected ']' at line 2, column 3");
}

TEST(ParseErrorTest, MsoReportsLineTwo) {
  auto f = mso::ParseFormula("exists x.\n  (root(x) & )");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(f.status().message(), "expected identifier at line 2, column 14");
}

TEST(ParseErrorTest, CaterpillarReportsLineTwo) {
  auto e = caterpillar::ParseExpr("child.\n  (nextsibling | )");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(e.status().message(), "expected identifier at line 2, column 18");
}

TEST(ElogCommentTest, SkipsPercentAndSlashComments) {
  auto p = elog::ParseElog(
      "% the item pattern\n"
      "item(X) <- root(R), subelem(R, \"tr\", X).  // one row\n");
  ASSERT_TRUE(p.ok()) << p.status().message();
  EXPECT_EQ(p->rules().size(), 1u);
}

}  // namespace
}  // namespace mdatalog
