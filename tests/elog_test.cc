#include <gtest/gtest.h>

#include <regex>

#include "src/core/grounder.h"
#include "src/core/examples.h"
#include "src/core/parser.h"
#include "src/tmnf/pipeline.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/elog/from_datalog.h"
#include "src/elog/to_datalog.h"
#include "src/elog/visual.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::elog {
namespace {

using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

ElogProgram MustParseElog(const std::string& text) {
  auto p = ParseElog(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(*p);
}

// ---------------------------------------------------------------------------
// Paths and parsing
// ---------------------------------------------------------------------------

TEST(ElogPathTest, ParseAndPrint) {
  auto p = ElogPath::Parse("table._.tr");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->steps, (std::vector<std::string>{"table", "_", "tr"}));
  EXPECT_EQ(p->ToString(), "table._.tr");
  auto eps = ElogPath::Parse("");
  ASSERT_TRUE(eps.ok());
  EXPECT_TRUE(eps->empty());
  EXPECT_FALSE(ElogPath::Parse("a..b").ok());
}

TEST(ElogParseTest, BasicWrapper) {
  ElogProgram p = MustParseElog(R"(
    % a two-pattern wrapper
    item(X)  <- root(R), subelem(R, "table.tr", X).
    price(Y) <- item(X), subelem(X, "td", Y), lastsibling(Y).
  )");
  ASSERT_EQ(p.rules().size(), 2u);
  EXPECT_EQ(p.rules()[0].head_pattern, "item");
  EXPECT_EQ(p.rules()[0].subelem.ToString(), "table.tr");
  EXPECT_EQ(p.rules()[1].conditions.size(), 1u);
  EXPECT_EQ(p.Patterns(), (std::vector<std::string>{"item", "price"}));
  EXPECT_FALSE(p.UsesDeltaBuiltins());
}

TEST(ElogParseTest, SpecializationRule) {
  ElogProgram p = MustParseElog(
      "a(X) <- root(R), subelem(R, \"x\", X).\n"
      "b(X) <- a(X), leaf(X).\n");
  EXPECT_TRUE(p.rules()[1].is_specialization());
}

TEST(ElogParseTest, DeltaBuiltins) {
  ElogProgram p = MustParseElog(
      "a0(X) <- root(R), subelem(R, \"a\", X), notafter(R, \"a\", X).\n"
      "anbn(X) <- root(X), contains(X, \"a\", Y), a0(Y), "
      "before(X, \"b\", Y, Z, 50, 50), lastsibling(Z).\n");
  EXPECT_TRUE(p.UsesDeltaBuiltins());
  const ElogCondition& before = p.rules()[1].conditions[2];
  EXPECT_EQ(before.alpha_pct, 50);
  EXPECT_EQ(before.beta_pct, 50);
}

TEST(ElogParseTest, RoundTrip) {
  const char* text =
      "item(X) <- root(R), subelem(R, \"table.tr\", X), lastsibling(X).\n";
  ElogProgram p1 = MustParseElog(text);
  ElogProgram p2 = MustParseElog(ToString(p1));
  EXPECT_EQ(ToString(p1), ToString(p2));
}

TEST(ElogValidateTest, RejectsIllFormedRules) {
  // Subelem from a variable that is not the parent variable.
  EXPECT_FALSE(
      ParseElog("p(X) <- root(R), subelem(Q, \"a\", X).").ok());
  // Disconnected condition variable.
  EXPECT_FALSE(
      ParseElog("p(X) <- root(R), subelem(R, \"a\", X), leaf(Z).").ok());
  // Head pattern named root.
  EXPECT_FALSE(ParseElog("root(X) <- root(R), subelem(R, \"a\", X).").ok());
  // Missing final dot.
  EXPECT_FALSE(ParseElog("p(X) <- root(R), subelem(R, \"a\", X)").ok());
}

// ---------------------------------------------------------------------------
// PathTargets and native evaluation
// ---------------------------------------------------------------------------

TEST(PathTargetsTest, WildcardsAndLabels) {
  // a(b(c,d), e(c))
  TreeBuilder b;
  NodeId r = b.Root("a");
  NodeId n1 = b.Child(r, "b");
  b.Child(n1, "c");
  b.Child(n1, "d");
  NodeId n4 = b.Child(r, "e");
  b.Child(n4, "c");
  Tree t = b.Build();
  auto targets = [&](const char* path) {
    return PathTargets(t, t.root(), *ElogPath::Parse(path));
  };
  EXPECT_EQ(targets("b"), (std::vector<NodeId>{1}));
  EXPECT_EQ(targets("_"), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(targets("_.c"), (std::vector<NodeId>{2, 5}));
  EXPECT_EQ(targets("b.c"), (std::vector<NodeId>{2}));
  EXPECT_EQ(targets("z"), (std::vector<NodeId>{}));
  EXPECT_EQ(targets(""), (std::vector<NodeId>{0}));
}

TEST(ElogEvalTest, WrapperOnHandBuiltTree) {
  // page(list(item,item,item))
  TreeBuilder b;
  NodeId r = b.Root("page");
  NodeId list = b.Child(r, "list");
  b.Child(list, "item");
  b.Child(list, "item");
  b.Child(list, "item");
  Tree t = b.Build();
  ElogProgram p = MustParseElog(
      "entry(X) <- root(R), subelem(R, \"list.item\", X).\n"
      "last(X) <- entry(X), lastsibling(X).\n"
      "notlast(X) <- entry(X), nextsibling(X, Y).\n");
  auto result = EvaluateElog(p, t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Of("entry"), (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(result->Of("last"), (std::vector<NodeId>{4}));
  EXPECT_EQ(result->Of("notlast"), (std::vector<NodeId>{2, 3}));
}

TEST(ElogEvalTest, RecursivePattern) {
  // All descendants via the recursive dom idiom.
  util::Rng rng(4);
  Tree t = tree::RandomTree(rng, 20, {"a", "b"});
  ElogProgram p = MustParseElog(
      "anynode(X) <- root(X).\n"
      "anynode(X) <- anynode(P), subelem(P, \"_\", X).\n");
  auto result = EvaluateElog(p, t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<int32_t>(result->Of("anynode").size()), t.size());
}

TEST(ElogEvalTest, ContainsAndPatternRefs) {
  // Select items that contain a "sale" marker somewhere two levels down.
  TreeBuilder b;
  NodeId r = b.Root("shop");
  NodeId i1 = b.Child(r, "item");
  NodeId w1 = b.Child(i1, "wrap");
  b.Child(w1, "sale");
  NodeId i2 = b.Child(r, "item");
  b.Child(i2, "wrap");
  Tree t = b.Build();
  ElogProgram p = MustParseElog(
      "item(X) <- root(R), subelem(R, \"item\", X).\n"
      "sale(X) <- item(X), contains(X, \"wrap.sale\", Y).\n");
  auto result = EvaluateElog(p, t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Of("item"), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(result->Of("sale"), (std::vector<NodeId>{1}));
}

// ---------------------------------------------------------------------------
// Theorem 6.5, easy direction: Elog⁻ → monadic datalog
// ---------------------------------------------------------------------------

void ExpectElogMatchesDatalog(const ElogProgram& p, const Tree& t) {
  auto native = EvaluateElog(p, t);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  auto datalog = ElogToDatalog(p);
  ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
  auto eval = core::EvaluateOnTree(*datalog, t);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  for (const std::string& pattern : p.Patterns()) {
    core::PredId pred = datalog->preds().Find("pat_" + pattern);
    ASSERT_GE(pred, 0) << pattern;
    EXPECT_EQ(eval->Unary(pred), native->Of(pattern))
        << pattern << " on " << tree::ToDebugString(t);
  }
}

TEST(ElogToDatalogTest, MatchesNativeEvaluation) {
  util::Rng rng(2026);
  ElogProgram p = MustParseElog(
      "entry(X) <- root(R), subelem(R, \"_.item\", X).\n"
      "deep(X) <- entry(X), contains(X, \"_._\", Y).\n"
      "first(X) <- entry(X), firstsibling(X).\n"
      "follower(X) <- root(R), subelem(R, \"_._\", X), "
      "nextsibling(Y, X), first(Y).\n"
      "leafentry(X) <- entry(X), leaf(X).\n");
  for (int trial = 0; trial < 12; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(40)),
                              {"item", "a", "b"});
    ExpectElogMatchesDatalog(p, t);
  }
}

TEST(ElogToDatalogTest, RecursiveWrapper) {
  util::Rng rng(31);
  ElogProgram p = MustParseElog(
      "anynode(X) <- root(X).\n"
      "anynode(X) <- anynode(P), subelem(P, \"_\", X).\n"
      "aleaf(X) <- anynode(X), leaf(X).\n");
  for (int trial = 0; trial < 8; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(25)),
                              {"a", "b"});
    ExpectElogMatchesDatalog(p, t);
  }
}

TEST(ElogToDatalogTest, RejectsDeltaBuiltins) {
  ElogProgram p = MustParseElog(
      "a0(X) <- root(R), subelem(R, \"a\", X), notafter(R, \"a\", X).\n");
  EXPECT_FALSE(ElogToDatalog(p).ok());
}

TEST(ElogToDatalogTest, Corollary64GroundableAfterTmnf) {
  // Elog⁻ → datalog over τ_ur ∪ {child} → TMNF → linear grounded engine:
  // the Corollary 6.4 evaluation path.
  ElogProgram p = MustParseElog(
      "entry(X) <- root(R), subelem(R, \"list.item\", X).\n"
      "last(X) <- entry(X), lastsibling(X).\n");
  auto datalog = ElogToDatalog(p, "last");
  ASSERT_TRUE(datalog.ok());
  auto tmnf = ::mdatalog::tmnf::ToTmnf(*datalog);
  ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString();
  EXPECT_TRUE(core::GroundableOverTree(*tmnf));

  TreeBuilder b;
  NodeId r = b.Root("page");
  NodeId list = b.Child(r, "list");
  b.Child(list, "item");
  b.Child(list, "item");
  Tree t = b.Build();
  auto eval = core::EvaluateGrounded(*tmnf, t);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->Query(), (std::vector<int32_t>{3}));
}

// ---------------------------------------------------------------------------
// Theorem 6.5, hard direction: monadic datalog → Elog⁻
// ---------------------------------------------------------------------------

void ExpectDatalogMatchesElog(const core::Program& program, const Tree& t) {
  auto elog = DatalogToElog(program);
  ASSERT_TRUE(elog.ok()) << elog.status().ToString();
  auto native = EvaluateElog(*elog, t);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  auto reference = core::EvaluateOnTree(program, t);
  ASSERT_TRUE(reference.ok());
  std::vector<bool> intensional = program.IntensionalMask();
  for (core::PredId q = 0; q < program.preds().size(); ++q) {
    if (!intensional[q] || program.preds().Arity(q) != 1) continue;
    EXPECT_EQ(native->Of(program.preds().Name(q)), reference->Unary(q))
        << program.preds().Name(q) << " on " << tree::ToDebugString(t)
        << "\nElog:\n" << ToString(*elog);
  }
}

TEST(DatalogToElogTest, RoundTripOnTestCorpus) {
  // Trees get a dedicated root label "r" that no program tests, sidestepping
  // the construction's documented root-label corner.
  util::Rng rng(606);
  const char* programs[] = {
      "q(X) :- leaf(X), label_a(X).",
      "q(X) :- firstchild(X0, X), label_b(X0).",
      "q(X) :- child(X, Y), label_a(Y).",
      "q(X) :- q2(X), lastsibling(X).\nq2(X) :- label_a(X).",
      "q(Y) :- q2(X), nextsibling(X, Y).\nq2(X) :- firstsibling(X), "
      "label_b(X).",
      "q(X) :- root(X).",
  };
  for (const char* text : programs) {
    auto program = core::ParseProgram(text);
    ASSERT_TRUE(program.ok());
    for (int trial = 0; trial < 8; ++trial) {
      tree::TreeBuilder b;
      b.Root("r");
      Tree inner = tree::RandomTree(rng,
                                    1 + static_cast<int32_t>(rng.Below(18)),
                                    {"a", "b"});
      // Graft the random tree under the fixed-label root.
      std::function<void(const Tree&, NodeId, NodeId)> graft =
          [&](const Tree& src, NodeId s, NodeId dst) {
            NodeId built = b.Child(dst, src.label_name(s));
            for (NodeId c = src.first_child(s); c != tree::kNoNode;
                 c = src.next_sibling(c)) {
              graft(src, c, built);
            }
          };
      graft(inner, inner.root(), 0);
      Tree t = b.Build();
      ExpectDatalogMatchesElog(*program, t);
    }
  }
}

TEST(DatalogToElogTest, EvenAProgramRoundTrip) {
  util::Rng rng(77);
  // Σ − {a} = {b} only: the root label "r" stays outside the program's
  // alphabet, so neither side tests the root's own label (the Theorem 6.5
  // construction cannot — see RootLabelCaveatIsDocumentedBehavior).
  core::Program even_a = core::EvenAProgram({"b"});
  for (int trial = 0; trial < 6; ++trial) {
    tree::TreeBuilder b;
    b.Root("r");
    Tree inner = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(14)),
                                  {"a", "b"});
    std::function<void(const Tree&, NodeId, NodeId)> graft =
        [&](const Tree& src, NodeId s, NodeId dst) {
          NodeId built = b.Child(dst, src.label_name(s));
          for (NodeId c = src.first_child(s); c != tree::kNoNode;
               c = src.next_sibling(c)) {
            graft(src, c, built);
          }
        };
    graft(inner, inner.root(), 0);
    ExpectDatalogMatchesElog(even_a, b.Build());
  }
}

TEST(DatalogToElogTest, RootLabelCaveatIsDocumentedBehavior) {
  // The Theorem 6.5 construction cannot test the *root's own* label: a
  // label_a test compiles to a subelem step, and the root is nobody's child.
  auto program = core::ParseProgram("q(X) :- label_a(X).");
  ASSERT_TRUE(program.ok());
  auto elog = DatalogToElog(*program);
  ASSERT_TRUE(elog.ok());
  Tree t = tree::ChildrenWord("a", {"a", "b"});  // root labeled a!
  auto native = EvaluateElog(*elog, t);
  ASSERT_TRUE(native.ok());
  auto reference = core::EvaluateOnTree(*program, t);
  ASSERT_TRUE(reference.ok());
  // Datalog selects {0, 1}; Elog misses the root.
  EXPECT_EQ(reference->Unary(program->preds().Find("q")),
            (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(native->Of("q"), (std::vector<NodeId>{1}));
}

// ---------------------------------------------------------------------------
// Theorem 6.6: Elog⁻Δ accepts exactly aⁿbⁿ
// ---------------------------------------------------------------------------

ElogProgram AnBnProgram() {
  return MustParseElog(
      "a0(X) <- root(R), subelem(R, \"a\", X), notafter(R, \"a\", X).\n"
      "b0(X) <- root(R), subelem(R, \"b\", X), notafter(R, \"b\", X), "
      "notbefore(R, \"a\", X).\n"
      "anbn(X) <- root(X), contains(X, \"a\", Y), a0(Y), "
      "before(X, \"b\", Y, Z, 50, 50), b0(Z).\n");
}

TEST(AnBnTest, AcceptsExactlyEqualCounts) {
  ElogProgram p = AnBnProgram();
  for (int32_t n = 1; n <= 8; ++n) {
    for (int32_t m = 1; m <= 8; ++m) {
      std::vector<std::string> word;
      for (int32_t i = 0; i < n; ++i) word.push_back("a");
      for (int32_t i = 0; i < m; ++i) word.push_back("b");
      Tree t = tree::ChildrenWord("r", word);
      auto result = EvaluateElog(p, t);
      ASSERT_TRUE(result.ok());
      bool accepted = !result->Of("anbn").empty();
      EXPECT_EQ(accepted, n == m) << "a^" << n << " b^" << m;
    }
  }
}

TEST(AnBnTest, RejectsShuffledWords) {
  ElogProgram p = AnBnProgram();
  for (const std::vector<std::string>& word :
       {std::vector<std::string>{"a", "b", "a", "b"},
        std::vector<std::string>{"b", "b", "a", "a"},
        std::vector<std::string>{"a", "b", "b", "a"},
        std::vector<std::string>{"b", "a"}}) {
    Tree t = tree::ChildrenWord("r", word);
    auto result = EvaluateElog(p, t);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->Of("anbn").empty());
  }
}

TEST(AnBnTest, BeyondMsoWitness) {
  // The same query has no Elog⁻/datalog counterpart: translation refuses.
  EXPECT_FALSE(ElogToDatalog(AnBnProgram()).ok());
}

// ---------------------------------------------------------------------------
// Visual wrapper specification (Section 6.2)
// ---------------------------------------------------------------------------

/// What the session highlights for each pattern — the ground plan's extents
/// — is what the native evaluator computes for the session program.
void ExpectMatchesNative(const VisualSession& session, const Tree& t) {
  auto native = EvaluateElog(session.program(), t);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  for (const std::string& pattern : session.Patterns()) {
    auto matches = session.MatchesOf(pattern);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    EXPECT_EQ(*matches, pattern == "root" ? std::vector<NodeId>{t.root()}
                                          : native->Of(pattern))
        << pattern << " under\n" << ToString(session.program());
  }
}

TEST(VisualTest, BuildCatalogWrapperByClicks) {
  util::Rng rng(1);
  html::CatalogOptions opts;
  opts.num_items = 5;
  auto doc = html::ParseHtml(html::ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  // Use class-projected labels so item rows are distinguishable (Remark 2.2).
  Tree t = html::ProjectAttributeIntoLabels(*doc, "class");

  VisualSession session(t);
  EXPECT_EQ(session.Patterns(), (std::vector<std::string>{"root"}));

  // "Click" the second item row: find it in the tree.
  NodeId item_row = tree::kNoNode;
  int32_t seen = 0;
  for (NodeId n = 0; n < t.size(); ++n) {
    if (t.label_name(n) == "tr@item" && ++seen == 2) item_row = n;
  }
  ASSERT_NE(item_row, tree::kNoNode);
  auto rule = session.SelectNode("item", "root", t.root(), item_row);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ExpectMatchesNative(session, t);

  // The inferred rule generalizes to all 5 item rows immediately (fixed
  // path, same location).
  auto items = session.MatchesOf("item");
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->size(), 5u);

  // Click the price cell inside the first item instance.
  NodeId first_item = (*items)[0];
  NodeId price_cell = tree::kNoNode;
  for (NodeId c = t.first_child(first_item); c != tree::kNoNode;
       c = t.next_sibling(c)) {
    if (t.label_name(c) == "td@price") price_cell = c;
  }
  ASSERT_NE(price_cell, tree::kNoNode);
  auto price_rule = session.SelectNode("price", "item", first_item,
                                       price_cell);
  ASSERT_TRUE(price_rule.ok());
  ExpectMatchesNative(session, t);
  auto prices = session.MatchesOf("price");
  ASSERT_TRUE(prices.ok());
  EXPECT_EQ(prices->size(), 5u);

  // Refine the item rule with an Elog⁻Δ condition: notafter keeps the item
  // row that comes after no other — the first one — and its price with it.
  const ElogRule& item_rule = session.program().rules()[*rule];
  ElogCondition last;
  last.kind = ElogCondition::Kind::kNotAfter;
  last.var1 = item_rule.parent_var;
  last.var2 = item_rule.head_var;
  last.path = item_rule.subelem;
  ASSERT_TRUE(session.AddCondition(*rule, last).ok());
  ExpectMatchesNative(session, t);
  items = session.MatchesOf("item");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items->size(), 1u);
  EXPECT_EQ(items->front(), first_item);
  prices = session.MatchesOf("price");
  ASSERT_TRUE(prices.ok());
  EXPECT_EQ(prices->size(), 1u);
}

TEST(VisualTest, GeneralizationSurvivesLayoutChange) {
  util::Rng rng(2);
  html::CatalogOptions opts;
  opts.num_items = 4;
  auto doc = html::ParseHtml(html::ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  Tree t = html::ProjectAttributeIntoLabels(*doc, "class");

  VisualSession session(t);
  NodeId item_row = tree::kNoNode;
  for (NodeId n = 0; n < t.size(); ++n) {
    if (t.label_name(n) == "tr@item") {
      item_row = n;
      break;
    }
  }
  ASSERT_NE(item_row, tree::kNoNode);
  auto rule = session.SelectNode("item", "root", t.root(), item_row);
  ASSERT_TRUE(rule.ok());
  ExpectMatchesNative(session, t);
  // Generalize every structural step except the final "tr@item" to "_": the
  // wrapper no longer depends on the page skeleton.
  const ElogRule& r = session.program().rules()[*rule];
  for (int32_t i = 0;
       i + 1 < static_cast<int32_t>(r.subelem.steps.size()); ++i) {
    ASSERT_TRUE(session.GeneralizeStep(*rule, i).ok());
    ExpectMatchesNative(session, t);
  }

  // Same wrapper on the *alternative layout* page (extra wrapper div):
  html::CatalogOptions alt = opts;
  alt.alt_layout = true;
  auto alt_doc = html::ParseHtml(html::ProductCatalogPage(rng, alt));
  ASSERT_TRUE(alt_doc.ok());
  Tree alt_tree = html::ProjectAttributeIntoLabels(*alt_doc, "class");
  // The generalized path has a fixed depth; the alt layout adds one level,
  // so robust wrapping needs the recursive idiom — build it:
  ElogProgram robust = MustParseElog(
      "anynode(X) <- root(X).\n"
      "anynode(X) <- anynode(P), subelem(P, \"_\", X).\n"
      "item(X) <- anynode(P), subelem(P, \"tr@item\", X).\n");
  auto on_orig = EvaluateElog(robust, t);
  auto on_alt = EvaluateElog(robust, alt_tree);
  ASSERT_TRUE(on_orig.ok());
  ASSERT_TRUE(on_alt.ok());
  EXPECT_EQ(on_orig->Of("item").size(), 4u);
  EXPECT_EQ(on_alt->Of("item").size(), 4u);
}

TEST(VisualTest, SelectNodeValidatesInputs) {
  Tree t = tree::ChildrenWord("r", {"a", "b"});
  VisualSession session(t);
  // Parent instance not matching the pattern.
  EXPECT_FALSE(session.SelectNode("p", "root", 1, 2).ok());
  // Target outside the parent instance.
  EXPECT_FALSE(session.SelectNode("p", "root", 0, 0).ok());
  // Unknown parent pattern.
  EXPECT_FALSE(session.SelectNode("p", "nope", 0, 1).ok());
}

// ---------------------------------------------------------------------------
// Wrapper output
// ---------------------------------------------------------------------------

TEST(WrapperTest, OutputTreePreservesHierarchyAndOrder) {
  util::Rng rng(3);
  html::CatalogOptions opts;
  opts.num_items = 3;
  std::string page = html::ProductCatalogPage(rng, opts);
  auto doc = html::ParseHtml(page);
  ASSERT_TRUE(doc.ok());
  Tree t = html::ProjectAttributeIntoLabels(*doc, "class");

  wrapper::Wrapper w;
  w.program = MustParseElog(
      "anynode(X) <- root(X).\n"
      "anynode(X) <- anynode(P), subelem(P, \"_\", X).\n"
      "item(X) <- anynode(P), subelem(P, \"tr@item\", X).\n"
      "name(Y) <- item(X), subelem(X, \"td@name\", Y).\n"
      "price(Y) <- item(X), subelem(X, \"td@price\", Y).\n");
  w.extraction_patterns = {"item", "name", "price"};

  auto xml = wrapper::WrapTree(w, t);
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  // Three items under the result, each with its name and price in document
  // order; the price leaves carry the cell text.
  EXPECT_TRUE(std::regex_match(
      *xml, std::regex("<result>\n"
                       "(  <item>\n"
                       "    <name>[^<]+</name>\n"
                       "    <price>\\$[^<]+</price>\n"
                       "  </item>\n){3}"
                       "</result>\n")))
      << *xml;
}

TEST(WrapperTest, EndToEndHtmlToXml) {
  wrapper::Wrapper w;
  w.program = MustParseElog(
      "entry(X) <- root(R), subelem(R, \"body.ul.li\", X).\n");
  w.extraction_patterns = {"entry"};
  auto xml = wrapper::WrapHtmlToXml(
      w, "<html><body><ul><li>one<li>two</ul></body></html>");
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  EXPECT_NE(xml->find("<entry>one</entry>"), std::string::npos);
  EXPECT_NE(xml->find("<entry>two</entry>"), std::string::npos);
}

TEST(WrapperTest, NodeWithMultiplePatternsNests) {
  Tree t = tree::ChildrenWord("r", {"a"});
  wrapper::Wrapper w;
  w.program = MustParseElog(
      "x(X) <- root(R), subelem(R, \"a\", X).\n"
      "y(X) <- x(X), leaf(X).\n");
  w.extraction_patterns = {"x", "y"};
  auto xml = wrapper::WrapTree(w, t);
  ASSERT_TRUE(xml.ok());
  // result > x > y (same input node, nested by pattern order).
  EXPECT_EQ(*xml, "<result>\n  <x>\n    <y></y>\n  </x>\n</result>\n");
}

}  // namespace
}  // namespace mdatalog::elog
