#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/html/tokenizer.h"
#include "src/tree/serialize.h"
#include "src/util/rng.h"
#include "tests/support/fixtures.h"

namespace mdatalog::html {
namespace {

using tree::NodeId;

/// The labels a one-pass ParseTree(page, attr) gives every node: the tag,
/// plus "@value" when the node's first `attr` attribute (as Document
/// records it) is non-empty. Same node ids on both sides.
void ExpectProjectionMatchesAttributes(std::string_view page,
                                       const std::string& attr) {
  auto doc = ParseHtml(page);
  auto projected = ParseTree(page, attr);
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(projected.ok());
  ASSERT_EQ(projected->size(), doc->tree().size());
  for (NodeId n = 0; n < projected->size(); ++n) {
    std::string label = doc->tree().label_name(n);
    const std::string value = doc->GetAttr(n, attr);
    if (!value.empty()) label += "@" + value;
    EXPECT_EQ(projected->label_name(n), label) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(TokenizerTest, BasicTagsAndText) {
  auto tokens = Tokenize("<p>Hello</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, Token::Type::kStartTag);
  EXPECT_EQ(tokens[0].data, "p");
  EXPECT_EQ(tokens[1].type, Token::Type::kText);
  EXPECT_EQ(tokens[1].data, "Hello");
  EXPECT_EQ(tokens[2].type, Token::Type::kEndTag);
}

TEST(TokenizerTest, TagNamesAreLowercased) {
  auto tokens = Tokenize("<DIV CLASS=Big></DIV>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].data, "div");
  ASSERT_EQ(tokens[0].attrs.size(), 1u);
  EXPECT_EQ(tokens[0].attrs[0].name, "class");
  EXPECT_EQ(tokens[0].attrs[0].value, "Big");  // values keep their case
}

TEST(TokenizerTest, AttributeQuoting) {
  auto tokens =
      Tokenize("<a href=\"x&amp;y\" title='hi there' data-k=v checked>");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& attrs = tokens[0].attrs;
  ASSERT_GE(attrs.size(), 4u);
  EXPECT_EQ(attrs[0].name, "href");
  EXPECT_EQ(attrs[0].value, "x&y");
  EXPECT_EQ(attrs[1].name, "title");
  EXPECT_EQ(attrs[1].value, "hi there");
  EXPECT_EQ(attrs[2].name, "data-k");
  EXPECT_EQ(attrs[2].value, "v");
  EXPECT_EQ(attrs[3].name, "checked");
  EXPECT_EQ(attrs[3].value, "");
}

TEST(TokenizerTest, SelfClosingAndComments) {
  auto tokens = Tokenize("<br/><!-- note --><img src=x />");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].self_closing);
  EXPECT_EQ(tokens[1].type, Token::Type::kComment);
  EXPECT_EQ(tokens[1].data, " note ");
  EXPECT_TRUE(tokens[2].self_closing);
}

TEST(TokenizerTest, DoctypeAndEntities) {
  auto tokens = Tokenize("<!DOCTYPE html><p>a &lt; b &amp; c &#65;</p>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, Token::Type::kDoctype);
  EXPECT_EQ(tokens[2].data, "a < b & c A");
}

TEST(TokenizerTest, ScriptContentIsRaw) {
  auto tokens = Tokenize("<script>if (a < b) { x(); }</script><p>hi</p>");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].data, "script");
  // The inequality sign did not open a tag.
  bool has_p = false;
  for (const auto& t : tokens) {
    if (t.type == Token::Type::kStartTag && t.data == "p") has_p = true;
  }
  EXPECT_TRUE(has_p);
}

TEST(TokenizerTest, StrayAngleBracketIsText) {
  auto tokens = Tokenize("<p>1 < 2</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].data, "1 < 2");
}

TEST(TokenizerTest, WhitespaceOnlyTextIsDropped) {
  auto tokens = Tokenize("<div>\n  \t<p>x</p>\n</div>");
  for (const auto& t : tokens) {
    if (t.type == Token::Type::kText) {
      EXPECT_EQ(t.data, "x");
    }
  }
}

TEST(DecodeEntitiesTest, UnknownEntitiesPassThrough) {
  EXPECT_EQ(DecodeEntities("&bogus; &amp; &#9999;"), "&bogus; & &#9999;");
  EXPECT_EQ(DecodeEntities("&nbsp;"), " ");
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, BuildsNestedTree) {
  auto doc = ParseHtml("<html><body><p>hi</p></body></html>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  EXPECT_EQ(t.label_name(t.root()), "html");
  NodeId body = t.first_child(t.root());
  EXPECT_EQ(t.label_name(body), "body");
  NodeId p = t.first_child(body);
  EXPECT_EQ(t.label_name(p), "p");
  NodeId text = t.first_child(p);
  EXPECT_EQ(t.label_name(text), "#text");
  EXPECT_EQ(t.text(text), "hi");
}

TEST(ParserTest, SyntheticRootForFragments) {
  auto doc = ParseHtml("<p>a</p><p>b</p>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->tree().label_name(0), "#document");
  EXPECT_EQ(doc->tree().NumChildren(0), 2);
}

TEST(ParserTest, VoidElementsDoNotNest) {
  auto doc = ParseHtml("<div><br><img src=x><span>y</span></div>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  EXPECT_EQ(t.NumChildren(t.root()), 3);  // br, img, span all siblings
}

TEST(ParserTest, AutoCloseListItems) {
  auto doc = ParseHtml("<ul><li>a<li>b<li>c</ul>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  EXPECT_EQ(t.label_name(t.root()), "ul");
  EXPECT_EQ(t.NumChildren(t.root()), 3);
}

TEST(ParserTest, AutoCloseTableCellsAndRows) {
  auto doc = ParseHtml("<table><tr><td>1<td>2<tr><td>3</table>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  std::vector<NodeId> rows = t.Children(t.root());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(t.NumChildren(rows[0]), 2);
  EXPECT_EQ(t.NumChildren(rows[1]), 1);
}

TEST(ParserTest, NestedListsKeepNesting) {
  auto doc = ParseHtml("<ul><li>a<ul><li>a1<li>a2</ul></li><li>b</ul>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  std::vector<NodeId> top = t.Children(t.root());
  ASSERT_EQ(top.size(), 2u);
  // First li contains text + inner ul with two li's.
  std::vector<NodeId> inner = t.Children(top[0]);
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(t.label_name(inner[1]), "ul");
  EXPECT_EQ(t.NumChildren(inner[1]), 2);
}

TEST(ParserTest, UnmatchedEndTagIgnored) {
  auto doc = ParseHtml("<div><p>x</span></p></div>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(tree::ToDebugString(doc->tree()), "div(p(#text))");
}

TEST(ParserTest, UnclosedTagsCloseAtEof) {
  auto doc = ParseHtml("<div><p>x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(tree::ToDebugString(doc->tree()), "div(p(#text))");
}

TEST(ParserTest, EmptyInputFails) {
  EXPECT_FALSE(ParseHtml("").ok());
  EXPECT_FALSE(ParseHtml("   \n  ").ok());
  EXPECT_FALSE(ParseHtml("<!-- only a comment -->").ok());
}

TEST(ParserTest, AttributesAccessible) {
  auto doc = ParseHtml("<div class=main id=top><a href=\"/x\">l</a></div>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetAttr(0, "class"), "main");
  EXPECT_EQ(doc->GetAttr(0, "id"), "top");
  EXPECT_EQ(doc->GetAttr(0, "style"), "");
  std::vector<NodeId> with_href;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "href") == "/x") with_href.push_back(n);
  }
  ASSERT_EQ(with_href.size(), 1u);
  EXPECT_EQ(doc->tree().label_name(with_href[0]), "a");

  // The same attributes through construction-time projection.
  const std::string page = "<div class=main id=top><a href=\"/x\">l</a></div>";
  EXPECT_EQ(ParseTree(page, "class")->label_name(0), "div@main");
  EXPECT_EQ(ParseTree(page, "id")->label_name(0), "div@top");
  EXPECT_EQ(ParseTree(page, "style")->label_name(0), "div");
  EXPECT_EQ(ParseTree(page, "href")->label_name(with_href[0]), "a@/x");
  for (const std::string attr : {"class", "id", "href", "style"}) {
    ExpectProjectionMatchesAttributes(page, attr);
  }
}

TEST(ParserTest, ProjectAttributeIntoLabels) {
  auto doc = ParseHtml("<div class=main><span class=price>$5</span></div>");
  ASSERT_TRUE(doc.ok());
  tree::Tree t = ProjectAttributeIntoLabels(*doc, "class");
  EXPECT_EQ(t.label_name(t.root()), "div@main");
  EXPECT_EQ(t.label_name(t.first_child(t.root())), "span@price");
}

// ---------------------------------------------------------------------------
// Synthetic pages
// ---------------------------------------------------------------------------

TEST(SyntheticTest, CatalogPageStructure) {
  util::Rng rng(1);
  CatalogOptions opts;
  opts.num_items = 7;
  auto doc = ParseHtml(ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  // Count rows with class=item.
  std::vector<NodeId> items;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->tree().label_name(n) == "tr" &&
        doc->GetAttr(n, "class") == "item") {
      items.push_back(n);
    }
  }
  EXPECT_EQ(items.size(), 7u);
  // Each item row has name/price/seller cells.
  for (NodeId row : items) {
    std::vector<NodeId> cells = doc->tree().Children(row);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(doc->GetAttr(cells[0], "class"), "name");
    EXPECT_EQ(doc->GetAttr(cells[1], "class"), "price");
    EXPECT_EQ(doc->GetAttr(cells[2], "class"), "seller");
    EXPECT_FALSE(doc->tree().SubtreeText(cells[1]).empty());
  }

  // The same rows and cells through construction-time projection.
  util::Rng again(1);
  const std::string page = ProductCatalogPage(again, opts);
  auto projected = ParseTree(page, "class");
  ASSERT_TRUE(projected.ok());
  for (NodeId row : items) {
    EXPECT_EQ(projected->label_name(row), "tr@item");
    std::vector<NodeId> cells = projected->Children(row);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(projected->label_name(cells[0]), "td@name");
    EXPECT_EQ(projected->label_name(cells[1]), "td@price");
    EXPECT_EQ(projected->label_name(cells[2]), "td@seller");
  }
  ExpectProjectionMatchesAttributes(page, "class");
}

TEST(SyntheticTest, CatalogAdsAddRows) {
  util::Rng rng(2);
  CatalogOptions opts;
  opts.num_items = 9;
  opts.with_ads = true;
  auto doc = ParseHtml(ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  int32_t ads = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "class") == "ad") ++ads;
  }
  EXPECT_EQ(ads, 2);  // after items 3 and 6
  util::Rng again(2);
  ExpectProjectionMatchesAttributes(ProductCatalogPage(again, opts), "class");
}

TEST(SyntheticTest, AltLayoutKeepsItems) {
  util::Rng rng(3);
  CatalogOptions opts;
  opts.num_items = 5;
  opts.alt_layout = true;
  auto doc = ParseHtml(ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  int32_t items = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "class") == "item") ++items;
  }
  EXPECT_EQ(items, 5);
  util::Rng again(3);
  ExpectProjectionMatchesAttributes(ProductCatalogPage(again, opts), "class");
}

TEST(SyntheticTest, NewsIndexArticles) {
  util::Rng rng(4);
  auto doc = ParseHtml(NewsIndexPage(rng, 12));
  ASSERT_TRUE(doc.ok());
  int32_t articles = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "class") == "article") ++articles;
  }
  EXPECT_EQ(articles, 12);
  util::Rng again(4);
  ExpectProjectionMatchesAttributes(NewsIndexPage(again, 12), "class");
}

TEST(SyntheticTest, NestedBoardDepth) {
  util::Rng rng(5);
  auto doc = ParseHtml(NestedBoardPage(rng, 3, 2));
  ASSERT_TRUE(doc.ok());
  // The deepest li chain passes through 4 levels of ul.
  int32_t max_ul_depth = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->tree().label_name(n) != "ul") continue;
    int32_t d = 0;
    for (NodeId p = n; p != tree::kNoNode; p = doc->tree().parent(p)) {
      if (doc->tree().label_name(p) == "ul") ++d;
    }
    max_ul_depth = std::max(max_ul_depth, d);
  }
  EXPECT_EQ(max_ul_depth, 4);
}

TEST(SyntheticTest, GeneratorsAreDeterministic) {
  util::Rng a(42), b(42);
  CatalogOptions opts;
  EXPECT_EQ(ProductCatalogPage(a, opts), ProductCatalogPage(b, opts));
}

// ---------------------------------------------------------------------------
// Pinned parser behavior
// ---------------------------------------------------------------------------

struct Golden {
  std::string_view html;
  std::string_view tree;       ///< ToDebugString(ParseHtml)
  std::string_view projected;  ///< ToDebugString under "class" projection
  std::string_view texts;      ///< "node=text|" for every node with text
};

/// Edge cases whose trees were recorded from the token-vector parser that
/// preceded the in-place scanner; the scanner must reproduce them exactly.
constexpr Golden kGoldens[] = {
    {"<p>1 < 2 <3 <</p>", "p(#text)", "p(#text)", "1=1 < 2 <3 <|"},
    {"<DIV CLASS=Big ID=Top><SPAN Class=X>t</SPAN></DIV>", "div(span(#text))",
     "div@Big(span@X(#text))", "2=t|"},
    {"<div class=\"a&amp;b\"><p class='x &lt; y'>t</p></div>", "div(p(#text))",
     "div@a&b(p@x < y(#text))", "2=t|"},
    {"<a href=/x?a=1 checked disabled title = \"q\" class=>l</a>", "a(#text)",
     "a(#text)", "1=l|"},
    // Raw-text end tags match case-sensitively: </SCRIPT> does not close.
    {"<div><script>var x = 1;</SCRIPT><p>after</p></div>", "div(script)",
     "div(script)", ""},
    {"<div><script/><p>a</p></script><p>b</p></div>", "div(script,p(#text))",
     "div(script,p(#text))", "3=b|"},
    {"<p>x</p><!-", "p(#text)", "p(#text)", "1=x|"},
    {"<p>x</p><!-- never closed <p>y</p>", "p(#text)", "p(#text)", "1=x|"},
    {"<ul><li class=a class=b>1<li class=\"\" class=c>2</ul>",
     "ul(li(#text),li(#text))", "ul(li@a(#text),li(#text))", "2=1|4=2|"},
    {"text<b>bold</b>tail &amp; &#65;&#9999; &bogus;",
     "#document(#text,b(#text),#text)", "#document(#text,b(#text),#text)",
     "1=text|3=bold|4=tail & A&#9999; &bogus;|"},
    {"<table><tr><td>1<td>2<tr><td>3</table><br/>",
     "#document(table(tr(td(#text),td(#text)),tr(td(#text))),br)",
     "#document(table(tr(td(#text),td(#text)),tr(td(#text))),br)",
     "4=1|6=2|9=3|"},
    {"<div>\n  <p>x</p>\n</div>\n", "div(p(#text))", "div(p(#text))", "2=x|"},
    {"<!DOCTYPE html><html><head><style>p{}</style></head><body><p>a<b>b</p>"
     "c</body></html>",
     "html(head(style),body(p(#text,b(#text)),#text))",
     "html(head(style),body(p(#text,b(#text)),#text))", "5=a|7=b|8=c|"},
    {"<x-y:z data_k=v/>after", "x-y:z(#text)", "x-y:z(#text)", "1=after|"},
};

std::string TextsOf(const tree::Tree& t) {
  std::string out;
  for (NodeId n = 0; n < t.size(); ++n) {
    if (t.HasText(n)) {
      out += std::to_string(n) + "=" + std::string(t.text(n)) + "|";
    }
  }
  return out;
}

TEST(ParserGoldenTest, EdgeCasesKeepTheirTrees) {
  for (const Golden& g : kGoldens) {
    auto doc = ParseHtml(g.html);
    ASSERT_TRUE(doc.ok()) << g.html;
    EXPECT_EQ(tree::ToDebugString(doc->tree()), g.tree) << g.html;
    EXPECT_EQ(TextsOf(doc->tree()), g.texts) << g.html;
    EXPECT_EQ(tree::ToDebugString(ProjectAttributeIntoLabels(*doc, "class")),
              g.projected)
        << g.html;
    auto projected = ParseTree(g.html, "class");
    ASSERT_TRUE(projected.ok()) << g.html;
    EXPECT_EQ(tree::ToDebugString(*projected), g.projected) << g.html;
    EXPECT_EQ(TextsOf(*projected), g.texts) << g.html;
  }
}

TEST(ParserGoldenTest, DroppedRootLeavesTheAlphabet) {
  auto t = ParseTree("<div><p>x</p></div>");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->FindLabel(kDocumentLabel), util::kInvalidSymbol);
  ASSERT_EQ(t->labels().size(), 3);
  EXPECT_EQ(t->labels().Name(0), "div");
  EXPECT_EQ(t->labels().Name(1), "p");
  EXPECT_EQ(t->labels().Name(2), "#text");
  // Kept above several top-level nodes.
  auto kept = ParseTree("<p>a</p><p>b</p>");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->label_name(kept->root()), kDocumentLabel);
}

// ---------------------------------------------------------------------------
// Chunking invariance: the streaming ingestion (scanner fed in chunks into
// the same tree construction) builds the batch tree
// ---------------------------------------------------------------------------

util::Result<tree::Tree> StreamedTree(std::string_view page, size_t chunk,
                                      std::string_view attr) {
  TreeConstructor<> constructor(attr);
  Scanner scanner;
  for (size_t i = 0; i < page.size(); i += chunk) {
    MD_RETURN_NOT_OK(scanner.Feed(page.substr(i, chunk), &constructor));
  }
  MD_RETURN_NOT_OK(scanner.Finish(&constructor));
  constructor.CloseAll();
  return constructor.Build();
}

/// Same shape, labels, texts and alphabet order (the order the corpus
/// store packs label ids in).
void ExpectSameTree(const tree::Tree& got, const tree::Tree& want,
                    const std::string& context) {
  EXPECT_TRUE(tree::TreesEqual(got, want)) << context;
  ASSERT_EQ(got.labels().size(), want.labels().size()) << context;
  for (int32_t l = 0; l < got.labels().size(); ++l) {
    EXPECT_EQ(got.labels().Name(l), want.labels().Name(l)) << context;
  }
}

/// The robustness suite's junk generator: random bytes from a pool rich in
/// markup-significant characters.
std::string Junk(util::Rng& rng) {
  constexpr std::string_view pool =
      "abcXY_()[]{}<>/\\.,:;|&~^-=*+\"'0123456789 \t\n%@#!?";
  std::string out;
  const int32_t len = 1 + static_cast<int32_t>(rng.Below(120));
  for (int32_t i = 0; i < len; ++i) out += pool[rng.Below(pool.size())];
  return out;
}

TEST(ChunkingInvarianceTest, StreamedTreeEqualsBatchParse) {
  std::vector<std::string> pages;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    CatalogOptions opts;
    opts.num_items = 4 + static_cast<int32_t>(seed);
    opts.with_ads = seed != 2;
    opts.alt_layout = seed == 3;
    pages.push_back(ProductCatalogPage(rng, opts));
  }
  {
    util::Rng rng(7);
    pages.push_back(NewsIndexPage(rng, 5));
    pages.push_back(NestedBoardPage(rng, 3, 3));
  }
  for (const Golden& g : kGoldens) pages.emplace_back(g.html);
  util::Rng junk(77);
  for (int i = 0; i < 300; ++i) pages.push_back(Junk(junk));

  for (size_t pi = 0; pi < pages.size(); ++pi) {
    const std::string& page = pages[pi];
    auto doc = ParseHtml(page);
    for (const size_t chunk : {1, 2, 3, 7, 64, 4096}) {
      const std::string context =
          "page " + std::to_string(pi) + ", chunk " + std::to_string(chunk);
      auto raw = StreamedTree(page, chunk, "");
      auto projected = StreamedTree(page, chunk, "class");
      ASSERT_EQ(raw.ok(), doc.ok()) << context;
      ASSERT_EQ(projected.ok(), doc.ok()) << context;
      if (!doc.ok()) continue;
      ExpectSameTree(*raw, doc->tree(), context);
      ExpectSameTree(*projected, ProjectAttributeIntoLabels(*doc, "class"),
                     context);
    }
  }
}

}  // namespace
}  // namespace mdatalog::html
