// The streaming front: SAX-style incremental tokenization, chunked tree growth
// and the incremental ground-plan replay (src/stream/). The load-bearing
// invariant — pinned here as a differential property test — is that for every
// input under every chunking (whole page, one byte at a time, random
// boundaries, adversarial mid-tag / mid-attribute / mid-entity splits) the
// streaming session's Finish() XML is byte-identical to batch
// WrapperRuntime::Wrap on the concatenated bytes, under every engine mode, and
// the results emitted before EOF are exactly the batch extents.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/html/tokenizer.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"
#include "tests/support/edb.h"
#include "tests/support/fixtures.h"

namespace {

using namespace mdatalog;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

wrapper::Wrapper CatalogWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    price(Y) <- item(X), subelem(X, "td@price", Y).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};
  return w;
}

wrapper::Wrapper BoardWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    litem(X) <- anynode(P), subelem(P, "li", X).
    deepleaf(X) <- litem(X), leaf(X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"litem", "deepleaf"};
  return w;
}

/// Raw-label wrapper for the handcrafted fragments: divs, list items and
/// last-sibling leaves — exercises label, join and tc-walk rule shapes.
wrapper::Wrapper GenericWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    adiv(X) <- anynode(P), subelem(P, "div", X).
    litem(X) <- anynode(P), subelem(P, "li", X).
    lastleaf(X) <- anynode(P), subelem(P, "_", X), leaf(X), lastsibling(X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"adiv", "litem", "lastleaf"};
  return w;
}

/// Elog⁻Δ (notafter has no datalog translation): a0 derives at the end of
/// input, the Δ-free anya streams.
wrapper::Wrapper DeltaWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    anya(X) <- anynode(P), subelem(P, "a", X).
    a0(X) <- root(R), subelem(R, "a", X), notafter(R, "a", X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"a0", "anya"};
  return w;
}

std::string CatalogPage(uint64_t seed, int32_t items) {
  util::Rng rng(seed);
  html::CatalogOptions opts;
  opts.num_items = items;
  opts.with_ads = true;
  return html::ProductCatalogPage(rng, opts);
}

std::string BoardPage(uint64_t seed, int32_t depth, int32_t fanout) {
  util::Rng rng(seed);
  return html::NestedBoardPage(rng, depth, fanout);
}

/// Parser stress fragments: auto-close chains, entities, raw-text elements,
/// comments and doctype, unmatched end tags, void / self-closing elements,
/// multiple top-level nodes (root kept) and single roots (root stripped).
const std::vector<std::string>& NastyPages() {
  static const std::vector<std::string> pages = {
      "<html><body><ul><li>a<li>b &amp; c<li>d</ul></body></html>",
      "<p>first<p>second<hr><p>third",
      R"(leading text<div class="x"><span>mid</span></div>trailing)",
      "<!DOCTYPE html><!-- note --><div><script>if(a<b){x=\"</div>\";}"
      "</script><em>t</em></div>",
      R"(<table><tr class=item><td class=price>1 &lt; 2</td><td>x</td>)"
      R"(<tr class=item><td class=price>3</td></table>)",
      "<div><p>unclosed<div>nested</div>",
      "<a/><br><img src=x><b>bold</b>",
      "justtext",
      "<div>&unknown; &amp;&#65;</div>",
      "<ul><li><ul><li>deep</ul></li></ul>",
      "<div>a<!-- c1 --><style>p { color: red }</style>b</div>",
      "<li>top-level-li<li>another",
  };
  return pages;
}

// ---------------------------------------------------------------------------
// Chunkings
// ---------------------------------------------------------------------------

std::vector<std::string> FixedChunks(const std::string& page, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < page.size(); i += n) {
    out.push_back(page.substr(i, n));
  }
  return out;
}

std::vector<std::string> RandomChunks(const std::string& page, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> out;
  size_t i = 0;
  while (i < page.size()) {
    const size_t n = 1 + rng.Below(17);
    out.push_back(page.substr(i, n));
    i += n;
  }
  return out;
}

/// Splits one byte after every occurrence of a sensitive byte: every tag,
/// attribute, quoted value, entity and comment ends up cut mid-construct.
std::vector<std::string> AdversarialChunks(const std::string& page) {
  static const std::string kSensitive = "<>&\"'=!-;";
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i < page.size(); ++i) {
    if (kSensitive.find(page[i]) != std::string::npos) {
      out.push_back(page.substr(start, i + 1 - start));
      start = i + 1;
    }
  }
  if (start < page.size()) out.push_back(page.substr(start));
  return out;
}

/// Every chunking a page is pushed through. `small` adds the quadratic-cost
/// one-byte chunking (reserved for short pages).
std::vector<std::vector<std::string>> Chunkings(const std::string& page,
                                                uint64_t seed, bool small) {
  std::vector<std::vector<std::string>> out;
  out.push_back({page});
  out.push_back(FixedChunks(page, 7));
  out.push_back(RandomChunks(page, seed));
  out.push_back(RandomChunks(page, seed + 1));
  out.push_back(AdversarialChunks(page));
  if (small) out.push_back(FixedChunks(page, 1));
  return out;
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

std::string TokenSig(const std::vector<html::Token>& tokens) {
  std::string sig;
  for (const html::Token& t : tokens) {
    sig += std::to_string(static_cast<int>(t.type));
    sig += '|';
    sig += t.data;
    for (const html::Attribute& a : t.attrs) {
      sig += '[' + a.name + '=' + a.value + ']';
    }
    if (t.self_closing) sig += "/";
    sig += '\n';
  }
  return sig;
}

/// Builds TokenSig's signature straight from the scanner's borrowed tokens.
class SigSink final : public html::TokenSink {
 public:
  void StartTag(const html::TagView& tag) override {
    Head(html::Token::Type::kStartTag, tag.name);
    for (const html::AttrView& a : tag.attrs) {
      sig += '[';
      sig += a.name;
      sig += '=';
      sig += a.value;
      sig += ']';
    }
    if (tag.self_closing) sig += "/";
    sig += '\n';
  }
  void EndTag(std::string_view name) override {
    Line(html::Token::Type::kEndTag, name);
  }
  void Text(std::string_view text) override {
    Line(html::Token::Type::kText, text);
  }
  void Comment(std::string_view body) override {
    Line(html::Token::Type::kComment, body);
  }
  void Doctype(std::string_view body) override {
    Line(html::Token::Type::kDoctype, body);
  }

  std::string sig;

 private:
  void Head(html::Token::Type type, std::string_view data) {
    sig += std::to_string(static_cast<int>(type));
    sig += '|';
    sig += data;
  }
  void Line(html::Token::Type type, std::string_view data) {
    Head(type, data);
    sig += '\n';
  }
};

std::string StrCat(const std::vector<std::string>& chunks) {
  std::string out;
  for (const std::string& c : chunks) out += c;
  return out;
}

/// Batch XML under one engine mode, via the full runtime (caches and all).
util::Result<std::string> BatchXml(runtime::RuntimeOptions::EngineMode mode,
                                   const wrapper::Wrapper& w,
                                   const std::string& attr,
                                   const std::string& page) {
  runtime::RuntimeOptions options;
  options.engine = mode;
  runtime::WrapperRuntime rt(options);
  auto handle = rt.Register(w, attr);
  EXPECT_TRUE(handle.ok());
  return rt.Wrap(*handle, page);
}

/// The expected extraction extents (external node ids) via the native
/// evaluator over the batch-parsed, batch-projected tree.
std::set<std::pair<std::string, tree::NodeId>> BatchExtents(
    const wrapper::Wrapper& w, const std::string& attr,
    const std::string& page) {
  std::set<std::pair<std::string, tree::NodeId>> out;
  auto doc = html::ParseHtml(page);
  if (!doc.ok()) return out;
  tree::Tree projected;
  if (!attr.empty()) projected = html::ProjectAttributeIntoLabels(*doc, attr);
  auto result =
      elog::EvaluateElog(w.program, attr.empty() ? doc->tree() : projected);
  EXPECT_TRUE(result.ok());
  for (const std::string& pattern : w.extraction_patterns) {
    const auto it = result->matches.find(pattern);
    if (it == result->matches.end()) continue;
    for (const tree::NodeId n : it->second) out.emplace(pattern, n);
  }
  return out;
}

/// Streams `chunks` through a fresh session and checks every streaming
/// invariant against the batch oracles.
void CheckOneChunking(runtime::WrapperRuntime& rt,
                      const runtime::WrapperHandle& handle,
                      const std::vector<std::string>& chunks,
                      const std::string& expected_xml,
                      const std::set<std::pair<std::string, tree::NodeId>>&
                          expected_extents,
                      const std::string& context) {
  std::vector<stream::StreamResult> emitted;
  stream::StreamOptions options;
  options.on_result = [&emitted](const stream::StreamResult& r) {
    emitted.push_back(r);
  };
  auto session = rt.SubmitStream({.wrapper = handle}, std::move(options));
  ASSERT_TRUE(session.ok()) << context;
  for (const std::string& chunk : chunks) {
    ASSERT_TRUE((*session)->Feed(chunk).ok()) << context;
  }
  auto xml = (*session)->Finish();
  ASSERT_TRUE(xml.ok()) << context << ": " << xml.status().ToString();
  EXPECT_EQ(*xml, expected_xml) << context;

  // The emitted results are exactly the batch extents: same (pattern, node)
  // set after resolving the provisional ids, no duplicates, and final
  // label/text payloads.
  const tree::NodeId shift = (*session)->stripped() ? 1 : 0;
  auto doc = html::ParseHtml(StrCat(chunks));
  ASSERT_TRUE(doc.ok()) << context;
  tree::Tree projected_storage;
  if (!handle.project_attr.empty()) {
    projected_storage =
        html::ProjectAttributeIntoLabels(*doc, handle.project_attr);
  }
  const tree::Tree& projected =
      handle.project_attr.empty() ? doc->tree() : projected_storage;
  std::set<std::pair<std::string, tree::NodeId>> got;
  for (const stream::StreamResult& r : emitted) {
    const tree::NodeId external = r.node - shift;
    EXPECT_TRUE(got.emplace(r.pattern, external).second)
        << context << ": duplicate emission " << r.pattern << "/" << r.node;
    ASSERT_GE(external, 0) << context;
    ASSERT_LT(external, projected.size()) << context;
    EXPECT_EQ(r.label, projected.label_name(external)) << context;
    EXPECT_EQ(r.text, projected.SubtreeText(external)) << context;
  }
  EXPECT_EQ(got, expected_extents) << context;
}

// ---------------------------------------------------------------------------
// Tokenizer chunking invariance
// ---------------------------------------------------------------------------

TEST(StreamTokenizerTest, ChunkingNeverChangesTheTokenStream) {
  std::vector<std::string> pages = NastyPages();
  pages.push_back(CatalogPage(1, 6));
  pages.push_back(BoardPage(2, 3, 3));
  for (size_t pi = 0; pi < pages.size(); ++pi) {
    const std::string& page = pages[pi];
    const std::string expected = TokenSig(html::Tokenize(page));
    const bool small = page.size() <= 4096;
    for (const auto& chunks : Chunkings(page, 1000 + pi, small)) {
      html::Scanner scanner;
      SigSink sink;
      for (const std::string& chunk : chunks) {
        ASSERT_TRUE(scanner.Feed(chunk, &sink).ok());
      }
      ASSERT_TRUE(scanner.Finish(&sink).ok());
      EXPECT_TRUE(scanner.finished());
      EXPECT_EQ(sink.sig, expected)
          << "page " << pi << " under " << chunks.size() << " chunks";
    }
  }
}

// ---------------------------------------------------------------------------
// The differential harness (tentpole): streaming ≡ batch, all engines, all
// chunkings
// ---------------------------------------------------------------------------

struct DifferentialCase {
  wrapper::Wrapper wrapper;
  std::string attr;
  std::string page;
};

std::vector<DifferentialCase> DifferentialCases() {
  std::vector<DifferentialCase> cases;
  cases.push_back({CatalogWrapper(), "class", CatalogPage(11, 12)});
  cases.push_back({CatalogWrapper(), "class", CatalogPage(12, 3)});
  cases.push_back({BoardWrapper(), "", BoardPage(3, 3, 3)});
  cases.push_back({BoardWrapper(), "", BoardPage(4, 2, 5)});
  for (const std::string& page : NastyPages()) {
    cases.push_back({GenericWrapper(), "", page});
    cases.push_back({GenericWrapper(), "class", page});
  }
  return cases;
}

TEST(StreamDifferentialTest, StreamingIsByteIdenticalToBatchEverywhere) {
  std::vector<DifferentialCase> cases = DifferentialCases();
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const DifferentialCase& c = cases[ci];
    const std::string context = "case " + std::to_string(ci);

    // Batch oracle, and the engines' own cross-agreement: streaming equals
    // *the* batch answer, not one engine's quirk.
    auto auto_xml =
        BatchXml(runtime::RuntimeOptions::EngineMode::kAuto, c.wrapper, c.attr, c.page);
    auto native_xml = BatchXml(runtime::RuntimeOptions::EngineMode::kNativeElog,
                               c.wrapper, c.attr, c.page);
    ASSERT_TRUE(auto_xml.ok()) << context;
    ASSERT_TRUE(native_xml.ok()) << context;
    EXPECT_EQ(*auto_xml, *native_xml) << context;

    runtime::RuntimeOptions rt_options;
    runtime::WrapperRuntime rt(rt_options);
    auto handle = rt.Register(c.wrapper, c.attr);
    ASSERT_TRUE(handle.ok()) << context;
    if (handle->program->has_ground_plan) {
      // kAuto above was the ground-plan replay; add the reference oracle
      // over the batch tree.
      auto t = html::ParseTree(c.page, c.attr);
      ASSERT_TRUE(t.ok()) << context;
      const core::TreeDatabase db(*t);
      auto reference = oracle::ReferenceXml(*handle->program, db, *t);
      ASSERT_TRUE(reference.ok()) << context;
      EXPECT_EQ(*auto_xml, *reference) << context;
    }

    const auto extents = BatchExtents(c.wrapper, c.attr, c.page);
    const bool small = c.page.size() <= 4096;
    const auto chunkings = Chunkings(c.page, 7000 + ci, small);
    for (size_t ki = 0; ki < chunkings.size(); ++ki) {
      CheckOneChunking(rt, *handle, chunkings[ki], *auto_xml, extents,
                       context + " chunking " + std::to_string(ki));
    }
  }
}

// ---------------------------------------------------------------------------
// Early emission
// ---------------------------------------------------------------------------

TEST(StreamSessionTest, EmitsResultsBeforeEndOfInput) {
  const std::string page = CatalogPage(21, 40);
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  size_t emitted_during_feed = 0;
  stream::StreamOptions options;
  options.on_result = [&emitted_during_feed](const stream::StreamResult&) {
    ++emitted_during_feed;
  };
  auto session = rt.SubmitStream({.wrapper = *handle}, std::move(options));
  ASSERT_TRUE(session.ok());

  // Everything but the tail: dozens of item rows have closed by now, and
  // their extraction must not wait for EOF.
  ASSERT_TRUE((*session)->Feed(
                  std::string_view(page).substr(0, page.size() - 16))
                  .ok());
  EXPECT_GT(emitted_during_feed, 0u);
  const size_t before_finish = emitted_during_feed;

  ASSERT_TRUE((*session)->Feed(
                  std::string_view(page).substr(page.size() - 16))
                  .ok());
  auto xml = (*session)->Finish();
  ASSERT_TRUE(xml.ok());
  EXPECT_GE(emitted_during_feed, before_finish);
  EXPECT_EQ(*xml, *rt.Wrap(*handle, page));
  EXPECT_EQ(rt.stats().stream_sessions, 1);
  EXPECT_EQ(rt.stats().stream_sessions_failed, 0);
}

// ---------------------------------------------------------------------------
// Deadlines inside the parse
// ---------------------------------------------------------------------------

/// A page whose tokenization cannot finish instantly: megabytes of long
/// quoted attribute values (the tokenizer's strided deadline polls sit in
/// exactly these scan loops).
std::string MultiMegabytePage() {
  std::string page = "<html><body>";
  const std::string filler(512, 'x');
  for (int i = 0; i < 4000; ++i) {
    page += "<div id=\"" + filler + "\">t</div>";
  }
  page += "</body></html>";
  return page;  // ~2MB
}

TEST(StreamDeadlineTest, ExpiredControlFiresInsideTokenization) {
  // Deterministic: the control is already expired, so the first strided poll
  // inside the scan loop must unwind — mid-page, long before EOF.
  const std::string page = MultiMegabytePage();
  const util::EvalControl control(
      util::Deadline::After(std::chrono::milliseconds(0)), nullptr);
  html::Scanner scanner;
  SigSink sink;
  util::Status s = scanner.Feed(page, &sink, &control);
  EXPECT_EQ(s.code(), util::StatusCode::kDeadlineExceeded);
}

TEST(StreamDeadlineTest, MillisecondDeadlineKillsMultiMegabyteSession) {
  const std::string page = MultiMegabytePage();
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(std::chrono::milliseconds(1));
  auto session = rt.SubmitStream({.wrapper = *handle, .options = request}, {});
  if (!session.ok()) {
    // The millisecond elapsed before the session even opened (slow machine):
    // still the typed failure, still counted.
    EXPECT_EQ(session.status().code(), util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(rt.stats().stream_sessions_failed, 1);
    return;
  }
  // Keep feeding multi-MB chunks; the deadline must fire with a typed status
  // long before this loop runs out.
  util::Status s;
  for (int i = 0; i < 64 && s.ok(); ++i) s = (*session)->Feed(page);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kDeadlineExceeded);
  // The session is dead and latched: same status from every later call.
  EXPECT_EQ((*session)->Feed("x").code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*session)->Finish().status().code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_GE(rt.stats().deadline_exceeded, 1);
  // A deadline-killed session is a failed one, never a success — and the
  // latched repeats above must not double-count it.
  EXPECT_EQ(rt.stats().stream_sessions, 0);
  EXPECT_EQ(rt.stats().stream_sessions_failed, 1);
}

// ---------------------------------------------------------------------------
// Adversarial depth
// ---------------------------------------------------------------------------

TEST(DeepNestingTest, HundredThousandNestedDivsServeThroughWrapAndStream) {
  // ~1.4MB of nesting: every walk on the serving path (parse, root drop,
  // evaluation, output build, XML) must be free of recursion.
  constexpr int kDepth = 100000;
  std::string page;
  for (int i = 0; i < kDepth; ++i) page += "<div class=x>";
  page += "bottom";
  for (int i = 0; i < kDepth; ++i) page += "</div>";

  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    top(X) <- root(X).
    bottom(X) <- anynode(P), subelem(P, "_", X), leaf(X).
  )");
  ASSERT_TRUE(program.ok());
  // "top" alone makes the root an output leaf (its text is the whole
  // subtree's); with "bottom" the output nests.
  for (const std::vector<std::string>& patterns :
       {std::vector<std::string>{"top"},
        std::vector<std::string>{"top", "bottom"}}) {
    wrapper::Wrapper w;
    w.program = *program;
    w.extraction_patterns = patterns;
    runtime::WrapperRuntime rt;
    auto handle = rt.Register(w, "class");
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(handle->program->has_ground_plan, true);  // auto → grounded

    auto batch = rt.Wrap(*handle, page);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    auto session = rt.SubmitStream({.wrapper = *handle}, {});
    ASSERT_TRUE(session.ok());
    for (const std::string& chunk : FixedChunks(page, 4096)) {
      ASSERT_TRUE((*session)->Feed(chunk).ok());
    }
    auto streamed = (*session)->Finish();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(*streamed, *batch);
    EXPECT_NE(batch->find("bottom"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Session lifecycle and typed errors
// ---------------------------------------------------------------------------

TEST(StreamSessionTest, EmptyAndContentFreeInputsFailLikeBatch) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(GenericWrapper(), "");
  ASSERT_TRUE(handle.ok());
  for (const std::string page : {"", "<!-- only a comment -->"}) {
    auto session = rt.SubmitStream({.wrapper = *handle}, {});
    ASSERT_TRUE(session.ok());
    if (!page.empty()) ASSERT_TRUE((*session)->Feed(page).ok());
    auto xml = (*session)->Finish();
    ASSERT_FALSE(xml.ok());
    EXPECT_EQ(xml.status().code(), util::StatusCode::kInvalidArgument);
    // Identical to what batch returns for the same bytes.
    EXPECT_EQ(rt.Wrap(*handle, page).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  // Parse-level failures count as failed sessions (batch Wrap failures on
  // the same bytes do not touch the stream counters).
  EXPECT_EQ(rt.stats().stream_sessions, 0);
  EXPECT_EQ(rt.stats().stream_sessions_failed, 2);
}

TEST(StreamSessionTest, FeedAfterFinishFails) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(GenericWrapper(), "");
  ASSERT_TRUE(handle.ok());
  auto session = rt.SubmitStream({.wrapper = *handle}, {});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Feed("<div>x</div>").ok());
  ASSERT_TRUE((*session)->Finish().ok());
  EXPECT_EQ((*session)->Feed("more").code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Finish().status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(StreamSessionTest, PeakMemoryObservability) {
  const std::string page = CatalogPage(33, 25);
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  auto session = rt.SubmitStream({.wrapper = *handle}, {});
  ASSERT_TRUE(session.ok());
  for (const std::string& chunk : FixedChunks(page, 97)) {
    ASSERT_TRUE((*session)->Feed(chunk).ok());
  }
  ASSERT_TRUE((*session)->Finish().ok());
  // The open-node high-water mark tracks nesting depth, not page length: a
  // flat catalog page holds only its current ancestor chain open.
  EXPECT_GT((*session)->peak_live_nodes(), 0);
  EXPECT_LT((*session)->peak_live_nodes(), 64);
  EXPECT_GT((*session)->peak_edb_bytes(), 0);
  // The session's peaks survive it as registry gauges.
  const std::string prom = rt.ExportPrometheus();
  EXPECT_NE(prom.find("mdatalog_stream_peak_live_nodes"), std::string::npos);
  EXPECT_NE(prom.find("mdatalog_stream_peak_edb_bytes"), std::string::npos);
}

TEST(StreamSessionTest, DeltaWrapperStreamsItsDeltaFreePatterns) {
  std::string page = "<doc>";
  for (int i = 0; i < 300; ++i) {
    page += "<a>item " + std::to_string(i) + "</a><b>noise</b>";
  }
  page += "</doc>";
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(DeltaWrapper(), "");
  ASSERT_TRUE(handle.ok());
  // Batch and stream replay the same ground plan; its Δ builtin is a fact
  // of the finished tree, so the stream replay holds a0 until Finish.
  EXPECT_TRUE(handle->program->ground_plan->streamable());
  auto want = rt.Wrap(*handle, page);
  ASSERT_TRUE(want.ok());
  const auto extents = BatchExtents(DeltaWrapper(), "", page);
  for (const size_t chunk :
       {size_t{1}, size_t{97}, size_t{4096}, page.size()}) {
    const std::string context = "chunk " + std::to_string(chunk);
    CheckOneChunking(rt, *handle, FixedChunks(page, chunk), *want, extents,
                     context);

    std::vector<std::string> before_finish;
    stream::StreamOptions options;
    options.on_result = [&before_finish](const stream::StreamResult& r) {
      before_finish.push_back(r.pattern);
    };
    auto session = rt.SubmitStream({.wrapper = *handle}, std::move(options));
    ASSERT_TRUE(session.ok());
    for (const std::string& c : FixedChunks(page, chunk)) {
      ASSERT_TRUE((*session)->Feed(c).ok());
    }
    // Each <a> closed under <doc> before the input ended: anya emitted it
    // in both root worlds. a0 waits for the end of input.
    EXPECT_EQ(std::count(before_finish.begin(), before_finish.end(), "anya"),
              300)
        << context;
    EXPECT_EQ(std::count(before_finish.begin(), before_finish.end(), "a0"), 0)
        << context;
    auto xml = (*session)->Finish();
    ASSERT_TRUE(xml.ok());
    EXPECT_EQ(*xml, *want) << context;
  }
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan via the `tsan` label)
// ---------------------------------------------------------------------------

TEST(StreamConcurrencyTest, ParallelSessionsOnOneRuntimeAgreeWithBatch) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  constexpr int kThreads = 8;
  std::vector<std::string> pages;
  std::vector<std::string> expected;
  for (int i = 0; i < kThreads; ++i) {
    pages.push_back(CatalogPage(500 + i, 6 + i));
    auto xml = rt.Wrap(*handle, pages.back());
    ASSERT_TRUE(xml.ok());
    expected.push_back(*xml);
  }

  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto session = rt.SubmitStream({.wrapper = *handle}, {});
      ASSERT_TRUE(session.ok());
      for (const std::string& chunk : RandomChunks(pages[i], 900 + i)) {
        ASSERT_TRUE((*session)->Feed(chunk).ok());
      }
      auto xml = (*session)->Finish();
      ASSERT_TRUE(xml.ok());
      got[i] = *xml;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(got, expected);
  EXPECT_EQ(rt.stats().stream_sessions, kThreads);
  EXPECT_EQ(rt.stats().stream_sessions_failed, 0);
}

}  // namespace
