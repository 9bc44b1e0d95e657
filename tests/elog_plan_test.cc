// The ground plan of an Elog wrapper (elog::LowerToGroundProgram →
// core::GroundPlan) against the native Elog evaluator, the reference:
// byte-identical output XML on random Elog⁻Δ programs over random trees, on
// every checked-in wrapper, and on 100,000-node deep and wide trees. The
// same plan replayed by a stream session (Δ builtins at the end of input)
// against batch Wrap: the same XML and extents under every chunking.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/grounder.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"
#include "tests/support/elog_generator.h"

namespace mdatalog {
namespace {

using elog::ElogCondition;
using elog::ElogPath;
using elog::ElogProgram;
using elog::ElogRule;
using elog::RandomDeltaProgram;
using K = ElogCondition::Kind;

std::string NativeXml(const ElogProgram& program,
                      const std::vector<std::string>& patterns,
                      const tree::Tree& t) {
  auto matches = elog::EvaluateElog(program, t);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString() << "\n"
                            << elog::ToString(program);
  if (!matches.ok()) return "";
  return tree::ToXml(wrapper::BuildOutputTree(patterns, *matches, t));
}

std::string PlanXml(const ElogProgram& program,
                    const std::vector<std::string>& patterns,
                    const tree::Tree& t, core::GroundArena* arena) {
  auto lowered = elog::LowerToGroundProgram(program);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  if (!lowered.ok()) return "";
  auto plan = core::GroundPlan::Compile(*lowered);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n"
                         << core::ToString(*lowered);
  if (!plan.ok()) return "";
  auto eval = core::EvaluateGrounded(*plan, t, arena);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
  if (!eval.ok()) return "";
  elog::ElogResult matches;
  for (const std::string& p : patterns) {
    const core::PredId pred = lowered->preds().Find("pat_" + p);
    if (pred >= 0) matches.matches[p] = eval->Unary(pred);
  }
  return tree::ToXml(wrapper::BuildOutputTree(patterns, matches, t));
}

TEST(ElogPlanTest, RandomDeltaProgramsMatchNativeOnRandomTrees) {
  util::Rng rng(16);
  core::GroundArena arena;
  int32_t checked = 0, nonempty = 0, delta = 0;
  for (int32_t i = 0; i < 400; ++i) {
    ElogProgram program = RandomDeltaProgram(rng);
    if (!elog::ValidateElog(program).ok()) continue;
    delta += program.UsesDeltaBuiltins() ? 1 : 0;
    const std::vector<std::string> patterns = program.Patterns();
    for (int32_t k = 0; k < 4; ++k) {
      const tree::Tree t = tree::RandomTree(
          rng, static_cast<int32_t>(rng.Range(1, 40)), {"a", "b", "c"},
          /*depth_bias=*/k % 2 == 1);
      const std::string want = NativeXml(program, patterns, t);
      ASSERT_EQ(PlanXml(program, patterns, t, &arena), want)
          << elog::ToString(program) << "\n"
          << tree::ToDebugString(t);
      ++checked;
      nonempty += want.find("<p") != std::string::npos ? 1 : 0;
    }
  }
  // The generator is not degenerate: most programs are valid, most use a
  // Δ builtin, and a fair share of the outputs extract something.
  EXPECT_GT(checked, 800);
  EXPECT_GT(delta, 150);
  EXPECT_GT(nonempty, checked / 4);
}

std::vector<std::pair<std::string, wrapper::Wrapper>> CorpusWrappers() {
  std::vector<std::pair<std::string, wrapper::Wrapper>> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(MDATALOG_WRAPPER_CORPUS_DIR)) {
    if (entry.path().extension() != ".elog") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto w = wrapper::ParseWrapperText(text.str());
    EXPECT_TRUE(w.ok()) << entry.path() << ": " << w.status().ToString();
    if (w.ok()) out.emplace_back(entry.path().filename().string(), *w);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

/// Every label a wrapper's paths name, plus one no path names.
std::vector<std::string> WrapperLabels(const ElogProgram& program) {
  std::vector<std::string> labels = {"x"};
  auto add = [&labels](const ElogPath& path) {
    for (const std::string& step : path.steps) {
      if (step != "_" &&
          std::find(labels.begin(), labels.end(), step) == labels.end()) {
        labels.push_back(step);
      }
    }
  };
  for (const ElogRule& r : program.rules()) {
    add(r.subelem);
    for (const ElogCondition& c : r.conditions) add(c.path);
  }
  return labels;
}

TEST(ElogPlanTest, CorpusWrappersMatchNativeOnRandomTrees) {
  const auto corpus = CorpusWrappers();
  ASSERT_GE(corpus.size(), 7u);
  util::Rng rng(7);
  core::GroundArena arena;
  for (const auto& [name, w] : corpus) {
    const std::vector<std::string> labels = WrapperLabels(w.program);
    for (int32_t k = 0; k < 60; ++k) {
      const tree::Tree t = tree::RandomTree(
          rng, static_cast<int32_t>(rng.Range(1, 200)), labels, k % 2 == 1);
      ASSERT_EQ(PlanXml(w.program, w.extraction_patterns, t, &arena),
                NativeXml(w.program, w.extraction_patterns, t))
          << name << "\n" << tree::ToDebugString(t);
    }
  }
}

TEST(ElogPlanTest, AnbnMatchesNativeOnChildrenWords) {
  const auto corpus = CorpusWrappers();
  const auto it = std::find_if(corpus.begin(), corpus.end(), [](auto& e) {
    return e.first == "anbn_delta.elog";
  });
  ASSERT_NE(it, corpus.end());
  const wrapper::Wrapper& w = it->second;
  core::GroundArena arena;
  int32_t accepted = 0;
  for (int32_t a = 0; a <= 12; ++a) {
    for (int32_t b = 0; b <= 12; ++b) {
      std::vector<std::string> word(a, "a");
      word.insert(word.end(), b, "b");
      const tree::Tree t = tree::ChildrenWord("r", word);
      const std::string want = NativeXml(w.program, w.extraction_patterns, t);
      ASSERT_EQ(PlanXml(w.program, w.extraction_patterns, t, &arena), want)
          << "a^" << a << " b^" << b;
      accepted += want.find("<anbn") != std::string::npos ? 1 : 0;
    }
  }
  EXPECT_GT(accepted, 0);
}

/// A chain of n nodes or a root with n − 1 children. Labels: the wrapper's
/// labels at random; on the fan-out the first child is "a" and the last "b"
/// (the anbn wrapper's anchors) and other children carry a wrapper label
/// with probability 1/64, because the native oracle walks the sibling list
/// per before target and is quadratic in their number.
tree::Tree DeepChain(util::Rng& rng, int32_t n,
                     const std::vector<std::string>& labels) {
  tree::TreeBuilder b;
  tree::NodeId cur = b.Root(labels[rng.Below(labels.size())]);
  for (int32_t i = 1; i < n; ++i) {
    cur = b.Child(cur, labels[rng.Below(labels.size())]);
  }
  return b.Build();
}

tree::Tree WideFanOut(util::Rng& rng, int32_t n,
                      const std::vector<std::string>& labels) {
  tree::TreeBuilder b;
  const tree::NodeId root = b.Root(labels[rng.Below(labels.size())]);
  b.Child(root, "a");
  for (int32_t i = 2; i < n - 1; ++i) {
    b.Child(root, rng.Below(64) == 0 ? labels[rng.Below(labels.size())] : "x");
  }
  b.Child(root, "b");
  return b.Build();
}

TEST(ElogPlanTest, CorpusWrappersMatchNativeOnDeepAndWideTrees) {
  constexpr int32_t kNodes = 100000;
  util::Rng rng(100000);
  core::GroundArena arena;
  for (const auto& [name, w] : CorpusWrappers()) {
    const std::vector<std::string> labels = WrapperLabels(w.program);
    for (const tree::Tree& t :
         {DeepChain(rng, kNodes, labels), WideFanOut(rng, kNodes, labels)}) {
      ASSERT_EQ(PlanXml(w.program, w.extraction_patterns, t, &arena),
                NativeXml(w.program, w.extraction_patterns, t))
          << name << " on " << (t.Height() > 1 ? "the chain" : "the fan-out");
    }
  }
}

/// The perfbench news wrapper (Elog⁻Δ: notafter), verbatim.
constexpr const char* kNewsWrapper = R"(%! extract: story, headline, lead
anynode(X)  <- root(X).
anynode(X)  <- anynode(P), subelem(P, "_", X).
story(X)    <- anynode(P), subelem(P, "div@article", X).
headline(Y) <- story(X), subelem(X, "h2.a", Y).
lead(X)     <- anynode(P), subelem(P, "div@article", X),
               notafter(P, "div@article", X).
)";

std::string NestedArticles(int32_t depth) {
  std::string page = "<html>";
  for (int32_t i = 0; i < depth; ++i) page += "<div class=\"article\">";
  page += "<h2><a>deepest</a></h2>";
  for (int32_t i = 0; i < depth; ++i) page += "</div>";
  return page + "</html>";
}

TEST(ElogPlanTest, NewsWrapperMatchesNativeOnNestedArticles) {
  // Native evaluation re-applies the recursive anynode rule once per level,
  // so the reference stays at a depth it finishes quickly.
  auto w = wrapper::ParseWrapperText(kNewsWrapper);
  ASSERT_TRUE(w.ok());
  runtime::RuntimeOptions native_options;
  native_options.engine = runtime::RuntimeOptions::EngineMode::kNativeElog;
  runtime::WrapperRuntime native(native_options);
  runtime::WrapperRuntime grounded;
  auto hn = native.Register(*w, "class");
  auto hg = grounded.Register(*w, "class");
  ASSERT_TRUE(hn.ok() && hg.ok());
  for (int32_t depth : {1, 2, 7, 300}) {
    const std::string page = NestedArticles(depth);
    auto want = native.Wrap(*hn, page);
    auto got = grounded.Wrap(*hg, page);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(*got, *want) << "depth " << depth;
  }
  EXPECT_EQ(grounded.stats().native_evals, 0);
}

/// 100,000 nested divs with one article at the bottom: anynode climbs the
/// whole chain (the native evaluator re-applies it once per level, for
/// minutes), the output is one story.
std::string DeepNewsPage() {
  constexpr int kDepth = 100000;
  std::string page;
  for (int i = 0; i < kDepth; ++i) page += "<div class=x>";
  page += "<div class=\"article\"><h2><a>bottom</a></h2></div>";
  for (int i = 0; i < kDepth; ++i) page += "</div>";
  return page;
}

TEST(ElogPlanTest, DeepNewsPageServesUnderOneSecond) {
  auto w = wrapper::ParseWrapperText(kNewsWrapper);
  ASSERT_TRUE(w.ok());
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(*w, "class");
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(handle->program->has_ground_plan);
  const std::string page = DeepNewsPage();
  const auto start = std::chrono::steady_clock::now();
  auto xml = rt.Wrap(*handle, page);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(*xml,
            "<result>\n  <story>\n    <lead>\n      <headline>bottom</headline>"
            "\n    </lead>\n  </story>\n</result>\n");
  EXPECT_EQ(rt.stats().native_evals, 0);
}

TEST(ElogPlanTest, EveryCorpusAndPerfbenchWrapperGetsAGroundPlan) {
  runtime::WrapperRuntime rt;
  std::vector<wrapper::Wrapper> wrappers;
  for (const auto& [name, w] : CorpusWrappers()) wrappers.push_back(w);
  for (const char* text : {
           kNewsWrapper,
           R"(%! extract: item, name, price
anynode(X) <- root(X).
anynode(X) <- anynode(P), subelem(P, "_", X).
item(X)  <- anynode(P), subelem(P, "tr@item", X).
name(Y)  <- item(X), subelem(X, "td@name", Y).
price(Y) <- item(X), subelem(X, "td@price", Y).
)",
           R"(%! extract: thread, post
anynode(X) <- root(X).
anynode(X) <- anynode(P), subelem(P, "_", X).
thread(X)  <- anynode(P), subelem(P, "ul@thread", X).
post(Y)    <- anynode(P), subelem(P, "li.span@post", Y).
)"}) {
    auto w = wrapper::ParseWrapperText(text);
    ASSERT_TRUE(w.ok());
    wrappers.push_back(*w);
  }
  for (const wrapper::Wrapper& w : wrappers) {
    auto handle = rt.Register(w, "class");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_TRUE(handle->program->has_ground_plan)
        << elog::ToString(w.program);
    // Every wrapper replays incrementally in a stream session, Δ included.
    EXPECT_TRUE(handle->program->ground_plan->streamable());
  }
}

TEST(ElogPlanTest, PatternPredsIndexBothThePlanAndTmnf) {
  // The lowered program keeps ElogToDatalog's predicate table (ToTmnf
  // copies it), so one PredId per extraction pattern serves the plan's
  // EvalResult and the oracles' TMNF program alike.
  for (const auto& [name, w] : CorpusWrappers()) {
    if (w.program.UsesDeltaBuiltins()) continue;
    // One cache per wrapper: equivalent revisions must not share an entry.
    runtime::ProgramCache cache(16);
    auto datalog = elog::ElogToDatalog(w.program);
    auto lowered = elog::LowerToGroundProgram(w.program);
    ASSERT_TRUE(datalog.ok() && lowered.ok()) << name;
    ASSERT_LE(datalog->preds().size(), lowered->preds().size());
    for (core::PredId p = 0; p < datalog->preds().size(); ++p) {
      EXPECT_EQ(datalog->preds().Name(p), lowered->preds().Name(p)) << name;
    }
    auto compiled = cache.GetOrCompile(w);
    ASSERT_TRUE(compiled.ok()) << name;
    auto tmnf = oracle::TmnfOf(**compiled);
    ASSERT_TRUE(tmnf.ok()) << name;
    const auto& patterns = w.extraction_patterns;
    for (size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_EQ((*compiled)->pattern_preds[i],
                tmnf->preds().Find("pat_" + patterns[i]))
          << name << " " << patterns[i];
      EXPECT_EQ((*compiled)->pattern_preds[i],
                lowered->preds().Find("pat_" + patterns[i]));
    }
  }
}

TEST(ElogPlanTest, BranchesSplitIntoTheirOwnPredicates) {
  // Two contains branches below X: without the split a trigger on item(X)
  // would enumerate their product.
  auto program = elog::ParseElog(
      "item(X) <- root(R), subelem(R, \"tr\", X).\n"
      "pair(X) <- item(X), contains(X, \"td\", A), leaf(A),\n"
      "           contains(X, \"td.b\", B).\n");
  ASSERT_TRUE(program.ok());
  auto lowered = elog::LowerToGroundProgram(*program);
  ASSERT_TRUE(lowered.ok());
  const core::PredId child = lowered->preds().Find("child");
  for (const core::Rule& r : lowered->rules()) {
    std::vector<int32_t> successors(r.num_vars(), 0);
    for (const core::Atom& a : r.body) {
      if (a.pred == child) ++successors[a.args[0].value];
    }
    for (int32_t s : successors) {
      EXPECT_LE(s, 1) << core::ToString(*lowered, r);
    }
  }
  EXPECT_EQ(lowered->rules().size(), 4u);  // item, pair, two branches
}

// ---------------------------------------------------------------------------
// Stream sessions replay the same plan, the Δ builtins at the end of input
// ---------------------------------------------------------------------------

/// `t` as HTML: one element per node, named by its label.
std::string TreeHtml(const tree::Tree& t) {
  std::string html;
  tree::WalkSubtree(
      t, t.root(),
      [&](tree::NodeId n) { html += "<" + t.label_name(n) + ">"; },
      [&](tree::NodeId n) { html += "</" + t.label_name(n) + ">"; });
  return html;
}

/// The patterns nothing derives before the end of input: each of their
/// rules reads a Δ builtin or another such pattern.
std::set<std::string> EndOfInputPatterns(const ElogProgram& program) {
  std::set<std::string> early = {"root"};
  for (bool changed = true; changed;) {
    changed = false;
    for (const ElogRule& r : program.rules()) {
      bool streams = early.count(r.parent_pattern) > 0;
      for (const ElogCondition& c : r.conditions) {
        streams = streams && c.kind != K::kBefore &&
                  c.kind != K::kNotAfter && c.kind != K::kNotBefore &&
                  (c.kind != K::kPatternRef || early.count(c.pattern) > 0);
      }
      if (streams && early.insert(r.head_pattern).second) changed = true;
    }
  }
  std::set<std::string> late;
  for (const std::string& p : program.Patterns()) {
    if (early.count(p) == 0) late.insert(p);
  }
  return late;
}

using Extents = std::set<std::pair<std::string, tree::NodeId>>;

/// One stream session over a page: its Finish XML, and the (pattern, node)
/// pairs it emitted, in batch ids — all, and those emitted before Finish.
struct Streamed {
  std::string xml;
  Extents all;
  Extents before_finish;
};

Streamed StreamPage(runtime::WrapperRuntime& rt,
                    const runtime::WrapperHandle& handle,
                    const std::string& page, size_t chunk) {
  Streamed out;
  struct Emitted {
    std::string pattern;
    tree::NodeId node;  // internal id
    bool before_finish;
  };
  std::vector<Emitted> emitted;
  bool finishing = false;
  stream::StreamOptions options;
  options.on_result = [&](const stream::StreamResult& r) {
    emitted.push_back({r.pattern, r.node, !finishing});
  };
  auto session = rt.SubmitStream({.wrapper = handle}, std::move(options));
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return out;
  for (size_t i = 0; i < page.size(); i += chunk) {
    EXPECT_TRUE((*session)->Feed(std::string_view(page).substr(i, chunk)).ok());
  }
  finishing = true;
  auto xml = (*session)->Finish();
  EXPECT_TRUE(xml.ok()) << xml.status().ToString();
  if (!xml.ok()) return out;
  out.xml = *xml;
  const tree::NodeId shift = (*session)->stripped() ? 1 : 0;
  for (const Emitted& e : emitted) {
    EXPECT_TRUE(out.all.emplace(e.pattern, e.node - shift).second)
        << "emitted twice: " << e.pattern << " " << e.node;
    if (e.before_finish) out.before_finish.emplace(e.pattern, e.node - shift);
  }
  return out;
}

/// The batch extents: the wrapper's ground plan over the batch-parsed page.
Extents BatchExtents(const runtime::WrapperHandle& handle,
                     const std::string& page) {
  Extents out;
  auto t = html::ParseTree(page, handle.project_attr);
  EXPECT_TRUE(t.ok());
  if (!t.ok()) return out;
  auto eval = core::EvaluateGrounded(*handle.program->ground_plan, *t);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
  if (!eval.ok()) return out;
  for (const auto& [pattern, nodes] : handle.program->Matches(*eval).matches) {
    for (const tree::NodeId n : nodes) out.emplace(pattern, n);
  }
  return out;
}

/// Streams every page at chunk sizes 1, 97, 4096 and the whole page: the
/// Finish XML is Wrap's, the emitted pairs are the batch extents, and no
/// EndOfInputPatterns pattern emits before Finish. Returns what did.
Extents CheckStreamsLikeWrap(const wrapper::Wrapper& w,
                             const std::string& attr,
                             const std::vector<std::string>& pages,
                             const std::string& context) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(w, attr);
  EXPECT_TRUE(handle.ok()) << context << handle.status().ToString();
  if (!handle.ok()) return {};
  const std::set<std::string> late = EndOfInputPatterns(w.program);
  Extents early;
  for (const std::string& page : pages) {
    auto want = rt.Wrap(*handle, page);
    EXPECT_TRUE(want.ok()) << context << want.status().ToString();
    if (!want.ok()) continue;
    const Extents extents = BatchExtents(*handle, page);
    for (const size_t chunk : {size_t{1}, size_t{97}, size_t{4096},
                               page.size()}) {
      const std::string ctx =
          context + "\nchunk " + std::to_string(chunk) + ": " + page;
      const Streamed got = StreamPage(rt, *handle, page, chunk);
      EXPECT_EQ(got.xml, *want) << ctx;
      EXPECT_EQ(got.all, extents) << ctx;
      for (const auto& [pattern, node] : got.before_finish) {
        EXPECT_EQ(late.count(pattern), 0u)
            << ctx << ": " << pattern << "(" << node << ") before Finish";
      }
      early.insert(got.before_finish.begin(), got.before_finish.end());
      if (::testing::Test::HasFailure()) return early;
    }
  }
  return early;
}

bool HasPattern(const Extents& extents, const std::string& pattern) {
  return std::any_of(extents.begin(), extents.end(),
                     [&](const auto& e) { return e.first == pattern; });
}

TEST(ElogPlanTest, DeltaWrappersStreamLikeWrap) {
  // The news wrapper: story and headline are Δ-free and stream, lead
  // (notafter) waits for the end of input.
  auto news = wrapper::ParseWrapperText(kNewsWrapper);
  ASSERT_TRUE(news.ok());
  std::string flat = "<html><body>";
  for (int i = 0; i < 40; ++i) {
    flat += "<div class=\"article\"><h2><a>headline " + std::to_string(i) +
            "</a></h2><p>text</p></div>";
  }
  flat += "<div class=\"article\"><div class=\"article\"><h2><a>inner</a>"
          "</h2></div></div></body></html>";
  const Extents early = CheckStreamsLikeWrap(
      *news, "class",
      {flat, NestedArticles(1), NestedArticles(7), NestedArticles(30),
       NestedArticles(2) + NestedArticles(1)},
      "news");
  EXPECT_TRUE(HasPattern(early, "story"));
  EXPECT_TRUE(HasPattern(early, "headline"));
  EXPECT_FALSE(HasPattern(early, "lead"));

  // aⁿbⁿ (before): children words under one root, and two roots.
  const auto corpus = CorpusWrappers();
  const auto anbn = std::find_if(corpus.begin(), corpus.end(), [](auto& e) {
    return e.first == "anbn_delta.elog";
  });
  ASSERT_NE(anbn, corpus.end());
  std::vector<std::string> words;
  for (int32_t a = 0; a <= 5; ++a) {
    for (int32_t b = 0; b <= 5; ++b) {
      std::string word = "<r>";
      for (int32_t i = 0; i < a; ++i) word += "<a>x</a>";
      for (int32_t i = 0; i < b; ++i) word += "<b>y</b>";
      words.push_back(word + "</r>");
    }
  }
  words.push_back(words[7] + words[14]);
  CheckStreamsLikeWrap(anbn->second, "", words, "anbn_delta");

  // Z is bound by builtins alone (which the native evaluator rejects), so it
  // ranges over the whole domain. The stripped world hides node 0 above the
  // root; were it in the domain, it would pass notbefore(Z, ε, R) like the
  // root but have no a-children.
  wrapper::Wrapper hidden_root;
  auto program = elog::ParseElog(
      "p(X) <- root(R), subelem(R, \"_\", X), notbefore(Z, \"\", R),\n"
      "        notafter(Z, \"a\", X).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  hidden_root.program = *program;
  hidden_root.extraction_patterns = {"p"};
  CheckStreamsLikeWrap(hidden_root, "",
                       {"<r><b>1</b><a>2</a><c>3</c></r>",
                        "<r><b>1</b><a>2</a><c>3</c></r><r><c>4</c></r>"},
                       "hidden root");

  // Random Elog⁻Δ programs over random trees, single- and multi-rooted.
  util::Rng rng(19);
  int32_t checked = 0;
  for (int32_t i = 0; i < 80 && !HasFailure(); ++i) {
    ElogProgram program = RandomDeltaProgram(rng);
    if (!elog::ValidateElog(program).ok()) continue;
    wrapper::Wrapper w;
    w.program = program;
    w.extraction_patterns = program.Patterns();
    std::vector<std::string> pages;
    for (int32_t k = 0; k < 3; ++k) {
      pages.push_back(TreeHtml(tree::RandomTree(
          rng, static_cast<int32_t>(rng.Range(1, 40)), {"a", "b", "c"},
          /*depth_bias=*/k % 2 == 1)));
    }
    pages.push_back(pages[0] + pages[1]);
    CheckStreamsLikeWrap(w, "", pages, elog::ToString(program));
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(ElogPlanTest, DeepNewsPageStreamsUnderOneSecond) {
  // The deep page through a stream session in 4 KB chunks: anynode streams
  // down the chain, lead (notafter) derives at the end of input. The time
  // bound is for optimized builds; a sanitizer build runs it near the bound.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kTimed = false;
#else
  constexpr bool kTimed = true;
#endif
  auto w = wrapper::ParseWrapperText(kNewsWrapper);
  ASSERT_TRUE(w.ok());
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(*w, "class");
  ASSERT_TRUE(handle.ok());
  const std::string page = DeepNewsPage();
  auto want = rt.Wrap(*handle, page);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  auto session = rt.SubmitStream({.wrapper = *handle}, {});
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < page.size(); i += 4096) {
    ASSERT_TRUE((*session)->Feed(std::string_view(page).substr(i, 4096)).ok());
  }
  auto xml = (*session)->Finish();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  if (kTimed) EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(*xml, *want);
}

}  // namespace
}  // namespace mdatalog
