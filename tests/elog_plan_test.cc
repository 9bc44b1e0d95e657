// The ground plan of an Elog wrapper (elog::LowerToGroundProgram →
// core::GroundPlan) against the native Elog evaluator, the reference:
// byte-identical output XML on random Elog⁻Δ programs over random trees, on
// every checked-in wrapper, and on 100,000-node deep and wide trees.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/grounder.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/elog/to_datalog.h"
#include "src/runtime/runtime.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog {
namespace {

using elog::ElogCondition;
using elog::ElogPath;
using elog::ElogProgram;
using elog::ElogRule;
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

ElogPath RandomPath(util::Rng& rng, int32_t min_steps) {
  static const std::vector<std::string> kSteps = {"a", "b", "c", "_"};
  ElogPath path;
  const int64_t n = rng.Range(min_steps, 2);
  for (int64_t i = 0; i < n; ++i) {
    path.steps.push_back(kSteps[rng.Below(kSteps.size())]);
  }
  return path;
}

/// A random Elog⁻Δ program over labels {a, b, c}. Conditions come in an
/// order the native evaluator accepts: each one reads only variables an
/// earlier atom binds, and a pattern reference may bind a fresh variable
/// (enumerating the pattern's extent) that a later condition — contains,
/// nextsibling, notafter, notbefore or before — then joins to the rule.
ElogProgram RandomDeltaProgram(util::Rng& rng) {
  ElogProgram program;
  std::vector<std::string> defined;
  const int64_t num_rules = rng.Range(2, 6);
  for (int64_t r = 0; r < num_rules; ++r) {
    ElogRule rule;
    rule.head_pattern = "p" + std::to_string(rng.Below(4));
    if (defined.empty() || rng.Below(3) == 0) {
      rule.parent_pattern = "root";
    } else {
      rule.parent_pattern = defined[rng.Below(defined.size())];
    }
    rule.parent_var = "X0";
    if (rng.Below(5) == 0) {
      rule.head_var = "X0";
    } else {
      rule.head_var = "X1";
      rule.subelem = RandomPath(rng, 1);
    }
    std::vector<std::string> bound = {"X0", rule.head_var};
    int32_t fresh = 0;
    auto new_var = [&] { return "Y" + std::to_string(fresh++); };
    auto any_bound = [&] { return bound[rng.Below(bound.size())]; };
    auto add = [&rule](K kind, std::string v1, std::string v2 = "",
                       std::string v3 = "") {
      ElogCondition c;
      c.kind = kind;
      c.var1 = std::move(v1);
      c.var2 = std::move(v2);
      c.var3 = std::move(v3);
      rule.conditions.push_back(std::move(c));
      return &rule.conditions.back();
    };
    auto refs = defined;
    refs.push_back("root");
    refs.push_back(rule.head_pattern);
    const int64_t num_conditions = rng.Range(0, 3);
    for (int64_t i = 0; i < num_conditions; ++i) {
      switch (rng.Below(9)) {
        case 0: add(K::kLeaf, any_bound()); break;
        case 1: add(K::kFirstSibling, any_bound()); break;
        case 2: add(K::kLastSibling, any_bound()); break;
        case 3: {
          const std::string b = any_bound();
          const std::string n = rng.Below(4) == 0 ? any_bound() : new_var();
          if (rng.Below(2) == 0) {
            add(K::kNextSibling, b, n);
          } else {
            add(K::kNextSibling, n, b);
          }
          bound.push_back(n);
          break;
        }
        case 4: {
          const std::string n = rng.Below(4) == 0 ? any_bound() : new_var();
          add(K::kContains, any_bound(), n)->path = RandomPath(rng, 1);
          bound.push_back(n);
          break;
        }
        case 5: {
          const std::string pattern = refs[rng.Below(refs.size())];
          if (rng.Below(2) == 0) {
            add(K::kPatternRef, any_bound())->pattern = pattern;
            break;
          }
          // An unbound reference: the extent is enumerated, then joined.
          const std::string z = new_var();
          add(K::kPatternRef, z)->pattern = pattern;
          const std::string b = any_bound();
          switch (rng.Below(4)) {
            case 0: add(K::kContains, b, z)->path = RandomPath(rng, 1); break;
            case 1: add(K::kNextSibling, b, z); break;
            case 2: add(K::kNotAfter, b, z)->path = RandomPath(rng, 0); break;
            default: add(K::kNotBefore, b, z)->path = RandomPath(rng, 0); break;
          }
          bound.push_back(z);
          break;
        }
        case 6:
        case 7: {
          const K kind = rng.Below(2) == 0 ? K::kNotAfter : K::kNotBefore;
          const std::string x0 = any_bound();
          add(kind, x0, any_bound())->path = RandomPath(rng, 0);
          break;
        }
        default: {
          // before(x0, π, x, y, α, β), narrow or wide, y fresh or bound.
          static const std::pair<int32_t, int32_t> kWindows[] = {
              {50, 50}, {0, 0}, {10, 40}, {0, 100}, {-100, 100}, {-50, 0}};
          const auto [alpha, beta] = kWindows[rng.Below(6)];
          // Mostly x0 = the parent and x = the head below it, so x has a
          // position among x0's children and the window is not empty.
          const bool below = rng.Below(4) != 0;
          const std::string x0 = below ? "X0" : any_bound();
          const std::string x = below ? rule.head_var : any_bound();
          const bool fresh_y = rng.Below(4) != 0;
          const std::string y = fresh_y ? new_var() : any_bound();
          ElogCondition* c = add(K::kBefore, x0, x, y);
          c->path = RandomPath(rng, rng.Below(8) == 0 ? 0 : 1);
          c->alpha_pct = alpha;
          c->beta_pct = beta;
          bound.push_back(y);
          // Half the fresh ys are used later: the window is enumerated.
          if (fresh_y && rng.Below(2) == 0) {
            if (rng.Below(2) == 0) {
              add(K::kLeaf, y);
            } else {
              add(K::kPatternRef, y)->pattern = refs[rng.Below(refs.size())];
            }
          }
          break;
        }
      }
    }
    defined.push_back(rule.head_pattern);
    program.AddRule(std::move(rule));
  }
  return program;
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

TEST(ElogPlanTest, DeepNewsPageServesUnderOneSecond) {
  // 100,000 nested divs with one article at the bottom: anynode climbs the
  // whole chain (the native evaluator re-applies it once per level, for
  // minutes), the output is one story.
  auto w = wrapper::ParseWrapperText(kNewsWrapper);
  ASSERT_TRUE(w.ok());
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(*w, "class");
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(handle->program->has_ground_plan);
  constexpr int kDepth = 100000;
  std::string page;
  for (int i = 0; i < kDepth; ++i) page += "<div class=x>";
  page += "<div class=\"article\"><h2><a>bottom</a></h2></div>";
  for (int i = 0; i < kDepth; ++i) page += "</div>";
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
    // Only Δ-free wrappers carry the stream session's TMNF program.
    EXPECT_EQ(handle->program->has_tmnf, !w.program.UsesDeltaBuiltins());
  }
}

TEST(ElogPlanTest, PatternPredsIndexBothThePlanAndTmnf) {
  // The lowered program keeps ElogToDatalog's predicate table (ToTmnf
  // copies it), so one PredId per extraction pattern serves the plan's
  // EvalResult and the stream session's TMNF program alike.
  runtime::ProgramCache cache(16, /*canonical_keys=*/false);
  for (const auto& [name, w] : CorpusWrappers()) {
    if (w.program.UsesDeltaBuiltins()) continue;
    auto datalog = elog::ElogToDatalog(w.program);
    auto lowered = elog::LowerToGroundProgram(w.program);
    ASSERT_TRUE(datalog.ok() && lowered.ok()) << name;
    ASSERT_LE(datalog->preds().size(), lowered->preds().size());
    for (core::PredId p = 0; p < datalog->preds().size(); ++p) {
      EXPECT_EQ(datalog->preds().Name(p), lowered->preds().Name(p)) << name;
    }
    auto compiled = cache.GetOrCompile(w);
    ASSERT_TRUE(compiled.ok()) << name;
    ASSERT_TRUE((*compiled)->has_tmnf) << name;
    const auto& patterns = w.extraction_patterns;
    for (size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_EQ((*compiled)->pattern_preds[i],
                (*compiled)->tmnf.preds().Find("pat_" + patterns[i]))
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

}  // namespace
}  // namespace mdatalog
