// E1 / E3 — Theorem 4.2: monadic datalog over trees evaluates in
// O(|P| · |dom|).
//
// Series 1 (data linearity): the Example 3.2 program over random trees of
// growing size, on the grounded (Theorem 4.2) engine. google-benchmark's
// complexity fit should report ~O(N).
//
// Series 2 (program linearity): chain programs of growing rule count over a
// fixed tree.
//
// Series 3 (fragments, Props 3.6/3.7): a guarded / LIT-style program.
//
// Series 4 (Elog⁻Δ, Theorem 6.6): the serving news wrapper — recursive,
// with the notafter builtin — lowered into a ground plan and replayed over
// news-shaped trees. The builtin is a residual check against a per-tree
// table, so ns/node stays flat as for the datalog series.
//
// The old-vs-new series over the pre-rewrite semi-naive reference engine
// are retired; their last numbers stay archived in BENCH_eval.json.

#include <benchmark/benchmark.h>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/elog/to_datalog.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

tree::Tree MakeTree(int64_t n) {
  util::Rng rng(42);
  return tree::RandomTree(rng, static_cast<int32_t>(n), {"a", "b", "c"});
}

void BM_EvenA_Grounded(benchmark::State& state) {
  tree::Tree t = MakeTree(state.range(0));
  core::Program p = core::EvenAProgram({"b", "c"});
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(p, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
  state.counters["nodes"] = static_cast<double>(t.size());
}
BENCHMARK(BM_EvenA_Grounded)->Range(1 << 10, 1 << 17)->Complexity();

void BM_ProgramSize_Grounded(benchmark::State& state) {
  tree::Tree t = MakeTree(4096);
  core::Program p = core::ChainProgram(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(p, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
  state.counters["rules"] = static_cast<double>(p.rules().size());
}
BENCHMARK(BM_ProgramSize_Grounded)->Range(8, 1 << 9)->Complexity();

void BM_GuardedFragment_Grounded(benchmark::State& state) {
  // HasAncestor is guarded (every binary rule has a guard atom) — the
  // Prop 3.6/3.7 fragment.
  tree::Tree t = MakeTree(state.range(0));
  core::Program p = core::HasAncestorProgram("a");
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(p, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GuardedFragment_Grounded)->Range(1 << 10, 1 << 17)->Complexity();

/// A news front page of about `n` nodes, labeled as the class-projected
/// parse labels it: a navigation block, then article blocks (div@article
/// with an h2.a headline and paragraphs), a quarter of them inside a
/// section div.
tree::Tree NewsTree(int64_t n) {
  util::Rng rng(5);
  tree::TreeBuilder b;
  const tree::NodeId body = b.Child(b.Root("html"), "body");
  const tree::NodeId nav = b.Child(body, "div@nav");
  for (int i = 0; i < 8; ++i) b.Child(b.Child(nav, "li"), "a");
  while (b.size() < n) {
    const tree::NodeId parent =
        rng.Below(4) == 0 ? b.Child(body, "div@section") : body;
    const tree::NodeId article = b.Child(parent, "div@article");
    b.Child(b.Child(article, "h2"), "a");
    for (uint64_t p = rng.Below(4); p > 0; --p) {
      const tree::NodeId para = b.Child(article, "p");
      if (rng.Below(2) == 0) b.Child(para, "span");
    }
  }
  return b.Build();
}

void BM_NewsDelta_Grounded(benchmark::State& state) {
  auto w = wrapper::ParseWrapperText(R"(%! extract: story, headline, lead
anynode(X)  <- root(X).
anynode(X)  <- anynode(P), subelem(P, "_", X).
story(X)    <- anynode(P), subelem(P, "div@article", X).
headline(Y) <- story(X), subelem(X, "h2.a", Y).
lead(X)     <- anynode(P), subelem(P, "div@article", X),
               notafter(P, "div@article", X).
)");
  auto plan =
      core::GroundPlan::Compile(*elog::LowerToGroundProgram(w->program));
  tree::Tree t = NewsTree(state.range(0));
  core::GroundArena arena;
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(*plan, t, &arena);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
  state.counters["nodes"] = static_cast<double>(t.size());
}
BENCHMARK(BM_NewsDelta_Grounded)->Range(1 << 12, 1 << 17)->Complexity();

}  // namespace

BENCHMARK_MAIN();
