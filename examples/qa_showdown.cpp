// Query automata vs. monadic datalog (Section 4.3).
//
// Part 1 — Example 4.9: the even-a query automaton's run on the 3-node tree,
// with the configuration trace c0 → … → c4 from the paper.
//
// Part 2 — Example 4.21: the blow-up automaton A_β takes
// Θ(((n+1)/2)^(α+1)) steps on complete binary trees, while its Theorem 4.11
// datalog translation evaluates the same query in O(β⁴·n).

#include <chrono>
#include <cstdio>

#include "src/core/grounder.h"
#include "src/qa/ranked.h"
#include "src/qa/ranked_to_datalog.h"
#include "src/tree/generator.h"

int main() {
  using namespace mdatalog;
  using Clock = std::chrono::steady_clock;

  // --- Part 1: Example 4.9 ---
  qa::RankedQA even = qa::EvenAQAr({"a"});
  tree::Tree small = tree::PaperExample49Tree();
  qa::QaRunOptions trace_opts;
  trace_opts.trace = true;
  auto run = qa::RunRankedQA(even, small, trace_opts);
  if (!run.ok()) return 1;
  std::printf("Example 4.9 run on a(a,a):\n");
  for (size_t i = 0; i < run->trace.size(); ++i) {
    std::printf("  c%zu -> c%zu: %s transition at n%d\n", i, i + 1,
                run->trace[i].kind.c_str(), run->trace[i].node);
  }
  std::printf("  accepted: %s, selected: %zu nodes (paper: empty)\n\n",
              run->accepted ? "yes" : "no", run->selected.size());

  // --- Part 2: Example 4.21 ---
  const int32_t alpha = 1;
  qa::RankedQA blowup = qa::BlowupQAr(alpha);
  auto program = qa::RankedQAToDatalog(blowup);
  if (!program.ok()) return 1;
  std::printf("A_beta with alpha=%d: |A| = %lld, datalog |P| = %lld atoms\n",
              alpha, static_cast<long long>(blowup.Size()),
              static_cast<long long>(program->SizeInAtoms()));
  std::printf("%8s %12s %14s %14s\n", "nodes", "QA steps", "QA time(us)",
              "datalog(us)");
  for (int32_t depth = 2; depth <= 7; ++depth) {
    tree::Tree t = tree::CompleteBinaryTree(depth, "a");
    auto t0 = Clock::now();
    auto direct = qa::RunRankedQA(blowup, t);
    auto t1 = Clock::now();
    auto translated =
        core::EvaluateGrounded(*program, t);
    auto t2 = Clock::now();
    if (!direct.ok() || !translated.ok()) return 1;
    auto us = [](auto d) {
      return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    };
    std::printf("%8d %12lld %14lld %14lld\n", t.size(),
                static_cast<long long>(direct->steps),
                static_cast<long long>(us(t1 - t0)),
                static_cast<long long>(us(t2 - t1)));
  }
  std::printf(
      "\nThe QA step count quadruples per level (superpolynomial in n); the\n"
      "datalog simulation stays linear in the tree (Theorem 4.11).\n");
  return 0;
}
