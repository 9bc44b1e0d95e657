// E2 — Proposition 3.5: ground (propositional Horn) programs solve in
// O(|P| + |σ|) with the LTUR solver. Chain, grid and wide-body instances.

#include <benchmark/benchmark.h>

#include "src/util/rng.h"
#include "tests/support/horn.h"

namespace {

using namespace mdatalog;

core::HornInstance Chain(int32_t n) {
  core::HornInstance inst;
  inst.num_atoms = n;
  inst.clauses.push_back({0, {}});
  for (int32_t i = 1; i < n; ++i) inst.clauses.push_back({i, {i - 1}});
  return inst;
}

core::HornInstance Grid(int32_t side) {
  // atom (i,j) needs (i-1,j) and (i,j-1).
  core::HornInstance inst;
  inst.num_atoms = side * side;
  auto id = [side](int32_t i, int32_t j) { return i * side + j; };
  inst.clauses.push_back({0, {}});
  for (int32_t i = 0; i < side; ++i) {
    for (int32_t j = 0; j < side; ++j) {
      if (i == 0 && j == 0) continue;
      core::HornClause c;
      c.head = id(i, j);
      if (i > 0) c.body.push_back(id(i - 1, j));
      if (j > 0) c.body.push_back(id(i, j - 1));
      inst.clauses.push_back(std::move(c));
    }
  }
  return inst;
}

core::HornInstance WideBodies(int32_t n, int32_t width, uint64_t seed) {
  util::Rng rng(seed);
  core::HornInstance inst;
  inst.num_atoms = n;
  for (int32_t i = 0; i < width; ++i) inst.clauses.push_back({i, {}});
  for (int32_t i = width; i < n; ++i) {
    core::HornClause c;
    c.head = i;
    for (int32_t k = 0; k < width; ++k) {
      c.body.push_back(static_cast<int32_t>(rng.Below(i)));
    }
    inst.clauses.push_back(std::move(c));
  }
  return inst;
}

void BM_Horn_Chain(benchmark::State& state) {
  core::HornInstance inst = Chain(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    auto model = core::SolveHorn(inst);
    benchmark::DoNotOptimize(model);
  }
  state.SetComplexityN(inst.NumLiterals());
}
BENCHMARK(BM_Horn_Chain)->Range(1 << 10, 1 << 20)->Complexity();

void BM_Horn_Grid(benchmark::State& state) {
  core::HornInstance inst = Grid(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    auto model = core::SolveHorn(inst);
    benchmark::DoNotOptimize(model);
  }
  state.SetComplexityN(inst.NumLiterals());
}
BENCHMARK(BM_Horn_Grid)->Range(32, 512)->Complexity();

void BM_Horn_WideBodies(benchmark::State& state) {
  core::HornInstance inst =
      WideBodies(static_cast<int32_t>(state.range(0)), 8, 7);
  for (auto _ : state) {
    auto model = core::SolveHorn(inst);
    benchmark::DoNotOptimize(model);
  }
  state.SetComplexityN(inst.NumLiterals());
}
BENCHMARK(BM_Horn_WideBodies)->Range(1 << 10, 1 << 18)->Complexity();

}  // namespace

BENCHMARK_MAIN();
