// E8 — Theorem 5.2: the TMNF translation runs in time O(|P|) with output
// linear in the input. Random programs of growing size through the full
// pipeline; counters report the output/input rule ratio.

#include <benchmark/benchmark.h>

#include "src/tmnf/pipeline.h"
#include "src/util/rng.h"
#include "tests/support/program_generator.h"

namespace {

using namespace mdatalog;

void BM_ToTmnf(benchmark::State& state) {
  util::Rng rng(99);
  core::ProgramGenOptions opts;
  opts.num_rules = static_cast<int32_t>(state.range(0));
  opts.num_idb_preds = std::max<int32_t>(4, opts.num_rules / 4);
  opts.allow_extended = true;  // child/lastchild force the full chase
  core::Program p = core::RandomMonadicProgram(rng, opts);
  tmnf::TmnfStats stats;
  for (auto _ : state) {
    auto out = tmnf::ToTmnf(p, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(p.SizeInAtoms());
  state.counters["in_rules"] = stats.input_rules;
  state.counters["out_rules"] = stats.output_rules;
  state.counters["expansion"] =
      stats.input_rules > 0
          ? static_cast<double>(stats.output_rules) / stats.input_rules
          : 0;
}
BENCHMARK(BM_ToTmnf)->Range(8, 1 << 9)->Complexity();

void BM_ToTmnf_NoExtended(benchmark::State& state) {
  // τ_ur-only programs skip the child elimination; the pipeline is cheaper.
  util::Rng rng(7);
  core::ProgramGenOptions opts;
  opts.num_rules = static_cast<int32_t>(state.range(0));
  opts.num_idb_preds = std::max<int32_t>(4, opts.num_rules / 4);
  opts.allow_extended = false;
  core::Program p = core::RandomMonadicProgram(rng, opts);
  for (auto _ : state) {
    auto out = tmnf::ToTmnf(p);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(p.SizeInAtoms());
}
BENCHMARK(BM_ToTmnf_NoExtended)->Range(8, 1 << 9)->Complexity();

}  // namespace

BENCHMARK_MAIN();
