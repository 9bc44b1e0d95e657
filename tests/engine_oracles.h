#pragma once

// Engines the serving runtime does not select, rendered as wrapper output so
// tests can compare them with the runtime byte for byte. The runtime serves
// every wrapper through its ground plan; the compiled semi-naive engine
// stays in core and is checked from here. Header-only:
// every tests/*.cc file builds into its own test binary.

#include <cstddef>
#include <string>

#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/elog/eval.h"
#include "src/runtime/program_cache.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/result.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::oracle {

/// The XML that core::EvaluateSemiNaive over the program's TMNF translation
/// extracts from `t`. `edb` is the relational view of `t` — a plain
/// core::TreeDatabase, or one over a store's packed unary bit-arrays. Needs
/// the Corollary 6.4 pipeline (program.has_tmnf).
inline util::Result<std::string> SemiNaiveXml(
    const runtime::CompiledWrapperProgram& program, const core::EdbSource& edb,
    const tree::Tree& t) {
  if (!program.has_tmnf) {
    return util::Status::FailedPrecondition(
        "no datalog translation for this program (Elog⁻Δ builtins?)");
  }
  MD_ASSIGN_OR_RETURN(core::EvalResult eval,
                      core::EvaluateSemiNaive(program.tmnf, edb));
  const auto& patterns = program.prepared.extraction_patterns;
  elog::ElogResult matches;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const core::PredId pred = program.pattern_preds[i];
    if (pred < 0) continue;  // never derivable: empty extent
    matches.matches[patterns[i]] = eval.Unary(pred);
  }
  return tree::ToXml(wrapper::BuildOutputTree(patterns, matches, t));
}

}  // namespace mdatalog::oracle
