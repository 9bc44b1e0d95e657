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
#include "src/elog/to_datalog.h"
#include "src/runtime/program_cache.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/result.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::oracle {

/// The wrapper's TMNF program: ElogToDatalog (Theorem 6.5), then ToTmnf
/// (Theorem 5.2). The predicate table is ElogToDatalog's, which ToTmnf
/// extends.
inline util::Result<core::Program> TmnfOf(
    const runtime::CompiledWrapperProgram& program) {
  MD_ASSIGN_OR_RETURN(core::Program datalog,
                      elog::ElogToDatalog(program.prepared.program.program()));
  return tmnf::ToTmnf(datalog);
}

/// The XML that core::EvaluateSemiNaive over the program's TMNF translation
/// (the Corollary 6.4 pipeline ElogToDatalog → ToTmnf, built here: the
/// runtime compiles no TMNF) extracts from `t`. `edb` is the relational view
/// of `t` — a plain core::TreeDatabase, or one over a store's packed unary
/// bit-arrays. Fails for Elog⁻Δ programs, which have no datalog translation.
inline util::Result<std::string> SemiNaiveXml(
    const runtime::CompiledWrapperProgram& program, const core::EdbSource& edb,
    const tree::Tree& t) {
  MD_ASSIGN_OR_RETURN(core::Program tmnf, TmnfOf(program));
  MD_ASSIGN_OR_RETURN(core::EvalResult eval,
                      core::EvaluateSemiNaive(tmnf, edb));
  const auto& patterns = program.prepared.extraction_patterns;
  elog::ElogResult matches;
  for (const std::string& pattern : patterns) {
    const core::PredId pred = tmnf.preds().Find("pat_" + pattern);
    if (pred < 0) continue;  // never derivable: empty extent
    matches.matches[pattern] = eval.Unary(pred);
  }
  return tree::ToXml(wrapper::BuildOutputTree(patterns, matches, t));
}

}  // namespace mdatalog::oracle
