#pragma once

// The reference oracles, rendered as wrapper output so tests can compare them
// with the library byte for byte. Every wrapper entry point (the runtime,
// the stream, wrapper::WrapTree) serves through the ground plan; these paths
// share none of it: NativeXml runs the native Elog evaluator, ReferenceXml
// the Corollary 6.4 pipeline (ElogToDatalog → ToTmnf → the naive reference
// engine). Both render with BuildOutputTree, not the served WriteXml.
// Header-only: every tests/*.cc file builds into its own test binary.

#include <cstddef>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/elog/to_datalog.h"
#include "src/runtime/program_cache.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/result.h"
#include "src/wrapper/wrapper.h"
#include "tests/support/edb.h"
#include "tests/support/reference_eval.h"

namespace mdatalog::oracle {

/// The XML the native Elog evaluator (elog/eval.h, Elog⁻ and Elog⁻Δ alike)
/// extracts from `t`: the reference for every plan-served wrapper output.
inline util::Result<std::string> NativeXml(const wrapper::Wrapper& w,
                                           const tree::Tree& t) {
  MD_ASSIGN_OR_RETURN(elog::ElogResult matches,
                      elog::EvaluateElog(w.program, t));
  return tree::ToXml(
      wrapper::BuildOutputTree(w.extraction_patterns, matches, t));
}

/// The wrapper's TMNF program: ElogToDatalog (Theorem 6.5), then ToTmnf
/// (Theorem 5.2). The predicate table is ElogToDatalog's, which ToTmnf
/// extends.
inline util::Result<core::Program> TmnfOf(
    const runtime::CompiledWrapperProgram& program) {
  MD_ASSIGN_OR_RETURN(core::Program datalog,
                      elog::ElogToDatalog(program.prepared.program));
  return tmnf::ToTmnf(datalog);
}

/// The XML that core::EvaluateNaiveReference over the program's TMNF
/// translation (the Corollary 6.4 pipeline ElogToDatalog → ToTmnf, built
/// here: the runtime compiles no TMNF) extracts from `t`. `edb` is the
/// relational view of `t`. Fails for Elog⁻Δ programs, which have no datalog
/// translation.
inline util::Result<std::string> ReferenceXml(
    const runtime::CompiledWrapperProgram& program, const core::EdbSource& edb,
    const tree::Tree& t) {
  MD_ASSIGN_OR_RETURN(core::Program tmnf, TmnfOf(program));
  MD_ASSIGN_OR_RETURN(core::ReferenceResult eval,
                      core::EvaluateNaiveReference(tmnf, edb));
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
