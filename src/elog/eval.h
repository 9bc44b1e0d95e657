#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file eval.h
/// Native evaluation of Elog⁻ / Elog⁻Δ programs over document trees.
///
/// The evaluator runs the pattern fixpoint directly: the root pattern holds
/// of the root node; each rule extends its head pattern from the parent
/// pattern's instances through the subelem path and the conditions. The Δ
/// builtins (before%, notafter, notbefore) are interpreted natively against
/// document order and child positions (Theorem 6.6: Elog⁻Δ exceeds MSO).
///
/// This is the reference evaluator, independent of the datalog engines.
/// Every wrapper entry point in the library — the serving runtime, the
/// stream, wrapper::WrapTree / WrapHtmlToXml and the visual session —
/// replays the wrapper's ground plan (to_datalog.h: CompileGroundPlan). Its
/// callers are the runtime's forced kNativeElog reference mode, the serving
/// benchmark's reference pass, and the tests that compare it with the plan.

namespace mdatalog::elog {

/// The extracted pattern instances (the "information extraction functions"
/// the wrapper defines — Section 6 intro).
struct ElogResult {
  std::map<std::string, std::vector<tree::NodeId>> matches;  ///< sorted

  const std::vector<tree::NodeId>& Of(const std::string& pattern) const;
};

/// Nodes reachable from `start` via the fixed path π (Definition 6.1);
/// "_" matches any label. Returned sorted.
std::vector<tree::NodeId> PathTargets(const tree::Tree& t, tree::NodeId start,
                                      const ElogPath& path);

/// Default bound on total pattern-instance insertions (guard against
/// pathological programs).
inline constexpr int64_t kDefaultMaxDerivations = 1 << 22;

/// Evaluates the program. `max_derivations` bounds total pattern-instance
/// insertions; `control` (nullable) is polled cooperatively inside the
/// pattern fixpoint — a deadline or cancellation unwinds with the typed
/// status (kDeadlineExceeded / kCancelled) instead of finishing the page.
util::Result<ElogResult> EvaluateElog(
    const ElogProgram& program, const tree::Tree& t,
    int64_t max_derivations = kDefaultMaxDerivations,
    const util::EvalControl* control = nullptr);

}  // namespace mdatalog::elog
