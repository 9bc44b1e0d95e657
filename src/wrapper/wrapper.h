#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file wrapper.h
/// The wrapper layer (Section 6 intro): a wrapper is a set of information
/// extraction functions — unary queries naming tree nodes — and the output
/// of wrapping is a new tree built from the selected nodes: re-labeled by
/// their pattern, connected through the (transitive closure of the) input
/// edge relation, document order preserved, unselected nodes omitted.

namespace mdatalog::wrapper {

/// A wrapper: an Elog program plus the subset of patterns that constitute
/// the extraction functions (in output order). Patterns not listed are
/// auxiliary.
struct Wrapper {
  elog::ElogProgram program;
  std::vector<std::string> extraction_patterns;
};

/// Parses a wrapper file: an Elog program plus an optional extraction
/// directive hidden in a comment line
///
///     %! extract: item, price
///
/// naming the extraction patterns in output order (repeatable; lists
/// concatenate). Without a directive every defined pattern is an extraction
/// pattern, in first-definition order. The directive line is a plain Elog
/// comment, so the file also parses with bare ParseElog.
util::Result<Wrapper> ParseWrapperText(std::string_view text);

/// A wrapper whose program was validated once (elog::PreparedElogProgram) so
/// repeated evaluation over a document stream pays no per-page validation.
/// Immutable after Prepare — safe to share across serving threads.
struct PreparedWrapper {
  elog::PreparedElogProgram program;
  std::vector<std::string> extraction_patterns;

  static util::Result<PreparedWrapper> Prepare(const Wrapper& wrapper);
};

/// Builds the output tree from already-computed pattern extents: a synthetic
/// root "result" whose descendants are the selected nodes, parented at their
/// nearest selected proper ancestor (or the root), labeled by their pattern
/// name. A node matched by several extraction patterns appears once per
/// pattern (in pattern order). Nodes selected by no pattern vanish. The text
/// payload of an output leaf is the full subtree text of its input node
/// (what a user would want of, e.g., a price cell).
///
/// Exposed separately from WrapTree so callers that obtained the extents
/// through another evaluation path (the serving runtime's grounded-datalog
/// engine, Corollary 6.4) reuse the identical output construction.
tree::Tree BuildOutputTree(const std::vector<std::string>& extraction_patterns,
                           const elog::ElogResult& matches,
                           const tree::Tree& t);

/// Runs the wrapper through the native Elog evaluator (elog/eval.h) and
/// builds the output tree. The serving runtime does not call this: it
/// replays the wrapper's ground plan and feeds the extents to
/// BuildOutputTree.
/// `control` (nullable) carries the per-request deadline / cancel token into
/// the evaluation; the wrap unwinds with kDeadlineExceeded / kCancelled.
util::Result<tree::Tree> WrapTree(const Wrapper& wrapper, const tree::Tree& t,
                                  const util::EvalControl* control = nullptr);

/// Convenience: parse HTML, wrap, serialize the result as XML.
util::Result<std::string> WrapHtmlToXml(const Wrapper& wrapper,
                                        std::string_view html);

}  // namespace mdatalog::wrapper
