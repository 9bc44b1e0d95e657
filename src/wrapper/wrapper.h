#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/core/nodeset.h"
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

/// Writes the wrapper output for already-computed pattern extents as XML,
/// appending to `*out`: a synthetic root "result" whose descendants are the
/// selected nodes, parented at their nearest selected proper ancestor (or the
/// root), labeled by their pattern name. A node matched by several extraction
/// patterns appears once per pattern (in pattern order). Nodes selected by no
/// pattern vanish. The text payload of an output leaf is the full subtree
/// text of its input node (what a user would want of, e.g., a price cell).
///
/// `sets[i]` is the extent of `extraction_patterns[i]` (nullptr: empty); its
/// member m names node m - `shift` of `t` (the streaming front's sets count a
/// synthetic root that the finished tree drops). One reverse pass over node
/// ids marks the ancestors of selected nodes — every built and every frozen
/// tree numbers a parent before its children — and one iterative preorder
/// walk writes the elements, skipping unselected subtrees. The scratch (a
/// ⌈P/64⌉-word pattern mask and one byte per node) is freed on return.
///
/// Every wrapper entry point (WrapTree, the serving runtime, the streaming
/// front) writes its result through this; the output is byte-identical to
/// tree::ToXml(BuildOutputTree(...)).
void WriteXml(const std::vector<std::string>& extraction_patterns,
              std::span<const core::NodeSet* const> sets, const tree::Tree& t,
              std::string* out, int32_t shift = 0);

/// The reference renderer: the output of WriteXml as a tree (serialize it
/// with tree::ToXml), from extents held in an elog::ElogResult. Serves only
/// the native evaluator's reference paths (the runtime's forced kNativeElog
/// mode, perfbench's traced replay, which checks every reply against it)
/// and the test oracles; no wrapper entry point renders through it.
tree::Tree BuildOutputTree(const std::vector<std::string>& extraction_patterns,
                           const elog::ElogResult& matches,
                           const tree::Tree& t);

/// Wraps an already-parsed tree and returns the output XML: compiles the
/// wrapper's ground plan (elog::CompileGroundPlan, the runtime's compile
/// step), replays it once in O(|P|·|dom|) and writes the extents with
/// WriteXml — the same bytes WrapperRuntime::Wrap serves for the wrapper.
/// Like Wrap, it accepts a condition that reads a variable no earlier
/// condition binds (the rule keeps its conjunctive meaning, Definition 6.2).
/// The plan is compiled per call; a wrapper that serves many documents
/// belongs in a runtime::WrapperRuntime, which compiles it once.
/// `control` (nullable) carries the per-request deadline / cancel token into
/// the evaluation; the wrap unwinds with kDeadlineExceeded / kCancelled.
util::Result<std::string> WrapTree(const Wrapper& wrapper, const tree::Tree& t,
                                   const util::EvalControl* control = nullptr);

/// Convenience: parse HTML (no attribute projection), then WrapTree.
util::Result<std::string> WrapHtmlToXml(const Wrapper& wrapper,
                                        std::string_view html);

}  // namespace mdatalog::wrapper
