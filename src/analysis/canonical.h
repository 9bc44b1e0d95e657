#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/minimize.h"
#include "src/core/ast.h"
#include "src/elog/ast.h"
#include "src/util/result.h"

/// \file canonical.h
/// Canonical keys for programs and wrappers: two syntactically different but
/// obviously-equivalent formulations (reordered rules or body literals,
/// renamed variables, redundant/subsumed rules) map to one key, so compiled
/// plans and result memo entries are shared across wrapper revisions that
/// differ only in formulation.
///
/// The pipeline for an Elog⁻ wrapper is
///
///     ElogToDatalog → Minimize (sound reductions, roots = extraction
///     patterns) → per-rule canonical string → sort + dedup rules
///
/// Per rule, the canonical string is the lexicographically smallest
/// rendering over all body-literal permutations (up to a small body-size
/// cap, above which a deterministic heuristic sort is used) with variables
/// renamed by first occurrence — predicate *names*, not ids, so the key is
/// stable across independently parsed programs.
///
/// Programs using Δ builtins (Elog⁻Δ, Theorem 6.6: no datalog counterpart)
/// fall back to the identity key: the wrapper's own text. Conservative —
/// never merges two wrappers that could differ.

namespace mdatalog::analysis {

/// Canonical rendering of one rule (predicate names, normalized variables,
/// best body permutation). Deterministic; independent of intern order.
std::string CanonicalRuleString(const core::Program& program,
                                const core::Rule& rule);

/// Canonical text of a datalog program: canonical rule strings, sorted and
/// deduplicated, newline-joined. Does NOT minimize — compose with
/// Minimize() when reduction is wanted.
std::string CanonicalProgramText(const core::Program& program);

struct WrapperKey {
  /// The canonical text: program section + '\x1f' + extraction patterns
  /// (verbatim, in order — pattern order shapes the output tree).
  std::string text;
  /// FNV-1a of `text` — the cache/memo key.
  uint64_t fingerprint = 0;
  /// False when the Δ-builtin identity fallback was taken.
  bool canonicalized = false;
};

/// Canonical key for a wrapper: `program` + `extraction_patterns` (output
/// order preserved). Never fails on Δ programs (identity fallback); errors
/// only on programs the Elog⁻ translation itself rejects as malformed.
util::Result<WrapperKey> CanonicalWrapperKey(
    const elog::ElogProgram& program,
    const std::vector<std::string>& extraction_patterns);

/// The wrapper's datalog translation (elog::ElogToDatalog: one rule per
/// source rule, in order, so fates index source rules) minimized with the
/// extraction patterns' predicates as roots. When no pattern resolves to a
/// predicate nothing is named observable, and every head counts as a root
/// rather than the whole wrapper being declared dead (the translation sets
/// no query predicate, so Minimize skips reachability). Fails on Δ
/// programs, which have no translation (Theorem 6.6).
util::Result<MinimizeResult> MinimizeWrapper(
    const elog::ElogProgram& program,
    const std::vector<std::string>& extraction_patterns);

}  // namespace mdatalog::analysis
