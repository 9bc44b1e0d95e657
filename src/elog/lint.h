#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/util/result.h"

/// \file lint.h
/// Static QA for Elog⁻ wrappers: the analysis subsystem's minimizer
/// (analysis/minimize.h) run over the wrapper's monadic-datalog translation
/// (Theorem 6.5), with every finding mapped back to the *source* Elog rule.
/// The mapping is exact because ElogToDatalog emits one datalog rule per
/// Elog rule, in order — the minimizer's per-rule fates line up 1:1.
///
/// Findings are advisory: a wrapper with findings still runs and produces
/// the same extraction as its minimized form. Lint exists so wrapper
/// authors (and CI) see dead weight before it ships.

namespace mdatalog::elog {

struct LintFinding {
  enum class Kind : uint8_t {
    kUnsatBody,          ///< rule body unsatisfiable on any tree
    kUnderivableBody,    ///< body references a pattern with no usable rule
    kDeadRule,           ///< head pattern cannot reach an extraction pattern
    kDuplicateRule,      ///< identical to an earlier rule (modulo renaming)
    kSubsumedRule,       ///< an earlier rule θ-subsumes this one
    kRedundantLiterals,  ///< rule kept, but some conditions are redundant
    kUnusedPattern,      ///< pattern defined but never referenced or extracted
    kUndefinedPattern,   ///< extraction pattern with no defining rule
  };
  Kind kind;
  /// Index into program.rules(); -1 for the pattern-level kinds.
  int32_t rule_index = -1;
  /// Head pattern of the offending rule, or the offending pattern name.
  std::string pattern;
  std::string message;
};

/// Stable kebab-case kind name ("unsat-body", "dead-rule", ...).
const char* LintFindingKindName(LintFinding::Kind kind);

struct LintReport {
  std::vector<LintFinding> findings;
  int32_t rules_analyzed = 0;
  /// True when the wrapper uses Elog⁻Δ builtins: the datalog-level analysis
  /// is skipped (Theorem 6.6 — no monadic-datalog translation exists) and
  /// only the syntactic pattern checks run.
  bool delta_builtins = false;

  bool clean() const { return findings.empty(); }
  /// One line per finding: "rule 3 (price): dead-rule: ...".
  std::string ToText() const;
};

/// Lints `program` with `extraction_patterns` as the observable output (the
/// wrapper's extraction functions; empty = every pattern is observable).
/// Fails with InvalidArgument when the program itself does not validate —
/// lint reports *useless* rules, not *broken* programs.
util::Result<LintReport> LintWrapper(
    const ElogProgram& program,
    const std::vector<std::string>& extraction_patterns);

}  // namespace mdatalog::elog
