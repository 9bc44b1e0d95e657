#include "src/elog/lint.h"

#include <algorithm>
#include <unordered_set>

#include "src/analysis/canonical.h"
#include "src/util/check.h"

namespace mdatalog::elog {

namespace {

using analysis::RuleFate;

LintFinding::Kind FateKind(RuleFate fate) {
  switch (fate) {
    case RuleFate::kUnsatBody:
      return LintFinding::Kind::kUnsatBody;
    case RuleFate::kUnderivableBody:
      return LintFinding::Kind::kUnderivableBody;
    case RuleFate::kUnreachable:
      return LintFinding::Kind::kDeadRule;
    case RuleFate::kDuplicate:
      return LintFinding::Kind::kDuplicateRule;
    case RuleFate::kSubsumed:
      return LintFinding::Kind::kSubsumedRule;
    case RuleFate::kKept:
      break;
  }
  MD_CHECK(false);
  return LintFinding::Kind::kUnsatBody;
}

const char* FateMessage(RuleFate fate) {
  switch (fate) {
    case RuleFate::kUnsatBody:
      return "body is unsatisfiable on any tree";
    case RuleFate::kUnderivableBody:
      return "body references a pattern no rule can derive";
    case RuleFate::kUnreachable:
      return "no extraction pattern depends on this rule";
    case RuleFate::kDuplicate:
      return "identical to an earlier rule";
    case RuleFate::kSubsumed:
      return "an earlier rule already covers every match of this one";
    case RuleFate::kKept:
      break;
  }
  return "";
}

}  // namespace

const char* LintFindingKindName(LintFinding::Kind kind) {
  switch (kind) {
    case LintFinding::Kind::kUnsatBody:
      return "unsat-body";
    case LintFinding::Kind::kUnderivableBody:
      return "underivable-body";
    case LintFinding::Kind::kDeadRule:
      return "dead-rule";
    case LintFinding::Kind::kDuplicateRule:
      return "duplicate-rule";
    case LintFinding::Kind::kSubsumedRule:
      return "subsumed-rule";
    case LintFinding::Kind::kRedundantLiterals:
      return "redundant-literals";
    case LintFinding::Kind::kUnusedPattern:
      return "unused-pattern";
    case LintFinding::Kind::kUndefinedPattern:
      return "undefined-pattern";
  }
  return "unknown";
}

std::string LintReport::ToText() const {
  std::string out;
  for (const LintFinding& f : findings) {
    if (f.rule_index >= 0) {
      out += "rule " + std::to_string(f.rule_index + 1);
      out += " (" + f.pattern + "): ";
    } else {
      out += "pattern " + f.pattern + ": ";
    }
    out += LintFindingKindName(f.kind);
    out += ": ";
    out += f.message;
    out += '\n';
  }
  return out;
}

util::Result<LintReport> LintWrapper(
    const ElogProgram& program,
    const std::vector<std::string>& extraction_patterns) {
  MD_RETURN_NOT_OK(ValidateElog(program));

  LintReport report;
  report.rules_analyzed = static_cast<int32_t>(program.rules().size());

  const std::vector<std::string> defined = program.Patterns();
  const std::unordered_set<std::string> defined_set(defined.begin(),
                                                    defined.end());

  // Pattern-level checks are purely syntactic — they run for Δ wrappers too.
  for (const std::string& p : extraction_patterns) {
    if (p != "root" && !defined_set.count(p)) {
      report.findings.push_back({LintFinding::Kind::kUndefinedPattern, -1, p,
                                 "extraction pattern has no defining rule"});
    }
  }
  if (!extraction_patterns.empty()) {
    std::unordered_set<std::string> used(extraction_patterns.begin(),
                                         extraction_patterns.end());
    for (const ElogRule& r : program.rules()) {
      used.insert(r.parent_pattern);
      for (const ElogCondition& c : r.conditions) {
        if (c.kind == ElogCondition::Kind::kPatternRef) used.insert(c.pattern);
      }
    }
    for (const std::string& p : defined) {
      if (!used.count(p)) {
        report.findings.push_back(
            {LintFinding::Kind::kUnusedPattern, -1, p,
             "defined but neither extracted nor referenced by any rule"});
      }
    }
  }

  if (program.UsesDeltaBuiltins()) {
    // Theorem 6.6: Δ wrappers have no monadic-datalog translation, so the
    // minimizer cannot run. The syntactic findings above still stand.
    report.delta_builtins = true;
    return report;
  }

  MD_ASSIGN_OR_RETURN(
      analysis::MinimizeResult minimized,
      analysis::MinimizeWrapper(program, extraction_patterns));

  // ElogToDatalog is 1 rule : 1 rule, in order — fates index source rules.
  MD_CHECK(minimized.fates.size() == program.rules().size());
  for (size_t i = 0; i < minimized.fates.size(); ++i) {
    const ElogRule& rule = program.rules()[i];
    const RuleFate fate = minimized.fates[i];
    if (fate != RuleFate::kKept) {
      report.findings.push_back({FateKind(fate), static_cast<int32_t>(i),
                                 rule.head_pattern,
                                 std::string(FateMessage(fate)) + " — " +
                                     ToString(rule)});
    } else if (minimized.literals_removed[i] > 0) {
      report.findings.push_back(
          {LintFinding::Kind::kRedundantLiterals, static_cast<int32_t>(i),
           rule.head_pattern,
           std::to_string(minimized.literals_removed[i]) +
               " redundant body atom(s) in the datalog translation — " +
               ToString(rule)});
    }
  }

  // Deterministic order: rule findings by rule index, pattern findings last.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     const int32_t ai = a.rule_index < 0 ? INT32_MAX : a.rule_index;
                     const int32_t bi = b.rule_index < 0 ? INT32_MAX : b.rule_index;
                     return ai < bi;
                   });
  return report;
}

}  // namespace mdatalog::elog
