#pragma once

#include <string>
#include <vector>

#include "src/util/result.h"

/// \file ast.h
/// The Elog⁻ wrapping language (Definition 6.2) and its Elog⁻Δ extension
/// (Theorem 6.6).
///
/// An Elog⁻ rule has the shape
///
///     p(x) ← p0(x0), subelemπ(x0, x), C, R.
///
/// where p is a *pattern* predicate, p0 the parent pattern (a pattern or
/// "root"), C condition atoms (leaf, firstsibling, nextsibling, lastsibling,
/// containsπ) and R pattern references. Rules with an ε subelem path are
/// *specialization rules* p(x) ← p0(x), C, R.
///
/// Elog⁻Δ adds the distance-tolerance and order builtins before%, notafter
/// and notbefore, which push the language strictly beyond MSO
/// (Theorem 6.6 — the aⁿbⁿ wrapper).

namespace mdatalog::elog {

/// A fixed path π ∈ (Σ ∪ {_})* from Definition 6.1; "_" is the wildcard.
struct ElogPath {
  std::vector<std::string> steps;

  bool empty() const { return steps.empty(); }
  /// Parses "table._.tr" (no quotes). "" parses to the ε path.
  static util::Result<ElogPath> Parse(const std::string& text);
  std::string ToString() const;
  bool operator==(const ElogPath&) const = default;
};

struct ElogCondition {
  enum class Kind {
    // Elog⁻ condition predicates (Definition 6.2):
    kLeaf,          ///< leaf(var1)
    kFirstSibling,  ///< firstsibling(var1)
    kLastSibling,   ///< lastsibling(var1)
    kNextSibling,   ///< nextsibling(var1, var2)
    kContains,      ///< contains_path(var1, var2); path must be non-ε
    kPatternRef,    ///< pattern(var1)
    // Elog⁻Δ builtins (Section 6.3):
    kBefore,        ///< before_{path,α%-β%}(var1, var2, var3)
    kNotAfter,      ///< notafter_path(var1, var2)
    kNotBefore,     ///< notbefore_path(var1, var2)
  };
  Kind kind;
  std::string var1, var2, var3;
  ElogPath path;
  std::string pattern;
  int32_t alpha_pct = 0;
  int32_t beta_pct = 100;
};

struct ElogRule {
  std::string head_pattern;
  std::string head_var;
  std::string parent_pattern;  ///< a pattern name or "root"
  std::string parent_var;
  /// ε ⇔ specialization rule (head_var must equal parent_var then).
  ElogPath subelem;
  std::vector<ElogCondition> conditions;

  bool is_specialization() const { return subelem.empty(); }
};

class ElogProgram {
 public:
  void AddRule(ElogRule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<ElogRule>& rules() const { return rules_; }
  std::vector<ElogRule>& mutable_rules() { return rules_; }

  /// Pattern predicates defined by the program (heads), in first-definition
  /// order.
  std::vector<std::string> Patterns() const;

  /// True if any rule uses an Elog⁻Δ builtin (before/notafter/notbefore).
  bool UsesDeltaBuiltins() const;

 private:
  std::vector<ElogRule> rules_;
};

/// Structural checks from Definition 6.2: head is not "root"; specialization
/// rules reuse the parent variable; contains paths are non-ε; the rule's
/// query graph is connected; condition variables chain back to the head or
/// parent variable.
util::Status ValidateElog(const ElogProgram& program);

std::string ToString(const ElogRule& rule);
std::string ToString(const ElogProgram& program);

/// Parses the textual syntax, e.g.
///
///   item(X)  <- root(R), subelem(R, "table.tr", X).
///   price(Y) <- item(X), subelem(X, "td", Y), lastsibling(Y).
///   cheap(X) <- item(X), leaf(X).                      % specialization
///   anbn(X)  <- root(X), contains(X, "a", Y), a0(Y),
///               before(X, "b", Y, Z, 50, 50), b0(Z).  // the aⁿbⁿ wrapper
///
/// Names are [A-Za-z0-9_]+; `<-` or `:-` separates head and body; `%` and
/// `//` start comments to the end of the line. The before window's α and β
/// are unsigned decimals no larger than INT32_MAX. Syntax errors are
/// kInvalidArgument "... at line L, column C" (util/text_cursor.h); the
/// parsed program is also checked by ValidateElog.
util::Result<ElogProgram> ParseElog(std::string_view text);

}  // namespace mdatalog::elog
