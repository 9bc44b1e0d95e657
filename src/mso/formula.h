#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file formula.h
/// Monadic second-order logic over unranked trees (Section 2): node
/// variables (lowercase), set variables (capitalized), the τ_ur relation
/// symbols, equality, membership, boolean connectives and both kinds of
/// quantifiers.
///
/// The reference evaluator implements the satisfaction relation literally by
/// enumerating assignments (exponential — for cross-checking the automaton
/// compilation on small trees only).

namespace mdatalog::mso {

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

struct Formula {
  enum class Kind {
    // Atoms. `var1`/`var2` hold variable names; `name` holds the label.
    kLabel,        ///< label_<name>(var1)
    kRoot,         ///< root(var1)
    kLeaf,         ///< leaf(var1)
    kLastSibling,  ///< lastsibling(var1)
    kFirstChild,   ///< firstchild(var1, var2)
    kNextSibling,  ///< nextsibling(var1, var2)
    kEq,           ///< var1 = var2          (both first-order)
    kIn,           ///< var1 ∈ var2          (var2 second-order)
    // Connectives (children).
    kNot,
    kAnd,
    kOr,
    kImplies,
    // Quantifiers: bind `name`, child = body. First-order names must start
    // with a lowercase letter, second-order with an uppercase letter.
    kExistsFo,
    kForallFo,
    kExistsSo,
    kForallSo,
  };

  Kind kind;
  std::string name;
  std::string var1, var2;
  std::vector<FormulaPtr> children;
};

// Factories.
FormulaPtr Label(const std::string& label, const std::string& x);
FormulaPtr Root(const std::string& x);
FormulaPtr Leaf(const std::string& x);
FormulaPtr LastSibling(const std::string& x);
FormulaPtr FirstChild(const std::string& x, const std::string& y);
FormulaPtr NextSibling(const std::string& x, const std::string& y);
FormulaPtr Eq(const std::string& x, const std::string& y);
FormulaPtr In(const std::string& x, const std::string& big_x);
FormulaPtr Not(FormulaPtr f);
FormulaPtr And(std::vector<FormulaPtr> fs);
FormulaPtr Or(std::vector<FormulaPtr> fs);
FormulaPtr Implies(FormulaPtr a, FormulaPtr b);
FormulaPtr ExistsFo(const std::string& x, FormulaPtr body);
FormulaPtr ForallFo(const std::string& x, FormulaPtr body);
FormulaPtr ExistsSo(const std::string& big_x, FormulaPtr body);
FormulaPtr ForallSo(const std::string& big_x, FormulaPtr body);

/// Parses MSO syntax:
///
///   exists x. forall Y. (in(x, Y) -> label_a(x))
///   root(x) & ~leaf(x) | firstchild(x, y)
///   x = y
///
/// Precedence: ~ binds tightest, then &, then |, then ->; quantifier bodies
/// extend as far right as possible. First-order variables are lowercase,
/// set variables start with an uppercase letter.
///
/// `(`, `~`, quantifier bodies and the arrows of one `->` chain (which nests
/// to the right) together nest at most 256 deep
/// (util::TextCursor::kMaxNesting); deeper input, like any syntax error, is
/// kInvalidArgument "... at line L, column C". ToString parenthesizes every
/// ~ and -> operand, which can take two levels per connective, so its text
/// parses again whenever the formula nests at most 128 deep.
util::Result<FormulaPtr> ParseFormula(std::string_view text);

std::string ToString(const FormulaPtr& f);

/// Free first-order / second-order variables.
void FreeVariables(const FormulaPtr& f, std::set<std::string>* fo,
                   std::set<std::string>* so);

/// The quantifier rank (maximum quantifier nesting depth, Section 2).
int32_t QuantifierRank(const FormulaPtr& f);

/// Reference model checking by assignment enumeration. `fo` maps node
/// variables to nodes, `so` maps set variables to node sets. Fails on
/// unbound variables. Exponential in the quantifier count — tests only.
util::Result<bool> EvalFormulaReference(
    const tree::Tree& t, const FormulaPtr& f,
    const std::map<std::string, tree::NodeId>& fo,
    const std::map<std::string, std::set<tree::NodeId>>& so);

/// All nodes v such that t ⊨ f(x := v) — the unary query semantics, by the
/// reference evaluator.
util::Result<std::vector<tree::NodeId>> EvalUnaryQueryReference(
    const tree::Tree& t, const FormulaPtr& f, const std::string& x);

}  // namespace mdatalog::mso
