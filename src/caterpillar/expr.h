#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/util/result.h"

/// \file expr.h
/// Caterpillar expressions (Section 2): regular expressions over an alphabet
/// Γ of binary tree relations and unary node predicates, with concatenation,
/// union, Kleene star and inversion. Each expression denotes a binary
/// relation [[E]] over tree nodes; unary predicates denote identity pairs
/// {⟨x,x⟩ | P(x)}.
///
/// Unlike [Brüggemann-Klein and Wood 2000], inversion is allowed on compound
/// expressions (as in the paper) and pushed down to atoms via the identities
/// of Proposition 2.3 (see PushDownInverses).

namespace mdatalog::caterpillar {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node. Build via the factory functions below.
struct Expr {
  enum class Kind {
    kEpsilon,  ///< identity relation (ǫ)
    kRel,      ///< atomic binary relation, possibly inverted
    kTest,     ///< unary predicate as identity pairs
    kConcat,   ///< E1.E2 … (n-ary)
    kUnion,    ///< E1 | E2 … (n-ary)
    kStar,     ///< E* (reflexive-transitive closure)
    kPlus,     ///< E+ (transitive closure: E.E*)
    kInverse,  ///< E^-1
  };

  Kind kind;
  std::string name;   ///< kRel / kTest: relation or predicate name
  bool inverted = false;  ///< kRel only: R^-1 after push-down
  std::vector<ExprPtr> children;
};

ExprPtr Epsilon();
ExprPtr Rel(const std::string& name, bool inverted = false);
ExprPtr Test(const std::string& name);
ExprPtr Concat(std::vector<ExprPtr> parts);
ExprPtr Union(std::vector<ExprPtr> parts);
ExprPtr Star(ExprPtr e);
ExprPtr Inverse(ExprPtr e);
/// E+ = E.E* (the paper's shortcut), one node over E.
ExprPtr Plus(ExprPtr e);

/// Parses the textual syntax. Binary relations are bare identifiers
/// (firstchild, nextsibling, child, lastchild); unary predicates are written
/// in brackets ([leaf], [label_a]); `eps` is ǫ. Operators: postfix `*`, `+`
/// and `^-1` (tightest), infix `.` (concat), infix `|` (union, loosest);
/// parentheses group. Example (document order, Example 2.5):
///
///   child+ | (child^-1)*.nextsibling+.child*
///
/// Parentheses nest at most 256 deep, and so do postfix operators applied
/// one over another (util::TextCursor::kMaxNesting); deeper input, like any
/// syntax error, is kInvalidArgument "... at line L, column C".
util::Result<ExprPtr> ParseExpr(std::string_view text);

/// Renders an expression in the parser's syntax.
std::string ToString(const ExprPtr& e);

/// Structural size |E| (number of nodes).
int32_t ExprSize(const ExprPtr& e);

/// Pushes inversions down to atomic relations using Proposition 2.3, in time
/// O(|E|) (Proposition 2.4). The result contains no kInverse nodes; kRel
/// atoms may carry inverted = true. Tests and ǫ are symmetric and absorb
/// inversion.
ExprPtr PushDownInverses(const ExprPtr& e);

/// Replaces the derived relations child and lastchild by their τ_ur
/// definitions (child = firstchild.nextsibling*, Example 2.5/5.10;
/// lastchild = firstchild.nextsibling*.[lastsibling]), so downstream
/// consumers only see firstchild/nextsibling edges.
ExprPtr ExpandDerivedRels(const ExprPtr& e);

/// The document order relation ≺ of Example 2.5:
///   child+ | (child^-1)*.nextsibling+.child*
ExprPtr DocumentOrderExpr();

/// The total connector (≺ | ǫ | ≺^-1) used to connect disconnected rules in
/// the proof of Theorem 5.2; relates every pair of nodes.
ExprPtr AnyNodeExpr();

}  // namespace mdatalog::caterpillar
