#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/ast.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file xpath.h
/// Core XPath over document trees — the Section 7 application: "Core XPath,
/// the logical core fragment of the popular XPath language, can be mapped
/// efficiently to monadic datalog and thus inherits its very favorable
/// worst-case evaluation complexity bounds" [Gottlob, Koch 2002b; Gottlob,
/// Koch, Pichler 2002].
///
/// Supported grammar (a faithful Core XPath subset):
///
///   path      := '/' relpath | relpath            (absolute | relative)
///   relpath   := step ('/' step)*
///   step      := axis '::' nodetest predicate*
///              | nodetest predicate*              (child axis shorthand)
///              | '/' step                         ('//' = descendant)
///   axis      := self | child | descendant | descendant-or-self | parent
///              | ancestor | ancestor-or-self | following-sibling
///              | preceding-sibling
///   nodetest  := label | '*'
///   predicate := '[' expr ']'
///   expr      := relpath | 'not' '(' expr ')' | expr 'and' expr
///              | expr 'or' expr | '(' expr ')'
///
/// Examples: "/html/body//tr[td]/td[not(b)]",
/// "//li[following-sibling::li]".
///
/// `[`, `(` and `not(` nest at most 256 deep (util::TextCursor::kMaxNesting);
/// deeper input, like any syntax error, is kInvalidArgument "... at line L,
/// column C".
///
/// Queries compile to monadic datalog over τ_ur (axes become caterpillar
/// expressions, Lemma 5.9) and evaluate with the Theorem 4.2 grounded engine
/// in O(|P|·|dom|); a direct set-based evaluator provides the reference
/// semantics for cross-validation.

namespace mdatalog::xpath {

struct Expr;  // predicate expression
using ExprP = std::shared_ptr<const Expr>;

enum class Axis {
  kSelf,
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
};

struct Step {
  Axis axis = Axis::kChild;
  std::string label;  ///< node test; "" means '*'
  std::vector<ExprP> predicates;
};

struct Path {
  bool absolute = false;  ///< starts at the root ('/...') or at any node
  std::vector<Step> steps;
};

struct Expr {
  enum class Kind { kPath, kNot, kAnd, kOr };
  Kind kind;
  Path path;                    ///< kPath
  std::vector<ExprP> children;  ///< kNot (1), kAnd/kOr (2+)
};

/// Parses a Core XPath query.
util::Result<Path> ParseXPath(std::string_view text);

std::string ToString(const Path& path);

/// Reference semantics: the node set selected by `path` (context = root for
/// absolute paths; every node for relative ones). Direct set-based
/// evaluation, used to cross-check the datalog compilation.
util::Result<std::vector<tree::NodeId>> EvalXPathReference(
    const tree::Tree& t, const Path& path);

/// Compiles `path` to a monadic datalog program over τ_ur whose query
/// predicate selects exactly the path's result. Size O(|path|); evaluates
/// with the Theorem 4.2 engine in O(|P|·|dom|).
util::Result<core::Program> XPathToDatalog(const Path& path);

/// Convenience: parse + compile + evaluate (grounded engine). A query with
/// not(·) is evaluated by EvalXPathReference instead (negation is not
/// monadic datalog). That evaluator walks a downward axis once per context
/// node, so a predicate like //a[not(descendant::b)] costs O(|dom|·depth)
/// — quadratic on a chain; it never recurses, so depth costs no stack.
util::Result<std::vector<tree::NodeId>> EvalXPath(const tree::Tree& t,
                                                  std::string_view query);

}  // namespace mdatalog::xpath
