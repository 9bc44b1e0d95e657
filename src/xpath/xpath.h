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
/// in O(|P|·|dom|). Monadic datalog is positive (Section 3), so a query with
/// not(·) is a stratified monadic program: each not(e) is one stratum, e's
/// own program run once on the tree, whose complement the next stratum
/// reads as given facts. With k negations that is k + 1 ground-plan passes,
/// O(k·|P|·|dom|).

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

/// Compiles `path` to a monadic datalog program over τ_ur whose query
/// predicate selects exactly the path's result. Size O(|path|); evaluates
/// with the Theorem 4.2 engine in O(|P|·|dom|). A path with not(·) has no
/// positive program: Unimplemented.
util::Result<core::Program> XPathToDatalog(const Path& path);

/// The node set `query` selects on `t` (context = the virtual document node
/// for absolute paths; every node for relative ones), sorted ascending.
/// Parses, then runs the ground plan once per stratum: O(k·|P|·|dom|) for a
/// query with k not(·)s.
util::Result<std::vector<tree::NodeId>> EvalXPath(const tree::Tree& t,
                                                  std::string_view query);

}  // namespace mdatalog::xpath
