#pragma once

#include <vector>

#include "src/tree/tree.h"
#include "src/util/result.h"
#include "src/xpath/xpath.h"

/// \file xpath_reference.h
/// The XPath oracle: Core XPath read straight off its definition, one axis
/// image at a time over std::set node sets, with each predicate tested per
/// context node. It shares nothing with xpath::EvalXPath, which compiles the
/// query to monadic datalog and runs the ground plan once per not(·)
/// stratum; the differential tests hold the two to the same answers.
///
/// Not for production use: a downward axis is walked once per context node,
/// so //a[not(descendant::b)] is O(|dom|·depth), quadratic on a chain. It
/// never recurses into the tree, so depth costs no stack.

namespace mdatalog::xpath {

/// The node set selected by `path` (context = the virtual document node for
/// absolute paths; every node for relative ones), sorted ascending.
util::Result<std::vector<tree::NodeId>> EvalXPathReference(
    const tree::Tree& t, const Path& path);

/// True iff a predicate of `path`, at any depth, uses not(·): exactly the
/// paths XPathToDatalog rejects.
bool PathUsesNegation(const Path& path);

}  // namespace mdatalog::xpath
