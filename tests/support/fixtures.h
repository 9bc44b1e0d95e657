#pragma once

#include <string>

#include "src/core/ast.h"
#include "src/util/rng.h"

/// \file fixtures.h
/// Programs and pages only tests use: two monadic datalog queries over
/// τ_ur and a deeply nested synthetic HTML page.

namespace mdatalog::core {

/// Selects all leaves at even depth (root depth = 0). Uses the parity of the
/// child relation through firstchild/nextsibling; query predicate "evenleaf".
Program EvenDepthLeafProgram();

/// Selects every node (the "dom" pattern of Theorem 6.5's proof):
///   dom(x) ← root(x).   dom(y) ← dom(x), firstchild(x,y).
///   dom(y) ← dom(x), nextsibling(x,y).
Program DomProgram();

}  // namespace mdatalog::core

namespace mdatalog::html {

/// A discussion board with nested <ul>/<li> threads up to `depth`.
std::string NestedBoardPage(util::Rng& rng, int32_t depth, int32_t fanout);

}  // namespace mdatalog::html
