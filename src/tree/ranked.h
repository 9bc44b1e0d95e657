#pragma once

#include "src/tree/tree.h"
#include "src/util/status.h"

/// \file ranked.h
/// Ranked-tree validation (Section 2). The query-automata module and the
/// ranked TMNF chase work on plain Trees through the child_k accessors; a
/// tree is ranked with constant K when no node has more than K children.

namespace mdatalog::tree {

/// Checks the weaker schema constraint used by the query-automata module:
/// every node has at most `max_rank` children (the paper's Examples 4.9/4.21
/// reuse one label at several arities, so strict ranking is optional there).
util::Status ValidateMaxArity(const Tree& t, int32_t max_rank);

}  // namespace mdatalog::tree
