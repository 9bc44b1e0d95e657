#pragma once

#include <cstdint>
#include <string>

/// \file tree_schema.h
/// The names of the tree-schema predicates: the schemata τ_rk / τ_ur of
/// Section 2 plus the Section 5/6 extensions.
///
///   τ_ur:   root/1, leaf/1, lastsibling/1, label_<l>/1,
///           firstchild/2, nextsibling/2
///   τ_rk:   child1/2 … child<K>/2 (child_k of Section 2)
///   ext:    firstsibling/1, child/2, lastchild/2,
///           nextsibling_tc/2 (the reflexive-transitive closure nextsibling*
///           used by the TMNF chase, Lemma 5.5)
///
/// label_<l> for a label l not occurring in a tree is the empty relation,
/// consistent with the infinite-alphabet reading of Remark 2.2.

namespace mdatalog::core {

/// True iff `name`/`arity` is one of the tree-schema predicates above.
bool IsTreePredicate(const std::string& name, int32_t arity);

/// Name of the label predicate for label `l` ("label_" + l).
std::string LabelPredName(const std::string& label);
/// If `name` is a label predicate, returns the label; otherwise "".
std::string LabelFromPredName(const std::string& name);
/// If `name` is child<k> (1 <= k <= INT32_MAX), returns k; otherwise -1.
int32_t ChildKIndex(const std::string& name);

}  // namespace mdatalog::core
