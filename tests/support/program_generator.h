#pragma once

#include "src/core/ast.h"
#include "src/util/rng.h"

/// \file program_generator.h
/// Random monadic datalog programs over the tree schemata — fuel for the
/// cross-engine equivalence property tests (naive == reference == grounded)
/// and the TMNF round-trip tests.

namespace mdatalog::core {

struct ProgramGenOptions {
  int32_t num_rules = 8;
  int32_t num_idb_preds = 4;
  int32_t max_body_atoms = 4;
  /// Labels the label_<l> atoms may mention.
  std::vector<std::string> labels = {"a", "b"};
  /// Admit child / lastchild (extended signature: the grounded engine's
  /// child enumeration and lastchild lowering, and the TMNF chase).
  bool allow_extended = false;
  /// Also emit what the Theorem 4.2 grounder must split off or share across
  /// instances: variable components without the head variable (bridges),
  /// nullary IDB predicates z0/z1 in heads and bodies, and constants (some
  /// outside small trees) in heads and ground body atoms.
  bool allow_nonlocal = false;
};

/// Generates a safe monadic program; every rule's head variable occurs in the
/// body by construction. Query predicate is q0.
Program RandomMonadicProgram(util::Rng& rng, const ProgramGenOptions& options);

}  // namespace mdatalog::core
