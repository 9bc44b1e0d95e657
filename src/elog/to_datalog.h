#pragma once

#include "src/core/ast.h"
#include "src/elog/ast.h"
#include "src/util/result.h"

/// \file to_datalog.h
/// The easy direction of Theorem 6.5: Elog⁻ is a fragment of monadic datalog
/// over τ_ur ∪ {child} once the subelemπ / containsπ shortcuts are expanded
/// per Definition 6.1:
///
///   subelem_ε(x, y)   :=  x = y           (variable substitution)
///   subelem_{_.π}(x,y) :=  child(x, z), subelem_π(z, y)
///   subelem_{a.π}(x,y) :=  child(x, z), label_a(z), subelem_π(z, y)
///
/// The root pattern becomes the extensional root predicate; pattern
/// predicates become intensional unary predicates; condition predicates map
/// to their τ_ur counterparts. Δ builtins have no MSO/datalog counterpart
/// (Theorem 6.6): ElogToDatalog rejects them, LowerToGroundProgram keeps
/// them as builtin atoms of the grounded engine.

namespace mdatalog::elog {

/// Translates an Elog⁻ program. `query_pattern` (optional, may be empty)
/// designates the program's query predicate.
util::Result<core::Program> ElogToDatalog(const ElogProgram& program,
                                          const std::string& query_pattern = "");

/// Lowers an Elog⁻ or Elog⁻Δ program straight into a program the grounded
/// engine (core/grounder.h) replays in O(|P|·|dom|): the translation above,
/// with the Δ builtins as the engine's builtin atoms, rules over undefined
/// patterns dropped (their extent is empty), and each rule split so that no
/// variable keeps `child` successors in two branches the rule joins only
/// through it — every other branch becomes an auxiliary unary predicate on
/// the variable it hangs from. For a Δ-free program the predicate table
/// starts with ElogToDatalog's, so "pat_<p>" has the same PredId in both.
/// Semantics are the declarative ones of Definition 6.2: where the native
/// evaluator (eval.h) rejects a condition that reads a variable no earlier
/// condition binds, the lowered rule still has its conjunctive meaning.
util::Result<core::Program> LowerToGroundProgram(const ElogProgram& program);

}  // namespace mdatalog::elog
