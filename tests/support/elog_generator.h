#pragma once

#include "src/elog/ast.h"
#include "src/util/rng.h"

/// \file elog_generator.h
/// Random Elog⁻Δ programs — fuel for the property tests that hold the ground
/// plan to the native Elog evaluator and the stream session to batch Wrap.

namespace mdatalog::elog {

/// A random Elog⁻Δ program over labels {a, b, c}. Conditions come in an
/// order the native evaluator accepts: each one reads only variables an
/// earlier atom binds, and a pattern reference may bind a fresh variable
/// (enumerating the pattern's extent) that a later condition — contains,
/// nextsibling, notafter, notbefore or before — then joins to the rule.
ElogProgram RandomDeltaProgram(util::Rng& rng);

}  // namespace mdatalog::elog
