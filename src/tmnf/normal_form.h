#pragma once

#include <optional>
#include <vector>

#include "src/core/ast.h"
#include "src/core/tree_schema.h"
#include "src/util/result.h"

/// \file normal_form.h
/// TMNF — Tree-Marking Normal Form (Definition 5.1). A monadic datalog
/// program over τ_rk (τ_ur) is in TMNF if every rule has one of the forms
///
///   (1)  p(x) ← p0(x).
///   (2)  p(x) ← p0(x0), B(x0, x).     B = R or R^-1, R binary in the schema
///   (3)  p(x) ← p0(x), p1(x).
///
/// where p0, p1 are intensional or unary predicates of the schema. Form (2)
/// with B = R^-1 is written as the atom R(x, x0).
///
/// ReadTmnfRule is the one parse of these forms: CheckTmnf,
/// analysis::TmnfView and elog::DatalogToElog read rules through it and
/// differ only in which unary operands they admit.

namespace mdatalog::tmnf {

/// A unary body operand p0 or p1.
struct TmnfOperand {
  core::PredId pred = -1;
  /// The tree-schema meaning of an extensional `pred` that names a unary
  /// tree predicate; nullopt for an intensional predicate or any other name.
  std::optional<core::TreePred> tree;
};

/// A rule read as one of the three forms.
struct TmnfRule {
  enum class Form : uint8_t { kCopy, kStep, kAnd };  ///< (1), (2), (3)
  Form form = Form::kCopy;
  TmnfOperand op0;       ///< p0
  TmnfOperand op1;       ///< kAnd: p1
  core::TreePred rel;    ///< kStep: R
  bool inverse = false;  ///< kStep: B = R^-1, the atom R(x, x0)
};

/// Reads `rule` of `program` as one of the three forms: head p(x); unary
/// body atoms on x, or on x0 ≠ x for a step; a step's binary atom R(x0, x)
/// or R(x, x0) with R extensional and in the binary schema (child_k when
/// `ranked`, else firstchild and nextsibling). Operands are not judged here.
/// InvalidArgument saying what does not fit otherwise. `intensional` is
/// program.IntensionalMask().
util::Result<TmnfRule> ReadTmnfRule(const core::Program& program,
                                    const std::vector<bool>& intensional,
                                    const core::Rule& rule, bool ranked);

struct TmnfCheckOptions {
  /// Accept child1..child<K> as the binary schema (τ_rk) instead of
  /// firstchild/nextsibling (τ_ur).
  bool ranked = false;
};

/// OK iff `program` is in TMNF: every rule reads as a form whose operands
/// are intensional or unary schema predicates. Otherwise InvalidArgument
/// naming the first offending rule.
util::Status CheckTmnf(const core::Program& program,
                       const TmnfCheckOptions& options = {});

bool IsTmnf(const core::Program& program, const TmnfCheckOptions& options = {});

}  // namespace mdatalog::tmnf
