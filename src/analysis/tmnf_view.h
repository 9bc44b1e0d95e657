#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/ast.h"
#include "src/core/tree_schema.h"
#include "src/tmnf/normal_form.h"
#include "src/util/result.h"

/// \file tmnf_view.h
/// A normalized, index-friendly view of a TMNF program over the unranked
/// tree schema τ_ur (Definition 5.1) — the input representation of the
/// SAT-backed containment encoder (containment.h).
///
/// TMNF rules have exactly three shapes; the view reads each rule through
/// tmnf::ReadTmnfRule and resolves every predicate occurrence into either a
/// τ_ur EDB symbol or a dense local IDB index, so the encoder never touches
/// strings or the PredicateTable on its hot path:
///
///   kCopy:  p(x) ← p0(x).                (p0 unary EDB or IDB)
///   kStep:  p(x) ← p0(x0), B(x0, x).     (B ∈ {firstchild, nextsibling},
///                                         either orientation)
///   kAnd:   p(x) ← p0(x), p1(x).

namespace mdatalog::analysis {

/// The τ_ur unary EDB symbols a TMNF body may test (a unary
/// core::TreePred::Kind). Labels carry the label index into TmnfView::labels.
struct EdbRef {
  core::TreePred::Kind kind = core::TreePred::Kind::kRoot;
  int32_t label = -1;  ///< index into TmnfView::labels when kind == kLabel
};

/// One unary body operand: an EDB test or an IDB predicate (local index).
struct OperandRef {
  bool is_edb = false;
  EdbRef edb;       ///< valid when is_edb
  int32_t idb = -1; ///< local IDB index when !is_edb
};

/// Which structural edge a kStep rule walks, seen from the *head* node v:
/// the support node u is the body node x0.
enum class StepDir : uint8_t {
  kFromParent,       ///< firstchild(x0, x): u = parent(v), v is a first child
  kFromFirstChild,   ///< firstchild(x, x0): u = firstchild(v)
  kFromPrevSibling,  ///< nextsibling(x0, x): u = prevsibling(v)
  kFromNextSibling,  ///< nextsibling(x, x0): u = nextsibling(v)
};

struct TmnfRuleView {
  using Kind = tmnf::TmnfRule::Form;
  Kind kind = Kind::kCopy;
  int32_t head = -1;  ///< local IDB index
  OperandRef op0;     ///< kCopy/kStep: the body predicate; kAnd: first
  OperandRef op1;     ///< kAnd only: second conjunct
  StepDir dir = StepDir::kFromParent;  ///< kStep only
  int32_t rule_index = -1;  ///< index into the source program's rules()
};

/// The normalized program: IDB predicates densely renumbered 0..num_idb-1,
/// label alphabet collected, rules classified. Built once per Contains call.
struct TmnfView {
  std::vector<TmnfRuleView> rules;
  std::vector<core::PredId> idb_preds;   ///< local IDB index -> PredId
  std::vector<std::string> labels;       ///< label index -> label string
  int32_t query = -1;                    ///< local IDB index of the query pred

  int32_t num_idb() const { return static_cast<int32_t>(idb_preds.size()); }

  /// Parses `program` (TMNF over τ_ur, unary query predicate that is
  /// intensional — or has no rules, in which case the query extent is empty
  /// and `query` is still materialized as an IDB index with no rules).
  /// InvalidArgument when a rule falls outside the three TMNF shapes over
  /// τ_ur. Operands are read wider than CheckTmnf reads them: firstsibling
  /// is an EDB test, and a non-schema predicate with no rules an empty IDB.
  static util::Result<TmnfView> Parse(const core::Program& program);

  /// Rebases this view onto the shared `alphabet`: labels of this view not
  /// yet in `alphabet` are appended, every kLabel EdbRef is remapped to its
  /// index in `alphabet`, and `labels` becomes `alphabet`. Calling this on
  /// both views (same alphabet vector) gives them one label index space —
  /// required before encoding them against each other.
  void RelabelInto(std::vector<std::string>* alphabet);
};

}  // namespace mdatalog::analysis
