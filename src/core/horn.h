#pragma once

#include <cstdint>
#include <vector>

/// \file horn.h
/// Linear-time propositional Horn inference (Proposition 3.5). The solver is
/// the classic unit-propagation scheme of Dowling–Gallier / Minoux's LTUR:
/// per-clause counters of unsatisfied body atoms plus occurrence lists give
/// O(#clauses + #literals) total work.
///
/// The grounded tree evaluator (grounder.h) runs the same propagation with
/// implicit clauses — its occurrence lists are compiled into the GroundPlan.
/// This explicit-clause form is its test oracle: core_eval_test grounds small
/// trees clause by clause and checks EvaluateGrounded against SolveHorn.

namespace mdatalog::core {

/// A definite Horn clause head ← body (body may be empty: a fact).
struct HornClause {
  int32_t head;
  std::vector<int32_t> body;
};

/// A propositional Horn program over atoms 0..num_atoms-1.
struct HornInstance {
  int32_t num_atoms = 0;
  std::vector<HornClause> clauses;

  int64_t NumLiterals() const {
    int64_t n = 0;
    for (const HornClause& c : clauses) {
      n += 1 + static_cast<int64_t>(c.body.size());
    }
    return n;
  }
};

/// Computes the least model: value[a] == true iff atom a is derivable.
/// Runs in time linear in NumLiterals().
std::vector<bool> SolveHorn(const HornInstance& instance);

}  // namespace mdatalog::core
