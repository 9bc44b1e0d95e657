#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

/// \file sat_solver.h
/// A self-contained incremental CDCL-lite SAT core for the wrapper
/// static-analysis subsystem (containment/equivalence, containment.h).
///
/// Scope: exactly what the bounded-containment encodings need —
///   * incremental clause addition between Solve() calls,
///   * assumption-based solving (the per-depth-layer selectors of the
///     tree-template unfolding are passed as assumptions, so one encoding
///     serves every depth without re-encoding),
///   * a conflict budget so an analysis request can never wedge a worker.
///
/// The implementation is a classical two-watched-literal CDCL loop with
/// first-UIP clause learning, EVSIDS-style variable activities, phase
/// saving and Luby restarts. No clause-database reduction and no
/// preprocessing: the analysis encodings are propagation-heavy and modest
/// (10^4–10^6 clauses), and the conflict budget bounds the worst case.
/// No external dependencies.

namespace mdatalog::analysis {

/// A literal in DIMACS convention: +v means variable v is true, -v means
/// variable v is false. Variables are 1-based. 0 is not a literal.
using Lit = int32_t;

class SatSolver {
 public:
  enum class Outcome {
    kSat,      ///< satisfying assignment found (read via ModelValue)
    kUnsat,    ///< unsatisfiable under the given assumptions
    kUnknown,  ///< conflict budget exhausted before a verdict
  };

  SatSolver();

  /// Allocates a fresh variable, returns its 1-based index.
  Lit NewVar();
  int32_t num_vars() const { return num_vars_; }

  /// Adds a clause (disjunction of literals). Tautologies are dropped,
  /// duplicate literals merged. Adding the empty clause (or deriving one)
  /// makes the solver terminally unsatisfiable. Must not be called while a
  /// Solve() is in progress (the solver is single-threaded by design).
  void AddClause(std::vector<Lit> lits);
  /// Convenience overloads for the encoder's common clause shapes.
  void AddUnit(Lit a) { AddClause({a}); }
  void AddBinary(Lit a, Lit b) { AddClause({a, b}); }
  void AddTernary(Lit a, Lit b, Lit c) { AddClause({a, b, c}); }

  /// Solves the current formula under `assumptions` (literals forced true
  /// for this call only). `max_conflicts` < 0 means unbounded. Learned
  /// clauses persist across calls — the incremental-solving contract.
  Outcome Solve(const std::vector<Lit>& assumptions = {},
                int64_t max_conflicts = -1);

  /// Value of `lit` in the model of the last kSat Solve().
  bool ModelValue(Lit lit) const;

  /// True once the clause set itself (no assumptions) is known unsatisfiable.
  bool terminally_unsat() const { return !ok_; }

  int64_t conflicts() const { return stats_conflicts_; }
  int64_t decisions() const { return stats_decisions_; }
  int64_t propagations() const { return stats_propagations_; }
  int64_t num_clauses() const { return static_cast<int64_t>(clauses_.size()); }

 private:
  // Internal literal index: variable v (1-based) with sign s (true =
  // negated) maps to 2*(v-1)+s. Watch lists are indexed by this.
  static int32_t Index(Lit l) {
    return 2 * (std::abs(l) - 1) + (l < 0 ? 1 : 0);
  }

  enum : int8_t { kFalse = 0, kTrue = 1, kUndef = -1 };
  int8_t ValueOf(Lit l) const {
    int8_t a = assigns_[std::abs(l)];
    if (a == kUndef) return kUndef;
    return (l > 0) == (a == kTrue) ? kTrue : kFalse;
  }

  struct Watcher {
    int32_t clause;  // index into clauses_
    Lit blocker;     // cached literal; clause already satisfied if true
  };

  void Enqueue(Lit l, int32_t reason);
  int32_t Propagate();  // returns conflicting clause index or -1
  void Analyze(int32_t confl, std::vector<Lit>* learned, int32_t* bt_level);
  void CancelUntil(int32_t level);
  Lit PickBranchLit();
  void BumpVar(int32_t var);
  void DecayActivities();
  void WatchClause(int32_t ci);

  // Activity-ordered max-heap of variables (indices 1..num_vars_).
  void HeapInsert(int32_t var);
  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  int32_t HeapPop();

  int32_t num_vars_ = 0;
  bool ok_ = true;

  std::vector<std::vector<Lit>> clauses_;      // problem + learned clauses
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal Index()
  std::vector<int8_t> assigns_;                // indexed by var, kUndef/…
  std::vector<int8_t> phase_;                  // saved polarity per var
  std::vector<int32_t> level_;                 // decision level per var
  std::vector<int32_t> reason_;                // clause index or -1, per var
  std::vector<Lit> trail_;
  std::vector<int32_t> trail_lim_;  // trail index at each decision level
  size_t qhead_ = 0;

  std::vector<double> activity_;  // per var
  double var_inc_ = 1.0;
  std::vector<int32_t> heap_;          // binary max-heap of vars
  std::vector<int32_t> heap_pos_;      // var -> heap index, -1 if absent
  std::vector<int8_t> seen_;           // scratch for Analyze

  std::vector<int8_t> model_;  // assigns snapshot of the last SAT solve

  int64_t stats_conflicts_ = 0;
  int64_t stats_decisions_ = 0;
  int64_t stats_propagations_ = 0;
};

}  // namespace mdatalog::analysis
