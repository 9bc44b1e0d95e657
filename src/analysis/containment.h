#pragma once

#include <cstdint>
#include <optional>

#include "src/core/ast.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file containment.h
/// Bounded containment and equivalence of TMNF programs over unranked trees,
/// decided by an embedded incremental SAT core (sat_solver.h).
///
/// Containment of monadic datalog on trees is decidable (Frochaux–Grohe–
/// Schweikardt, 2014) but 2EXPTIME-hard; what a serving fleet needs is a
/// fast, *trustworthy* refutation/bounded-proof procedure. Contains(P, Q)
/// searches for a counterexample tree — a tree T and node v with
/// v ∈ P(T) but v ∉ Q(T) — over all trees of depth ≤ max_depth and
/// branching ≤ max_branch:
///
///  * The tree template is the complete max_branch-ary tree of max_depth
///    levels. Per node: an existence variable (children form a left prefix,
///    so every bounded tree embeds canonically) and an exactly-one label
///    choice over the labels mentioned by P or Q plus one fresh "other"
///    label (unmentioned labels are indistinguishable — Remark 2.2).
///  * Q's side is encoded as *closure*: every rule instance over the
///    template is an implication clause. A model may satisfy any supermodel
///    of Q's least model, and since the least model is the intersection of
///    all closed models, "some closed model misses q(v)" is exactly
///    "the least model misses q(v)".
///  * P's side is encoded as *acyclic support*: p(v) must pick a supporting
///    rule instance whose IDB body atoms hold with strictly smaller level
///    numbers (binary-encoded, compared with one-sided less-than chains).
///    Any satisfying assignment's true atoms therefore have well-founded
///    derivations, i.e. are contained in P's least model — exact, with no
///    per-round unrolling.
///  * Depth layering is incremental: one encoding at full depth, solved
///    under assumptions "every node deeper than d is absent" for
///    d = 0, 1, …, max_depth. Learned clauses persist across depths
///    (assumption-based incremental solving), and the first SAT layer yields
///    the shallowest counterexample.
///
/// A SAT model is *decoded into a real tree and re-checked with the
/// production evaluator* before kNotContained is returned — a verdict never
/// rests on the encoding alone. A witness the evaluator disagrees with is an
/// Internal error (an encoder bug, not a user error).
///
/// Contract (see src/analysis/README.md): kNotContained is a proof (witness
/// included); kContained proves absence of counterexamples only within the
/// depth/branch bounds — callers that need unconditional soundness must pair
/// it with syntactic arguments, as Minimize does.

namespace mdatalog::analysis {

struct ContainmentOptions {
  /// Maximum counterexample-tree depth in edges (0 = root-only trees).
  int32_t max_depth = 3;
  /// Maximum children per node in the counterexample search.
  int32_t max_branch = 3;
  /// Total SAT conflict budget across all depth layers; exhausting it yields
  /// kUnknown. < 0 = unbounded.
  int64_t max_conflicts = 1 << 20;
};

enum class Verdict {
  /// No counterexample exists within the depth/branch bounds.
  kContained,
  /// A verified counterexample tree was found.
  kNotContained,
  /// Conflict budget exhausted (or encoding limits hit) before a verdict.
  kUnknown,
};

struct ContainmentResult {
  Verdict verdict = Verdict::kUnknown;

  /// kNotContained only: the counterexample — `witness_node` is selected by
  /// P but not by Q on `witness_tree`.
  std::optional<tree::Tree> witness_tree;
  tree::NodeId witness_node = -1;
  /// Depth layer at which the counterexample appeared (edges).
  int32_t witness_depth = -1;

  // Solver effort, for stats surfaces and the bench.
  int64_t conflicts = 0;
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t num_vars = 0;
  int64_t num_clauses = 0;
};

/// Decides bounded containment P ⊆ Q of the query extents. Both programs
/// must be TMNF over τ_ur (tmnf::ToTmnf output) with a query predicate set.
/// InvalidArgument for programs outside that fragment.
util::Result<ContainmentResult> Contains(const core::Program& p,
                                         const core::Program& q,
                                         const ContainmentOptions& options = {});

struct EquivalenceResult {
  /// kContained here means "equivalent within bounds".
  Verdict verdict = Verdict::kUnknown;
  ContainmentResult forward;   ///< P ⊆ Q
  ContainmentResult backward;  ///< Q ⊆ P (skipped if forward refuted)
};

/// Bounded equivalence: Contains both ways, sharing the options' budget.
util::Result<EquivalenceResult> Equivalent(
    const core::Program& p, const core::Program& q,
    const ContainmentOptions& options = {});

}  // namespace mdatalog::analysis
