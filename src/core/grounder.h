#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/ast.h"
#include "src/core/eval.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file grounder.h
/// The Theorem 4.2 evaluator: monadic datalog over τ_rk / τ_ur in time
/// O(|P| · |dom|).
///
/// Following the paper's proof, evaluation proceeds in three steps:
///  1. every rule is made *connected* by splitting off variable components
///     that do not contain the head variable into fresh propositional bridge
///     predicates (p(x) ← p1(x), p2(y).  ⇒  p(x) ← p1(x), b.  and
///     b ← p2(y).);
///  2. each connected rule is grounded: by Proposition 4.1 every binary
///     predicate of the tree schemata (firstchild, nextsibling, child_k) is
///     functional in both directions, and child is functional upward, so
///     fixing one variable of a connected rule determines the others along
///     those edges; a `child` edge walked downward enumerates the children of
///     the bound node — found by propagating along the rule's query graph
///     from an anchor node;
///  3. the resulting ground program is propositional Horn and is solved with
///     LTUR (Proposition 3.5) — with implicit clauses: the plan keeps, per
///     IDB predicate, a *trigger list* (one propagation schedule per body
///     occurrence, rooted at that occurrence's variable), so a rule instance
///     is built only when one of its body atoms is derived and no clause is
///     ever stored. Each atom is derived once and fires each trigger once,
///     which keeps the total at O(|P| · |dom|).
///
/// The Elog⁻Δ builtins (Theorem 6.6) are admitted as extensional predicates
/// whose names carry their parameters (DeltaBuiltinPredName below). They
/// are residual checks against per-tree integers that one bottom-up pass
/// fills per distinct path π — min/max preorder rank of π(x0), child
/// positions, a per-sibling prefix count — so Elog⁻Δ keeps the
/// O(|P| · |dom|) bound: Theorem 6.6 takes it beyond MSO, not beyond linear
/// time. The Elog lowering (elog/to_datalog.h) emits exactly these shapes.
///
/// lastchild(x, y) is lowered to child(x, y) ∧ lastsibling(y) at compile
/// time (Theorem 5.2's first step, Lemma 5.6). Programs using nextsibling_tc
/// do not ground; the TMNF pipeline (Theorem 5.2) normalizes them away.
///
/// The same plan also runs incrementally, over a tree that grows in document
/// order (IncrementalReplay, the engine of the streaming front). Besides its
/// IDB trigger lists, a plan keeps EDB trigger lists: per rule component, one
/// schedule per variable whose node event makes one of the component's
/// structural EDB atoms final — its creation (label, firstsibling, root and
/// the child end of firstchild, nextsibling, child, child_k), its close
/// (leaf) or its parent's close (lastsibling). The last body atom of every
/// rule instance to become true, derived atom or final EDB fact, thus runs
/// a schedule that builds the instance. The Δ builtins are facts about the
/// finished tree, so "the input is complete" is one more fact: a rule whose
/// component reads a builtin waits for it like for a shared-body atom, and
/// at the end of input the replay fills the builtin tables and sweeps it.

namespace mdatalog::core {

/// Work counters of one grounded evaluation.
struct GroundStats {
  /// Ground rule instances whose body held (fired), bridge and
  /// propositional instances included; each fires at most once.
  int64_t num_clauses = 0;
};

/// True iff every rule of `program` can be grounded by this evaluator:
/// monadic and safe, with extensional atoms from the tree schema — root,
/// leaf, firstsibling, lastsibling, label_a, firstchild, nextsibling,
/// child_k, child, lastchild — or the Δ builtins below (variable arguments
/// only). lastchild needs child and lastsibling free for their tree meaning
/// (not intensional), because the plan lowers it to those two.
///
/// `child` is admitted in any shape. Evaluation is O(|P| · |dom|) when no
/// variable of a rule has `child` successors in two branches that the rule
/// joins only through that variable (a trigger would enumerate their
/// product); the Elog lowering splits every such branch into a predicate of
/// its own. A before window whose y is used later enumerates the window, so
/// a wide one costs up to the fan-out per instance.
bool GroundableOverTree(const Program& program);

// --- Elog⁻Δ builtins as extensional predicates ------------------------------
//
// A path π is an Elog path (elog/ast.h): steps joined by '.', "_" the
// wildcard. pre(n) is n's preorder rank and π(x0) the nodes reached from x0
// along π.

enum class DeltaBuiltin : uint8_t {
  /// notafter_π(x0, y) ⇔ pre(y) ≤ min pre(π(x0)) (true when π(x0) is empty).
  kNotAfter,
  /// notbefore_π(x0, y) ⇔ pre(y) ≥ max pre(π(x0)) (true when π(x0) is empty).
  kNotBefore,
  /// The window of before_{π,α%,β%}, ternary (x0, x, c): c is a child of x0
  /// and pos(c) − pos(top) ∈ [⌈kα/100⌉, ⌊kβ/100⌋], where k is x0's number of
  /// children and top the child of x0 that is an ancestor-or-self of x
  /// (false if x is not a proper descendant of x0). π is unused.
  kBeforeWindow,
  /// before_{π,α%,β%}(x0, x, y) with y used nowhere else, binary (x0, x):
  /// some y ∈ π(x0) (π non-empty) lies below a child of x0 in that window.
  kBeforeAny,
};

/// The name of the extensional predicate that carries a builtin and its
/// parameters; its arity is 3 for kBeforeWindow and 2 otherwise.
std::string DeltaBuiltinPredName(DeltaBuiltin kind, std::string_view path,
                                 int32_t alpha_pct = 0, int32_t beta_pct = 100);

/// True iff `name`/`arity` is a DeltaBuiltinPredName of a well-formed builtin.
bool IsDeltaBuiltinPredicate(std::string_view name, int32_t arity);

/// Evaluates `program` over `t` per Theorem 4.2. Fails with
/// FailedPrecondition if !GroundableOverTree(program).
util::Result<EvalResult> EvaluateGrounded(const Program& program,
                                          const tree::Tree& t,
                                          GroundStats* stats = nullptr);

// --- two-phase evaluation (wrapper-serving workloads) -----------------------
//
// A wrapper workload evaluates one fixed program over a stream of documents.
// Everything the Theorem 4.2 evaluator derives from the *program* — the
// connectedness split, the propagation schedules and trigger lists, the
// extensional-predicate classification, the atom-slot layout — is identical for
// every tree. GroundPlan captures that work once; EvaluateGrounded(plan, t)
// replays it per tree in O(|P|·|dom|), with only a per-tree label-id
// resolution (labels are interned per tree) on top.

/// Reusable per-worker evaluation scratch: the propagation queue, the
/// variable binding of the instance under test, the enumeration cursors, the
/// per-tree label resolution and the per-tree builtin tables. Reset —
/// capacity kept — on entry to every evaluation, so an aborted evaluation
/// leaves no residue and steady serving does not allocate. Not thread-safe:
/// use one arena per worker thread.
struct GroundArena {
  struct Cursor {
    int32_t op;    // the enumerating step of the schedule
    int32_t cur;   // current node, or index into `kids`
    int32_t last;  // last candidate (domain and window enumerations)
  };
  std::vector<std::pair<int32_t, tree::NodeId>> queue;  // (atom slot, node)
  // Incremental replay only: node events (NodeEvent, node), in order.
  std::vector<std::pair<int32_t, tree::NodeId>> events;
  std::vector<tree::NodeId> binding;
  std::vector<Cursor> cursors;
  std::vector<tree::LabelId> unary_labels;  // per-PredId, resolved per tree
  // Filled only for plans with Δ builtins:
  std::vector<int32_t> rank;       // preorder rank per node
  std::vector<int32_t> child_pos;  // 1-based position among its siblings
  std::vector<int32_t> kid_start;  // CSR offsets into `kids`, size n + 1
  std::vector<tree::NodeId> kids;  // children of each node, in order
  std::vector<std::vector<int32_t>> path_tables;  // per plan path table
  std::vector<int32_t> scratch;
  std::vector<tree::LabelId> step_labels;
};

/// The program-level compilation of the grounded evaluator. Immutable after
/// Compile and safe to share between concurrent evaluations (each with its
/// own GroundArena).
class GroundPlan {
 public:
  /// Compiles `program`. Fails with FailedPrecondition if
  /// !GroundableOverTree(program). The plan is self-contained (copies what it
  /// needs); `program` may be destroyed afterwards.
  static util::Result<GroundPlan> Compile(const Program& program);

  GroundPlan(GroundPlan&&) noexcept;
  GroundPlan& operator=(GroundPlan&&) noexcept;
  ~GroundPlan();

  /// True iff IncrementalReplay can run the plan: no node constant (the
  /// stripped world numbers nodes one above the finished tree). The Elog
  /// lowering never emits one, so every wrapper's plan streams; its Δ
  /// builtins wait for the end of input.
  bool streamable() const;

  struct Impl;

 private:
  explicit GroundPlan(std::unique_ptr<const Impl> impl);
  std::unique_ptr<const Impl> impl_;

  friend util::Result<EvalResult> EvaluateGrounded(const GroundPlan&,
                                                   const tree::Tree&,
                                                   GroundArena*, GroundStats*,
                                                   const util::EvalControl*);
  friend class IncrementalReplay;
};

/// Replays a compiled plan over one tree. `arena` may be nullptr (a local
/// arena is used); passing a per-worker arena amortizes the queue and
/// binding allocations across documents. `control` (nullable) is polled
/// cooperatively per swept node, per propagated atom, per enumerated node and
/// per node of the builtin pass — a deadline or cancellation unwinds with the
/// typed status instead of finishing the page.
util::Result<EvalResult> EvaluateGrounded(
    const GroundPlan& plan, const tree::Tree& t, GroundArena* arena = nullptr,
    GroundStats* stats = nullptr, const util::EvalControl* control = nullptr);

// --- incremental replay (streaming) -----------------------------------------

/// A replay of a streamable GroundPlan over the tree a TreeBuilder is growing
/// in document order, with the same LTUR worklist as EvaluateGrounded. The
/// caller reports each node's creation and close, in the order they happen,
/// then the end of input; all are queued in the replay's arena, and
/// Propagate processes them in that order between derived atoms. After the
/// end of input the derived sets equal EvaluateGrounded's on the finished
/// tree, and every atom derived before is among them. A plan without Δ
/// builtins reaches them at the last close (node 0's included); a rule that
/// reads a builtin derives nothing before the end of input.
///
/// The replay sees the tree as of the events it has processed, and only its
/// final facts: a node once its creation is processed, leaf(n) once n's
/// close is, lastsibling(n) once its parent's is; a first child, next
/// sibling or k-th child is absent until it is visible. With `hide_root` it
/// replays the stripped world: node 0 does not exist and node 1 — which
/// must then stay node 0's only child — is the root, so its sets are those
/// of the finished tree under node 1 with every id one higher.
///
/// Not thread-safe. `plan` and `builder` must outlive the replay.
class IncrementalReplay {
 public:
  IncrementalReplay(const GroundPlan& plan, const tree::TreeBuilder& builder,
                    bool hide_root);
  ~IncrementalReplay();
  IncrementalReplay(const IncrementalReplay&) = delete;
  IncrementalReplay& operator=(const IncrementalReplay&) = delete;

  /// Queues node n's creation: its label, firstsibling and root facts and
  /// its links to its parent and previous sibling are final.
  void NodeCreated(tree::NodeId n);
  /// Queues n's close: leaf(n) and lastsibling(last child of n) are final.
  void NodeClosed(tree::NodeId n);
  /// Queues the end of input, once, after the last close: the tree is
  /// finished, so the Δ builtin facts are final. Its processing fills the
  /// builtin tables and sweeps the rules that read them, whole.
  void EndOfInput();

  /// Runs to fixpoint over the queued events. `control` (nullable) is
  /// polled once per popped atom or event, and each pop is processed whole,
  /// so a deadline or cancellation returns its typed status with the state
  /// consistent: a later call resumes where this one stopped.
  util::Status Propagate(const util::EvalControl* control = nullptr);

  /// The members of unary IDB predicate `pred` derived so far, or nullptr if
  /// `pred` is not one.
  const NodeSet* Members(PredId pred) const;
  bool NullaryTrue(PredId pred) const;
  /// IDB atoms derived so far (unary, nullary and bridges).
  int64_t num_derived() const;

  /// Records every later derivation of unary IDB predicate `pred` in
  /// derived().
  void Watch(PredId pred);
  /// The watched atoms derived since the last ClearDerived, in pop order.
  const std::vector<std::pair<PredId, tree::NodeId>>& derived() const;
  void ClearDerived();

  /// Heap bytes of the replay's state: derived sets, queue, rule counters
  /// and the Δ builtin tables.
  int64_t ApproxBytes() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Facade: evaluates a datalog program on a tree per Theorem 4.2. Rules that
/// can never fire are dropped first (core::PruneUnderivableRules): those
/// reading an extensional predicate outside the tree schema and the Δ
/// builtins, or an intensional predicate left without rules. Such a
/// predicate stays empty, even when its name is a tree predicate's. Fails
/// with FailedPrecondition if what remains is not GroundableOverTree
/// (nextsibling_tc, a binary intensional predicate, lastchild next to an
/// intensional child). For a deadline or a reused arena, compile a
/// GroundPlan and call EvaluateGrounded.
util::Result<EvalResult> EvaluateOnTree(const Program& program,
                                        const tree::Tree& t);

}  // namespace mdatalog::core
