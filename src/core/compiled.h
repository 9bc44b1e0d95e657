#pragma once

#include <cstdint>
#include <vector>

#include "src/core/ast.h"
#include "src/core/database.h"

/// \file compiled.h
/// Rule compilation for the naive fixpoint engine (eval.h).
///
/// The seed engine re-planned every rule on every enumeration and resolved
/// every body atom through the string-keyed EdbSource::Get — per join step.
/// CompiledProgram does all of that exactly once per evaluation:
///
///  * every EDB body atom is resolved to a concrete `const Relation*`
///    (TreeDatabase materializes it on first touch and we keep the pointer);
///  * every IDB body atom is resolved to its PredId, which indexes the
///    engine's dense relation stores;
///  * every rule's greedy join order is computed once and flattened into a
///    vector of typed PlanSteps. Because the order is static, the
///    bound/free status of every argument is known at compile time, so the
///    runtime executes a branch-light switch per step with no re-planning,
///    no "is this variable bound yet" probing, and no binding resets.
///
/// Plans whose EDB atom has an empty extension are marked dead: they can
/// never produce a binding (IDB atoms start empty but grow; EDB relations
/// are immutable during evaluation).

namespace mdatalog::core {

/// One argument of a plan step: either a constant or a binding-array slot.
struct StepArg {
  bool is_var = false;
  int32_t v = 0;  // VarId if is_var, else the constant value
};

/// One flattened join step. `pred` indexes the engine's IDB stores when
/// `idb` is set; otherwise `edb` points at the resolved extensional
/// relation.
struct PlanStep {
  enum class Kind : uint8_t {
    kNullaryCheck,       ///< relation must be nullary-true
    kUnaryCheck,         ///< arg bound: membership test
    kUnaryScan,          ///< arg free: iterate members, bind a0
    kBinaryCheck,        ///< both args bound: pair membership test
    kBinaryFnForward,    ///< a0 bound, EDB forward-functional: O(1) probe
    kBinaryFnBackward,   ///< a1 bound, EDB backward-functional: O(1) probe
    kBinaryScanForward,  ///< a0 bound: iterate successors, bind a1
    kBinaryScanBackward, ///< a1 bound: iterate predecessors, bind a0
    kBinaryScanAll,      ///< both free: iterate all pairs, bind a0 and a1
  };
  Kind kind;
  bool idb = false;
  /// Both args are one variable, both free (R(x,x) first occurrence): scan
  /// pairs, keep the diagonal, bind a0 only. Only set on kBinaryScanAll.
  bool same_var = false;
  PredId pred = -1;
  const Relation* edb = nullptr;
  StepArg a0, a1;
};

/// The head, pre-resolved: instantiating it is a couple of array reads.
struct CompiledHead {
  PredId pred = -1;
  int8_t arity = 0;
  StepArg a0, a1;
};

/// A flattened join plan for one rule.
struct RulePlan {
  bool dead = false;  ///< an EDB body atom has an empty extension
  std::vector<PlanStep> steps;
};

struct CompiledRule {
  CompiledHead head;
  int32_t num_vars = 0;
  RulePlan plan;
};

class CompiledProgram {
 public:
  /// Resolves and plans `program` against `edb`. References both; neither
  /// may be mutated or destroyed while the compiled program is in use.
  CompiledProgram(const Program& program, const EdbSource& edb);

  const std::vector<CompiledRule>& rules() const { return rules_; }
  const std::vector<bool>& intensional() const { return intensional_; }

 private:
  RulePlan CompilePlan(const Program& program, const EdbSource& edb,
                       const Rule& rule) const;

  std::vector<CompiledRule> rules_;
  std::vector<bool> intensional_;
};

}  // namespace mdatalog::core
