#include "src/core/compiled.h"

#include <cstdint>

#include "src/util/check.h"

namespace mdatalog::core {

namespace {

/// The greedy join order: repeatedly pick the atom with the most bound
/// variables, preferring fully bound atoms, then smaller arity.
std::vector<int32_t> PlanJoinOrder(const Rule& rule) {
  int32_t n = static_cast<int32_t>(rule.body.size());
  std::vector<int32_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::vector<bool> bound(std::max(rule.num_vars(), 1), false);
  auto bind_atom_vars = [&](const Atom& a) {
    for (const Term& t : a.args) {
      if (t.is_var()) bound[t.value] = true;
    }
  };
  while (static_cast<int32_t>(order.size()) < n) {
    int32_t best = -1;
    int64_t best_score = INT64_MIN;
    for (int32_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const Atom& a = rule.body[i];
      int32_t bound_vars = 0, total_vars = 0;
      for (const Term& t : a.args) {
        if (t.is_var()) {
          ++total_vars;
          if (bound[t.value]) ++bound_vars;
        }
      }
      // Prefer fully bound atoms, then atoms with more bound vars, then
      // smaller arity.
      int32_t score = bound_vars * 100 - total_vars * 10 -
                      static_cast<int32_t>(a.args.size());
      if (bound_vars == total_vars) score += 10000;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    order.push_back(best);
    used[best] = true;
    bind_atom_vars(rule.body[best]);
  }
  return order;
}

}  // namespace

CompiledProgram::CompiledProgram(const Program& program, const EdbSource& edb)
    : intensional_(program.IntensionalMask()) {
  rules_.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    CompiledRule cr;
    cr.num_vars = rule.num_vars();
    cr.head.pred = rule.head.pred;
    cr.head.arity = static_cast<int8_t>(rule.head.args.size());
    if (cr.head.arity >= 1) {
      cr.head.a0 = {rule.head.args[0].is_var(), rule.head.args[0].value};
    }
    if (cr.head.arity >= 2) {
      cr.head.a1 = {rule.head.args[1].is_var(), rule.head.args[1].value};
    }
    cr.plan = CompilePlan(program, edb, rule);
    rules_.push_back(std::move(cr));
  }
}

RulePlan CompiledProgram::CompilePlan(const Program& program,
                                      const EdbSource& edb,
                                      const Rule& rule) const {
  RulePlan plan;
  std::vector<int32_t> order = PlanJoinOrder(rule);
  std::vector<bool> bound(std::max(rule.num_vars(), 1), false);
  plan.steps.reserve(order.size());

  for (int32_t pos : order) {
    const Atom& atom = rule.body[pos];
    PlanStep step;
    step.pred = atom.pred;
    step.idb = intensional_[atom.pred];
    if (!step.idb) {
      step.edb = edb.Get(program.preds().Name(atom.pred),
                         static_cast<int32_t>(atom.args.size()));
      if (step.edb == nullptr || step.edb->size() == 0) {
        // Empty extensional relation: the plan can never produce a binding.
        plan.dead = true;
        plan.steps.clear();
        return plan;
      }
    }
    auto arg_of = [&](const Term& t) -> StepArg {
      return {t.is_var(), t.value};
    };
    auto is_bound = [&](const Term& t) {
      return !t.is_var() || bound[t.value];
    };
    switch (atom.args.size()) {
      case 0:
        step.kind = PlanStep::Kind::kNullaryCheck;
        break;
      case 1: {
        step.a0 = arg_of(atom.args[0]);
        step.kind = is_bound(atom.args[0]) ? PlanStep::Kind::kUnaryCheck
                                           : PlanStep::Kind::kUnaryScan;
        break;
      }
      default: {
        step.a0 = arg_of(atom.args[0]);
        step.a1 = arg_of(atom.args[1]);
        bool b0 = is_bound(atom.args[0]);
        bool b1 = is_bound(atom.args[1]);
        // R(x, x) with x free binds both positions at once, so b0 == b1
        // whenever the args are one variable.
        if (b0 && b1) {
          step.kind = PlanStep::Kind::kBinaryCheck;
        } else if (b0) {
          step.kind = (!step.idb && step.edb->forward_functional())
                          ? PlanStep::Kind::kBinaryFnForward
                          : PlanStep::Kind::kBinaryScanForward;
        } else if (b1) {
          step.kind = (!step.idb && step.edb->backward_functional())
                          ? PlanStep::Kind::kBinaryFnBackward
                          : PlanStep::Kind::kBinaryScanBackward;
        } else {
          step.kind = PlanStep::Kind::kBinaryScanAll;
          step.same_var = atom.args[0].is_var() && atom.args[1].is_var() &&
                          atom.args[0].value == atom.args[1].value;
        }
        break;
      }
    }
    for (const Term& t : atom.args) {
      if (t.is_var()) bound[t.value] = true;
    }
    plan.steps.push_back(step);
  }
  return plan;
}

}  // namespace mdatalog::core
