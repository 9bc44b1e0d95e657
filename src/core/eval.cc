#include "src/core/eval.h"

#include <algorithm>
#include <optional>

#include "src/core/compiled.h"
#include "src/core/validate.h"
#include "src/util/check.h"

namespace mdatalog::core {

bool EvalResult::NullaryTrue(PredId p) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->nullary_true;
}

bool EvalResult::ContainsUnary(PredId p, int32_t a) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->arity == 1 && f->unary.Contains(a);
}

bool EvalResult::ContainsBinary(PredId p, int32_t a, int32_t b) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->arity == 2 &&
         std::binary_search(f->pairs.begin(), f->pairs.end(),
                            std::make_pair(a, b));
}

std::vector<int32_t> EvalResult::Unary(PredId p) const {
  const PredFacts* f = FactsOf(p);
  if (f == nullptr || f->arity != 1) return {};
  return f->unary.ToVector();
}

const NodeSet* EvalResult::UnarySet(PredId p) const {
  const PredFacts* f = FactsOf(p);
  return f != nullptr && f->arity == 1 ? &f->unary : nullptr;
}

std::vector<std::pair<int32_t, int32_t>> EvalResult::Binary(PredId p) const {
  const PredFacts* f = FactsOf(p);
  if (f == nullptr || f->arity != 2) return {};
  return f->pairs;
}

std::vector<int32_t> EvalResult::Query() const {
  MD_CHECK(query_pred_ >= 0);
  return Unary(query_pred_);
}

/// The naive engine, running over a CompiledProgram with dense,
/// PredId-indexed stores:
///   arity 0: one flag per predicate;
///   arity 1: a NodeSet bitset per predicate;
///   arity 2: a Relation per intensional predicate (rare — the non-monadic
///            baselines of Section 3.2).
class FixpointEngine {
 public:
  FixpointEngine(const Program& program, const EdbSource& edb,
                 const EvalOptions& options)
      : program_(program),
        edb_(edb),
        options_(options),
        ticker_(options.control),
        domain_size_(edb.DomainSize()) {}

  util::Result<EvalResult> RunNaive() {
    MD_RETURN_NOT_OK(Setup());
    std::vector<int32_t> binding;
    while (true) {
      MD_RETURN_NOT_OK(ControlCheck());
      // One T_P application against the current set; collect additions and
      // apply them after the full pass (Definition 3.1 semantics).
      std::vector<FlatAtom> additions;
      std::vector<int32_t> by_rule;
      const auto& rules = compiled_->rules();
      for (size_t ri = 0; ri < rules.size(); ++ri) {
        const CompiledRule& cr = rules[ri];
        if (cr.plan.dead) continue;
        binding.assign(std::max(cr.num_vars, 1), -1);
        auto emit = [&](const std::vector<int32_t>& b) {
          FlatAtom head = InstantiateHead(cr.head, b);
          if (InDomain(head) && !Holds(head)) {
            additions.push_back(head);
            by_rule.push_back(static_cast<int32_t>(ri));
          }
        };
        Exec(cr.plan, 0, binding, emit);
      }
      if (aborted_) return abort_status_;
      // Deduplicate within the stage (several rules may derive one atom; the
      // first deriving rule is reported, matching the paper's annotations).
      EvalStage stage;
      int64_t added = 0;
      for (size_t i = 0; i < additions.size(); ++i) {
        if (!Holds(additions[i])) {
          Insert(additions[i]);
          ++added;
          if (options_.trace) {
            stage.new_atoms.push_back(ToGroundAtom(additions[i]));
            stage.derived_by_rule.push_back(by_rule[i]);
          }
        }
      }
      ++result_.num_iterations_;
      if (added == 0) break;
      result_.num_derived_ += added;
      if (options_.trace) result_.stages_.push_back(std::move(stage));
      if (options_.max_derived >= 0 &&
          result_.num_derived_ > options_.max_derived) {
        return util::Status::ResourceExhausted("max_derived exceeded");
      }
    }
    return Finish();
  }

 private:
  /// A derived atom in flat form — no per-atom heap allocation.
  struct FlatAtom {
    PredId pred;
    int32_t a;
    int32_t b;
    int8_t arity;
  };

  /// Deadline/cancellation poll between rounds (full check, cheap at round
  /// granularity). No-op without an EvalControl.
  util::Status ControlCheck() {
    if (aborted_) return abort_status_;
    return options_.control != nullptr ? options_.control->Check()
                                       : util::Status::OK();
  }

  /// Strided poll inside the join enumeration: one call per Exec step visit,
  /// so overshoot stays within one ticker stride even when the enumeration
  /// never emits (every candidate failing the last check is exactly the
  /// pathological shape a deadline must bound). Returns false once aborted;
  /// the recursion then unwinds and the engine returns abort_status_.
  bool TickStep() {
    if (aborted_) return false;
    if (!ticker_.active()) return true;
    util::Status s = ticker_.Tick();
    if (!s.ok()) {
      aborted_ = true;
      abort_status_ = std::move(s);
      return false;
    }
    return true;
  }

  util::Status Setup() {
    MD_RETURN_NOT_OK(CheckSafety(program_));
    const PredicateTable& preds = program_.preds();
    std::vector<bool> intensional = program_.IntensionalMask();
    for (PredId p = 0; p < preds.size(); ++p) {
      if (intensional[p] && preds.Arity(p) > 2) {
        return util::Status::Unimplemented(
            "intensional predicates of arity > 2 are not supported");
      }
    }
    result_.query_pred_ = program_.query_pred();
    compiled_.emplace(program_, edb_);

    const int32_t np = preds.size();
    nullary_.assign(np, 0);
    unary_.resize(np);
    binary_.resize(np);
    for (PredId p = 0; p < np; ++p) {
      if (!intensional[p]) continue;
      switch (preds.Arity(p)) {
        case 1:
          unary_[p].Reset(domain_size_);
          break;
        case 2:
          binary_[p].emplace(2, std::max(domain_size_, 1));
          break;
        default:
          break;
      }
    }
    return util::Status::OK();
  }

  util::Result<EvalResult> Finish() {
    const PredicateTable& preds = program_.preds();
    result_.facts_.resize(preds.size());
    for (PredId p = 0; p < preds.size(); ++p) {
      if (!compiled_->intensional()[p]) continue;
      EvalResult::PredFacts& f = result_.facts_[p];
      switch (preds.Arity(p)) {
        case 0:
          if (nullary_[p]) {
            f.arity = 0;
            f.nullary_true = true;
          }
          break;
        case 1:
          if (!unary_[p].empty()) {
            f.arity = 1;
            f.unary = std::move(unary_[p]);
          }
          break;
        default:
          if (binary_[p]->size() > 0) {
            f.arity = 2;
            f.pairs = binary_[p]->binary_tuples();
            std::sort(f.pairs.begin(), f.pairs.end());
          }
          break;
      }
    }
    return std::move(result_);
  }

  bool InDomain(const FlatAtom& g) const {
    if (g.arity >= 1 && (g.a < 0 || g.a >= domain_size_)) return false;
    if (g.arity == 2 && (g.b < 0 || g.b >= domain_size_)) return false;
    return true;
  }

  bool Holds(const FlatAtom& g) const {
    switch (g.arity) {
      case 0: return nullary_[g.pred] != 0;
      case 1: return unary_[g.pred].Contains(g.a);
      default: return binary_[g.pred]->ContainsBinary(g.a, g.b);
    }
  }

  void Insert(const FlatAtom& g) {
    switch (g.arity) {
      case 0: nullary_[g.pred] = 1; break;
      case 1: unary_[g.pred].Insert(g.a); break;
      default: binary_[g.pred]->AddBinary(g.a, g.b);
    }
  }

  static FlatAtom InstantiateHead(const CompiledHead& h,
                                  const std::vector<int32_t>& binding) {
    FlatAtom g{h.pred, -1, -1, h.arity};
    if (h.arity >= 1) g.a = h.a0.is_var ? binding[h.a0.v] : h.a0.v;
    if (h.arity == 2) g.b = h.a1.is_var ? binding[h.a1.v] : h.a1.v;
    return g;
  }

  static GroundAtom ToGroundAtom(const FlatAtom& g) {
    GroundAtom out;
    out.pred = g.pred;
    if (g.arity >= 1) out.args.push_back(g.a);
    if (g.arity == 2) out.args.push_back(g.b);
    return out;
  }

  const Relation* BinaryRel(const PlanStep& s) const {
    if (!s.idb) return s.edb;
    return binary_[s.pred].has_value() ? &*binary_[s.pred] : nullptr;
  }

  static int32_t Val(const StepArg& a, const std::vector<int32_t>& binding) {
    return a.is_var ? binding[a.v] : a.v;
  }

  /// Executes the plan from `depth` on. Bound/free argument status is baked
  /// into the step kinds, so there is no runtime planning, no binding resets
  /// and no string lookups.
  template <typename Emit>
  void Exec(const RulePlan& plan, size_t depth, std::vector<int32_t>& binding,
            const Emit& emit) {
    if (!TickStep()) return;  // deadline/cancel fired: unwind the enumeration
    if (depth == plan.steps.size()) {
      emit(binding);
      return;
    }
    const PlanStep& s = plan.steps[depth];
    switch (s.kind) {
      case PlanStep::Kind::kNullaryCheck: {
        const bool holds =
            s.idb ? nullary_[s.pred] != 0 : s.edb->nullary_true();
        if (holds) Exec(plan, depth + 1, binding, emit);
        return;
      }
      case PlanStep::Kind::kUnaryCheck: {
        const int32_t v = Val(s.a0, binding);
        const bool holds =
            s.idb ? unary_[s.pred].Contains(v) : s.edb->ContainsUnary(v);
        if (holds) Exec(plan, depth + 1, binding, emit);
        return;
      }
      case PlanStep::Kind::kUnaryScan: {
        const int32_t var = s.a0.v;
        if (s.idb) {
          unary_[s.pred].ForEach([&](int32_t m) {
            binding[var] = m;
            Exec(plan, depth + 1, binding, emit);
          });
        } else {
          for (int32_t m : s.edb->unary_tuples()) {
            binding[var] = m;
            Exec(plan, depth + 1, binding, emit);
          }
        }
        return;
      }
      case PlanStep::Kind::kBinaryCheck: {
        const Relation* rel = BinaryRel(s);
        if (rel != nullptr &&
            rel->ContainsBinary(Val(s.a0, binding), Val(s.a1, binding))) {
          Exec(plan, depth + 1, binding, emit);
        }
        return;
      }
      case PlanStep::Kind::kBinaryFnForward: {
        const int32_t m = s.edb->ForwardOne(Val(s.a0, binding));
        if (m >= 0) {
          binding[s.a1.v] = m;
          Exec(plan, depth + 1, binding, emit);
        }
        return;
      }
      case PlanStep::Kind::kBinaryFnBackward: {
        const int32_t m = s.edb->BackwardOne(Val(s.a1, binding));
        if (m >= 0) {
          binding[s.a0.v] = m;
          Exec(plan, depth + 1, binding, emit);
        }
        return;
      }
      case PlanStep::Kind::kBinaryScanForward: {
        const Relation* rel = BinaryRel(s);
        if (rel == nullptr) return;
        const int32_t var = s.a1.v;
        for (int32_t m : rel->Forward(Val(s.a0, binding))) {
          binding[var] = m;
          Exec(plan, depth + 1, binding, emit);
        }
        return;
      }
      case PlanStep::Kind::kBinaryScanBackward: {
        const Relation* rel = BinaryRel(s);
        if (rel == nullptr) return;
        const int32_t var = s.a0.v;
        for (int32_t m : rel->Backward(Val(s.a1, binding))) {
          binding[var] = m;
          Exec(plan, depth + 1, binding, emit);
        }
        return;
      }
      case PlanStep::Kind::kBinaryScanAll: {
        const Relation* rel = BinaryRel(s);
        if (rel == nullptr) return;
        if (s.same_var) {
          // Identical variables in one atom: R(x, x).
          for (const auto& [x, y] : rel->binary_tuples()) {
            if (x != y) continue;
            binding[s.a0.v] = x;
            Exec(plan, depth + 1, binding, emit);
          }
        } else {
          for (const auto& [x, y] : rel->binary_tuples()) {
            binding[s.a0.v] = x;
            binding[s.a1.v] = y;
            Exec(plan, depth + 1, binding, emit);
          }
        }
        return;
      }
    }
  }

  const Program& program_;
  const EdbSource& edb_;
  const EvalOptions& options_;
  util::EvalTicker ticker_;
  bool aborted_ = false;
  util::Status abort_status_ = util::Status::OK();
  int32_t domain_size_;
  std::optional<CompiledProgram> compiled_;

  // Dense PredId-indexed stores.
  std::vector<uint8_t> nullary_;
  std::vector<NodeSet> unary_;
  std::vector<std::optional<Relation>> binary_;

  EvalResult result_;
};

util::Result<EvalResult> EvaluateNaive(const Program& program,
                                       const EdbSource& edb,
                                       const EvalOptions& options) {
  FixpointEngine engine(program, edb, options);
  return engine.RunNaive();
}

}  // namespace mdatalog::core
