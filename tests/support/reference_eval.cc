#include "tests/support/reference_eval.h"

#include <algorithm>

#include "src/core/validate.h"
#include "src/util/check.h"

namespace mdatalog::core {

bool ReferenceResult::NullaryTrue(PredId p) const {
  auto it = idb_.find(p);
  return it != idb_.end() && it->second.nullary_true();
}

bool ReferenceResult::ContainsUnary(PredId p, int32_t a) const {
  auto it = idb_.find(p);
  return it != idb_.end() && it->second.ContainsUnary(a);
}

std::vector<int32_t> ReferenceResult::Unary(PredId p) const {
  auto it = idb_.find(p);
  if (it == idb_.end()) return {};
  std::vector<int32_t> out = it->second.unary_tuples();
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<int32_t, int32_t>> ReferenceResult::Binary(
    PredId p) const {
  auto it = idb_.find(p);
  if (it == idb_.end()) return {};
  std::vector<std::pair<int32_t, int32_t>> out = it->second.binary_tuples();
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int32_t> ReferenceResult::Query() const {
  MD_CHECK(query_pred_ >= 0);
  return Unary(query_pred_);
}

/// The seed FixpointEngine's naive loop: per-enumeration planning, map-backed
/// stores, string-keyed EDB resolution per join step.
class ReferenceEngine {
 public:
  ReferenceEngine(const Program& program, const EdbSource& edb)
      : program_(program),
        edb_(edb),
        domain_size_(edb.DomainSize()),
        intensional_(program.IntensionalMask()) {}

  util::Result<ReferenceResult> RunNaive() {
    MD_RETURN_NOT_OK(Setup());
    while (true) {
      std::vector<GroundAtomRef> additions;
      for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
        const Rule& rule = program_.rules()[ri];
        EnumerateRule(rule,
                      [&](const Rule& r, const std::vector<int32_t>& binding) {
                        GroundAtomRef head = Instantiate(r.head, binding);
                        if (InDomain(head) && !Holds(head)) {
                          additions.push_back(std::move(head));
                        }
                      });
      }
      int64_t added = 0;
      for (const GroundAtomRef& g : additions) {
        if (!Holds(g)) {
          Insert(g);
          ++added;
        }
      }
      ++result_.num_iterations_;
      if (added == 0) break;
      result_.num_derived_ += added;
    }
    return Finish();
  }

 private:
  struct GroundAtomRef {
    PredId pred;
    std::vector<int32_t> args;
  };

  util::Status Setup() {
    MD_RETURN_NOT_OK(CheckSafety(program_));
    for (PredId p = 0; p < program_.preds().size(); ++p) {
      if (intensional_[p] && program_.preds().Arity(p) > 2) {
        return util::Status::Unimplemented(
            "intensional predicates of arity > 2 are not supported");
      }
    }
    result_.query_pred_ = program_.query_pred();
    return util::Status::OK();
  }

  util::Result<ReferenceResult> Finish() {
    result_.idb_ = std::move(idb_);
    return std::move(result_);
  }

  GroundAtomRef Instantiate(const Atom& atom,
                            const std::vector<int32_t>& binding) const {
    GroundAtomRef g;
    g.pred = atom.pred;
    g.args.reserve(atom.args.size());
    for (const Term& t : atom.args) {
      g.args.push_back(t.is_var() ? binding[t.value] : t.value);
    }
    return g;
  }

  /// Heads with out-of-domain constants are not derivable — the same rule
  /// the production engine applies (eval.cc), so the oracle stays aligned
  /// and no store is ever indexed out of bounds.
  bool InDomain(const GroundAtomRef& g) const {
    for (int32_t a : g.args) {
      if (a < 0 || a >= domain_size_) return false;
    }
    return true;
  }

  bool Holds(const GroundAtomRef& g) const {
    auto it = idb_.find(g.pred);
    if (it == idb_.end()) return false;
    const Relation& rel = it->second;
    switch (rel.arity()) {
      case 0: return rel.nullary_true();
      case 1: return rel.ContainsUnary(g.args[0]);
      default: return rel.ContainsBinary(g.args[0], g.args[1]);
    }
  }

  void Insert(const GroundAtomRef& g) {
    auto [it, _] = idb_.try_emplace(
        g.pred, Relation(static_cast<int32_t>(g.args.size()),
                         std::max(domain_size_, 1)));
    Relation& rel = it->second;
    switch (rel.arity()) {
      case 0: rel.SetNullaryTrue(); break;
      case 1: rel.AddUnary(g.args[0]); break;
      default: rel.AddBinary(g.args[0], g.args[1]);
    }
  }

  const Relation* AtomRelation(const Atom& atom) const {
    if (intensional_[atom.pred]) {
      auto it = idb_.find(atom.pred);
      return it == idb_.end() ? nullptr : &it->second;
    }
    return edb_.Get(program_.preds().Name(atom.pred),
                    static_cast<int32_t>(atom.args.size()));
  }

  template <typename Emit>
  void EnumerateRule(const Rule& rule, Emit emit) {
    std::vector<int32_t> order = PlanOrder(rule);
    std::vector<int32_t> binding(std::max(rule.num_vars(), 1), -1);
    Join(rule, order, 0, binding, emit);
  }

  std::vector<int32_t> PlanOrder(const Rule& rule) const {
    int32_t n = static_cast<int32_t>(rule.body.size());
    std::vector<int32_t> order;
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

  template <typename Emit>
  void Join(const Rule& rule, const std::vector<int32_t>& order, size_t depth,
            std::vector<int32_t>& binding, Emit emit) {
    if (depth == order.size()) {
      emit(rule, binding);
      return;
    }
    int32_t pos = order[depth];
    const Atom& atom = rule.body[pos];
    const Relation* rel = AtomRelation(atom);
    if (rel == nullptr) return;  // empty extension

    auto value_of = [&](const Term& t) -> int32_t {
      return t.is_var() ? binding[t.value] : t.value;
    };

    switch (atom.args.size()) {
      case 0: {
        if (rel->nullary_true()) {
          Join(rule, order, depth + 1, binding, emit);
        }
        return;
      }
      case 1: {
        int32_t v = value_of(atom.args[0]);
        if (v >= 0) {
          if (rel->ContainsUnary(v)) {
            Join(rule, order, depth + 1, binding, emit);
          }
          return;
        }
        VarId var = atom.args[0].value;
        for (int32_t m : rel->unary_tuples()) {
          binding[var] = m;
          Join(rule, order, depth + 1, binding, emit);
        }
        binding[var] = -1;
        return;
      }
      default: {
        int32_t a = value_of(atom.args[0]);
        int32_t b = value_of(atom.args[1]);
        bool same_var = atom.args[0].is_var() && atom.args[1].is_var() &&
                        atom.args[0].value == atom.args[1].value;
        if (a >= 0 && b >= 0) {
          if (rel->ContainsBinary(a, b)) {
            Join(rule, order, depth + 1, binding, emit);
          }
        } else if (a >= 0) {
          VarId var = atom.args[1].value;
          for (int32_t m : rel->Forward(a)) {
            if (same_var && m != a) continue;
            binding[var] = m;
            Join(rule, order, depth + 1, binding, emit);
          }
          binding[var] = -1;
        } else if (b >= 0) {
          VarId var = atom.args[0].value;
          for (int32_t m : rel->Backward(b)) {
            if (same_var && m != b) continue;
            binding[var] = m;
            Join(rule, order, depth + 1, binding, emit);
          }
          binding[var] = -1;
        } else {
          VarId va = atom.args[0].value;
          VarId vb = atom.args[1].value;
          for (const auto& [x, y] : rel->binary_tuples()) {
            if (same_var) {
              if (x != y) continue;
              binding[va] = x;
              Join(rule, order, depth + 1, binding, emit);
              binding[va] = -1;
            } else {
              binding[va] = x;
              binding[vb] = y;
              Join(rule, order, depth + 1, binding, emit);
              binding[va] = -1;
              binding[vb] = -1;
            }
          }
        }
        return;
      }
    }
  }

  const Program& program_;
  const EdbSource& edb_;
  int32_t domain_size_;
  std::vector<bool> intensional_;
  std::map<PredId, Relation> idb_;
  ReferenceResult result_;
};

util::Result<ReferenceResult> EvaluateNaiveReference(const Program& program,
                                                     const EdbSource& edb) {
  ReferenceEngine engine(program, edb);
  return engine.RunNaive();
}

}  // namespace mdatalog::core
