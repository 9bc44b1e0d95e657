#include "src/core/ast.h"

namespace mdatalog::core {

util::Result<PredId> PredicateTable::Intern(std::string_view name,
                                            int32_t arity) {
  PredId existing = names_.Find(name);
  if (existing >= 0) {
    if (arities_[existing] != arity) {
      return util::Status::InvalidArgument(
          "predicate '" + std::string(name) + "' used with arity " +
          std::to_string(arity) + " but declared with arity " +
          std::to_string(arities_[existing]));
    }
    return existing;
  }
  PredId id = names_.Intern(name);
  MD_CHECK(static_cast<size_t>(id) == arities_.size());
  arities_.push_back(arity);
  return id;
}

PredId PredicateTable::MustIntern(std::string_view name, int32_t arity) {
  auto res = Intern(name, arity);
  MD_CHECK(res.ok());
  return *res;
}

std::vector<bool> Program::IntensionalMask() const {
  std::vector<bool> mask(preds_.size(), false);
  for (const Rule& r : rules_) mask[r.head.pred] = true;
  return mask;
}

int64_t Program::SizeInAtoms() const {
  int64_t n = 0;
  for (const Rule& r : rules_) n += 1 + static_cast<int64_t>(r.body.size());
  return n;
}

Atom MakeAtom(PredId pred, std::vector<Term> args) {
  Atom a;
  a.pred = pred;
  a.args = std::move(args);
  return a;
}

namespace {

int32_t MaxVarIndex(const Rule& r) {
  int32_t max_var = -1;
  auto scan = [&max_var](const Atom& a) {
    for (const Term& t : a.args) {
      if (t.is_var()) max_var = std::max(max_var, t.value);
    }
  };
  scan(r.head);
  for (const Atom& a : r.body) scan(a);
  return max_var;
}

}  // namespace

Rule MakeRule(Atom head, std::vector<Atom> body) {
  Rule r;
  r.head = std::move(head);
  r.body = std::move(body);
  int32_t max_var = MaxVarIndex(r);
  for (int32_t i = 0; i <= max_var; ++i) {
    r.var_names.push_back(std::string("v").append(std::to_string(i)));
  }
  return r;
}

Rule MakeRule(Atom head, std::vector<Atom> body,
              std::vector<std::string> var_names) {
  Rule r;
  r.head = std::move(head);
  r.body = std::move(body);
  r.var_names = std::move(var_names);
  MD_CHECK(MaxVarIndex(r) < r.num_vars());
  return r;
}

std::vector<std::vector<int32_t>> RulesByHeadPred(const Program& program) {
  std::vector<std::vector<int32_t>> by_head(program.preds().size());
  const auto& rules = program.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    by_head[rules[i].head.pred].push_back(static_cast<int32_t>(i));
  }
  return by_head;
}

std::vector<bool> ReachablePreds(const Program& program,
                                 const std::vector<PredId>& roots) {
  std::vector<bool> reachable(program.preds().size(), false);
  std::vector<PredId> stack;
  for (PredId p : roots) {
    if (p >= 0 && static_cast<size_t>(p) < reachable.size() && !reachable[p]) {
      reachable[p] = true;
      stack.push_back(p);
    }
  }
  auto by_head = RulesByHeadPred(program);
  while (!stack.empty()) {
    PredId p = stack.back();
    stack.pop_back();
    for (int32_t ri : by_head[p]) {
      for (const Atom& a : program.rules()[ri].body) {
        if (!reachable[a.pred]) {
          reachable[a.pred] = true;
          stack.push_back(a.pred);
        }
      }
    }
  }
  return reachable;
}

std::vector<bool> DerivablePreds(const Program& program) {
  std::vector<bool> intensional = program.IntensionalMask();
  std::vector<bool> derivable(program.preds().size(), false);
  for (size_t p = 0; p < derivable.size(); ++p) {
    derivable[p] = !intensional[p];  // EDB: may hold facts
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& r : program.rules()) {
      if (derivable[r.head.pred]) continue;
      bool body_ok = true;
      for (const Atom& a : r.body) {
        if (!derivable[a.pred]) {
          body_ok = false;
          break;
        }
      }
      if (body_ok) {
        derivable[r.head.pred] = true;
        changed = true;
      }
    }
  }
  return derivable;
}

std::string ToString(const Program& program, const Rule& rule,
                     const Atom& atom) {
  std::string out = program.preds().Name(atom.pred);
  if (atom.args.empty()) return out;
  out += '(';
  bool first = true;
  for (const Term& t : atom.args) {
    if (!first) out += ", ";
    first = false;
    if (t.is_var()) {
      if (t.value < rule.num_vars()) {
        out += rule.var_names[t.value];
      } else {
        out += 'v';
        out += std::to_string(t.value);
      }
    } else {
      out += std::to_string(t.value);
    }
  }
  out += ')';
  return out;
}

std::string ToString(const Program& program, const Rule& rule) {
  std::string out = ToString(program, rule, rule.head);
  if (!rule.body.empty()) {
    out += " :- ";
    bool first = true;
    for (const Atom& a : rule.body) {
      if (!first) out += ", ";
      first = false;
      out += ToString(program, rule, a);
    }
  }
  out += '.';
  return out;
}

std::string ToString(const Program& program) {
  std::string out;
  for (const Rule& r : program.rules()) {
    out += ToString(program, r);
    out += '\n';
  }
  return out;
}

}  // namespace mdatalog::core
