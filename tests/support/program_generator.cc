#include "tests/support/program_generator.h"

#include "src/core/tree_schema.h"

namespace mdatalog::core {

Program RandomMonadicProgram(util::Rng& rng,
                             const ProgramGenOptions& options) {
  Program p;
  PredicateTable& preds = p.preds();

  std::vector<PredId> idb;
  for (int32_t i = 0; i < options.num_idb_preds; ++i) {
    idb.push_back(preds.MustIntern("q" + std::to_string(i), 1));
  }
  std::vector<PredId> unary_edb = {
      preds.MustIntern("root", 1), preds.MustIntern("leaf", 1),
      preds.MustIntern("lastsibling", 1), preds.MustIntern("firstsibling", 1)};
  for (const std::string& l : options.labels) {
    unary_edb.push_back(preds.MustIntern(LabelPredName(l), 1));
  }
  std::vector<PredId> binary_edb = {preds.MustIntern("firstchild", 2),
                                    preds.MustIntern("nextsibling", 2)};
  if (options.allow_extended) {
    binary_edb.push_back(preds.MustIntern("child", 2));
    binary_edb.push_back(preds.MustIntern("lastchild", 2));
  }
  std::vector<PredId> nullary_idb;
  if (options.allow_nonlocal) {
    nullary_idb = {preds.MustIntern("z0", 0), preds.MustIntern("z1", 0)};
  }
  auto pick = [&rng](const std::vector<PredId>& v) {
    return v[rng.Below(v.size())];
  };
  // Constants range past small trees, so some are out of the domain.
  auto random_const = [&rng] {
    return Term::Const(static_cast<int32_t>(rng.Below(12)));
  };

  for (int32_t r = 0; r < options.num_rules; ++r) {
    // Head variable is v0; grow a variable pool connected through binary
    // atoms; guarantee v0 occurs in the body.
    std::vector<Atom> body;
    int32_t num_vars = 1;
    // Seed: an atom over v0.
    if (rng.Chance(1, 2)) {
      body.push_back(
          MakeAtom(unary_edb[rng.Below(unary_edb.size())], {Term::Var(0)}));
    } else {
      body.push_back(
          MakeAtom(idb[rng.Below(idb.size())], {Term::Var(0)}));
    }
    int32_t extra = static_cast<int32_t>(rng.Below(options.max_body_atoms));
    for (int32_t i = 0; i < extra; ++i) {
      if (options.allow_nonlocal && rng.Chance(1, 3)) {
        // A nullary IDB atom; a unary atom on a fresh variable (a bridge
        // component) or on a constant; or a binary atom with a constant.
        const uint64_t kind = rng.Below(4);
        const PredId unary = rng.Chance(1, 2) ? pick(idb) : pick(unary_edb);
        if (kind == 0) {
          body.push_back(MakeAtom(pick(nullary_idb), {}));
        } else if (kind == 1) {
          body.push_back(MakeAtom(unary, {Term::Var(num_vars++)}));
        } else if (kind == 2) {
          body.push_back(MakeAtom(unary, {random_const()}));
        } else {
          const Term var = Term::Var(static_cast<VarId>(rng.Below(num_vars)));
          body.push_back(MakeAtom(pick(binary_edb), {var, random_const()}));
        }
        continue;
      }
      uint64_t kind = rng.Below(10);
      if (kind < 3) {  // unary EDB on an existing variable
        body.push_back(MakeAtom(
            unary_edb[rng.Below(unary_edb.size())],
            {Term::Var(static_cast<VarId>(rng.Below(num_vars)))}));
      } else if (kind < 6) {  // IDB atom on an existing variable
        body.push_back(
            MakeAtom(idb[rng.Below(idb.size())],
                     {Term::Var(static_cast<VarId>(rng.Below(num_vars)))}));
      } else {  // binary EDB: existing var -> fresh or existing var
        VarId from = static_cast<VarId>(rng.Below(num_vars));
        VarId to;
        if (rng.Chance(3, 4)) {
          to = num_vars++;
        } else {
          to = static_cast<VarId>(rng.Below(num_vars));
        }
        PredId rel = binary_edb[rng.Below(binary_edb.size())];
        if (rng.Chance(1, 2)) {
          body.push_back(MakeAtom(rel, {Term::Var(from), Term::Var(to)}));
        } else {
          body.push_back(MakeAtom(rel, {Term::Var(to), Term::Var(from)}));
        }
      }
    }
    Atom head = MakeAtom(idb[rng.Below(idb.size())], {Term::Var(0)});
    const uint64_t head_kind = options.allow_nonlocal ? rng.Below(4) : 2;
    if (head_kind == 0) head = MakeAtom(pick(nullary_idb), {});
    if (head_kind == 1) head.args[0] = random_const();
    p.AddRule(MakeRule(std::move(head), std::move(body)));
  }
  // Every q_i must be intensional, or engines would treat it as an (empty)
  // extensional predicate and the grounded engine would reject the program.
  std::vector<bool> headed(preds.size(), false);
  for (const Rule& r : p.rules()) headed[r.head.pred] = true;
  PredId root = preds.MustIntern("root", 1);
  for (PredId z : nullary_idb) {
    if (headed[z]) continue;
    p.AddRule(
        MakeRule(MakeAtom(z, {}), {MakeAtom(root, {Term::Var(0)})}, {"x"}));
  }
  for (PredId q : idb) {
    if (!headed[q]) {
      p.AddRule(MakeRule(MakeAtom(q, {Term::Var(0)}),
                         {MakeAtom(root, {Term::Var(0)})}, {"x"}));
    }
  }
  p.set_query_pred(idb[0]);
  return p;
}

}  // namespace mdatalog::core
