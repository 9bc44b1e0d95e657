#include "src/tmnf/normal_form.h"

namespace mdatalog::tmnf {

util::Result<TmnfRule> ReadTmnfRule(const core::Program& program,
                                    const std::vector<bool>& intensional,
                                    const core::Rule& rule, bool ranked) {
  auto fail = [](const std::string& why) {
    return util::Status::InvalidArgument(why);
  };
  if (rule.head.args.size() != 1 || !rule.head.args[0].is_var()) {
    return fail("head must be p(x)");
  }
  const core::VarId x = rule.head.args[0].value;
  std::vector<const core::Atom*> unary, binary;
  for (const core::Atom& a : rule.body) {
    for (const core::Term& t : a.args) {
      if (!t.is_var()) return fail("body atoms must be over variables");
    }
    if (a.args.size() == 1) {
      unary.push_back(&a);
    } else if (a.args.size() == 2) {
      binary.push_back(&a);
    } else {
      return fail("body atom of arity " + std::to_string(a.args.size()));
    }
  }
  auto operand = [&](const core::Atom* a) {
    TmnfOperand op{a->pred, std::nullopt};
    if (!intensional[a->pred]) {
      op.tree = core::ClassifyTreePredicate(program.preds().Name(a->pred), 1);
    }
    return op;
  };

  TmnfRule out;
  if (binary.empty() && (unary.size() == 1 || unary.size() == 2)) {
    // Forms (1) and (3).
    for (const core::Atom* a : unary) {
      if (a->args[0].value != x) {
        return fail("unary atom off the head variable");
      }
    }
    out.form = unary.size() == 1 ? TmnfRule::Form::kCopy : TmnfRule::Form::kAnd;
    out.op0 = operand(unary[0]);
    if (unary.size() == 2) out.op1 = operand(unary[1]);
    return out;
  }
  if (binary.size() != 1 || unary.size() != 1) {
    return fail("body must be p0(x), p0(x) p1(x) or p0(x0) B(x0, x)");
  }
  // Form (2).
  const core::Atom& b = *binary[0];
  const std::optional<core::TreePred> rel =
      intensional[b.pred]
          ? std::nullopt
          : core::ClassifyTreePredicate(program.preds().Name(b.pred), 2);
  if (!rel.has_value() || !core::InTmnfSchema(*rel, ranked)) {
    return fail("form (2) binary predicate not in the schema");
  }
  const core::VarId b0 = b.args[0].value, b1 = b.args[1].value;
  if (b1 == x && b0 != x) {
    out.inverse = false;  // R(x0, x)
  } else if (b0 == x && b1 != x) {
    out.inverse = true;  // R(x, x0)
  } else {
    return fail("form (2) binary atom must link x and a variable x0 != x");
  }
  if (unary[0]->args[0].value != (out.inverse ? b1 : b0)) {
    return fail("form (2) unary atom must be on x0");
  }
  out.form = TmnfRule::Form::kStep;
  out.op0 = operand(unary[0]);
  out.rel = *rel;
  return out;
}

util::Status CheckTmnf(const core::Program& program,
                       const TmnfCheckOptions& options) {
  const std::vector<bool> intensional = program.IntensionalMask();
  // Operands admissible in TMNF bodies: intensional or in the schema.
  auto admissible = [&](const TmnfOperand& op) {
    if (intensional[op.pred]) return true;
    return op.tree.has_value() && core::InTmnfSchema(*op.tree, options.ranked);
  };
  for (const core::Rule& r : program.rules()) {
    util::Result<TmnfRule> read =
        ReadTmnfRule(program, intensional, r, options.ranked);
    std::string why;
    if (!read.ok()) {
      why = read.status().message();
    } else if (!admissible(read->op0) ||
               (read->form == TmnfRule::Form::kAnd && !admissible(read->op1))) {
      why = "unary predicate neither intensional nor in the schema";
    }
    if (!why.empty()) {
      return util::Status::InvalidArgument("not TMNF (" + why +
                                           "): " + core::ToString(program, r));
    }
  }
  return util::Status::OK();
}

bool IsTmnf(const core::Program& program, const TmnfCheckOptions& options) {
  return CheckTmnf(program, options).ok();
}

}  // namespace mdatalog::tmnf
