#include "src/tmnf/normal_form.h"

#include "src/core/tree_schema.h"

namespace mdatalog::tmnf {

namespace {

util::Status Offend(const core::Program& p, const core::Rule& r,
                    const std::string& why) {
  return util::Status::InvalidArgument("not TMNF (" + why +
                                       "): " + core::ToString(p, r));
}

}  // namespace

util::Status CheckTmnf(const core::Program& program,
                       const TmnfCheckOptions& options) {
  std::vector<bool> intensional = program.IntensionalMask();
  auto in_schema = [&](const core::Atom& a) {
    if (intensional[a.pred]) return false;
    const std::optional<core::TreePred> tp = core::ClassifyTreePredicate(
        program.preds().Name(a.pred), static_cast<int32_t>(a.args.size()));
    return tp.has_value() && core::InTmnfSchema(*tp, options.ranked);
  };
  // Unary predicates admissible in TMNF bodies: intensional or in the
  // schema.
  auto unary_ok = [&](const core::Atom& a) {
    if (a.args.size() != 1 || !a.args[0].is_var()) return false;
    return intensional[a.pred] || in_schema(a);
  };

  for (const core::Rule& r : program.rules()) {
    // Head: p(x) with p intensional unary.
    if (r.head.args.size() != 1 || !r.head.args[0].is_var()) {
      return Offend(program, r, "head must be p(x)");
    }
    core::VarId x = r.head.args[0].value;

    if (r.body.size() == 1) {
      // Form (1): p(x) ← p0(x).
      const core::Atom& a = r.body[0];
      if (!unary_ok(a) || a.args[0].value != x) {
        return Offend(program, r, "single-atom body must be p0(x)");
      }
      continue;
    }
    if (r.body.size() != 2) {
      return Offend(program, r, "body must have 1 or 2 atoms");
    }
    const core::Atom& a = r.body[0];
    const core::Atom& b = r.body[1];

    // Form (3): both unary on the head variable.
    if (a.args.size() == 1 && b.args.size() == 1) {
      if (unary_ok(a) && unary_ok(b) && a.args[0].value == x &&
          b.args[0].value == x) {
        continue;
      }
      return Offend(program, r, "form (3) needs p0(x), p1(x)");
    }

    // Form (2): one unary p0(x0), one binary B linking x0 and x.
    const core::Atom* unary = a.args.size() == 1 ? &a : &b;
    const core::Atom* binary = a.args.size() == 2 ? &a : &b;
    if (unary->args.size() != 1 || binary->args.size() != 2) {
      return Offend(program, r, "form (2) needs one unary and one binary atom");
    }
    if (!unary_ok(*unary)) {
      return Offend(program, r, "form (2) unary predicate not admissible");
    }
    if (!in_schema(*binary)) {
      return Offend(program, r, "form (2) binary predicate not in the schema");
    }
    if (!binary->args[0].is_var() || !binary->args[1].is_var()) {
      return Offend(program, r, "form (2) binary atom must be over variables");
    }
    core::VarId x0 = unary->args[0].value;
    core::VarId b1 = binary->args[0].value, b2 = binary->args[1].value;
    if (x0 == x) return Offend(program, r, "form (2) variables must differ");
    bool forward = (b1 == x0 && b2 == x);   // B = R
    bool backward = (b1 == x && b2 == x0);  // B = R^-1
    if (!forward && !backward) {
      return Offend(program, r, "form (2) binary atom must link x0 and x");
    }
  }
  return util::Status::OK();
}

bool IsTmnf(const core::Program& program, const TmnfCheckOptions& options) {
  return CheckTmnf(program, options).ok();
}

}  // namespace mdatalog::tmnf
