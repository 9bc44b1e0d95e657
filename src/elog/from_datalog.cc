#include "src/elog/from_datalog.h"

#include <set>

#include "src/core/tree_schema.h"
#include "src/tmnf/normal_form.h"
#include "src/tmnf/pipeline.h"
#include "src/util/check.h"

namespace mdatalog::elog {

namespace {

using core::Rule;

class ElogTranslator {
 public:
  explicit ElogTranslator(const core::Program& tmnf)
      : tmnf_(tmnf), intensional_(tmnf.IntensionalMask()) {}

  util::Result<ElogProgram> Run() {
    EmitDomPattern();
    for (const Rule& rule : tmnf_.rules()) {
      MD_RETURN_NOT_OK(TranslateRule(rule));
    }
    EmitHelperPatterns();
    MD_RETURN_NOT_OK(ValidateElog(out_));
    return std::move(out_);
  }

 private:
  static constexpr const char* kDom = "__elogdom";

  static std::string LabelPattern(const std::string& label) {
    return "__lbl_" + label;
  }
  static std::string RootPattern() { return "__isroot"; }

  /// head(X) ← parent(parent_var), subelem(parent_var, X), conditions —
  /// every rule the translation emits has head variable X.
  static ElogRule MakeRule(std::string head, std::string parent,
                           const char* parent_var, ElogPath subelem = {},
                           std::vector<ElogCondition> conditions = {}) {
    return ElogRule{std::move(head), "X", std::move(parent), parent_var,
                    std::move(subelem), std::move(conditions)};
  }

  void EmitDomPattern() {
    out_.AddRule(MakeRule(kDom, "root", "X"));  // dom(X) ← root(X).
    // dom(X) ← dom(X0), subelem__(X0, X).
    out_.AddRule(MakeRule(kDom, kDom, "X0", ElogPath{{"_"}}));
  }

  void EmitHelperPatterns() {
    for (const std::string& label : used_labels_) {
      // __lbl_a(X) ← dom(X0), subelem_a(X0, X). [An a-labeled *root* is not
      // reachable by subelem — the Theorem 6.5 construction's known corner;
      // see from_datalog.h.]
      out_.AddRule(MakeRule(LabelPattern(label), kDom, "X0",
                            ElogPath{{label}}));
    }
    if (used_root_pattern_) {
      out_.AddRule(MakeRule(RootPattern(), "root", "X"));
    }
  }

  /// kind(var1[, var2]); a caller sets a path or a pattern name itself.
  static ElogCondition Condition(ElogCondition::Kind kind, std::string var1,
                                 std::string var2 = {}) {
    ElogCondition c;
    c.kind = kind;
    c.var1 = std::move(var1);
    c.var2 = std::move(var2);
    return c;
  }

  static ElogCondition PatternRef(const std::string& pattern,
                                  const std::string& var) {
    ElogCondition c = Condition(ElogCondition::Kind::kPatternRef, var);
    c.pattern = pattern;
    return c;
  }

  /// A specialization rule with dom parent.
  void DomRule(const std::string& head, std::vector<ElogCondition> conds) {
    out_.AddRule(MakeRule(head, kDom, "X", {}, std::move(conds)));
  }

  static bool IsRoot(const tmnf::TmnfOperand& op) {
    return op.tree.has_value() && op.tree->kind == core::TreePred::Kind::kRoot;
  }

  /// Condition (or pattern reference) testing `op` on variable `var`.
  ElogCondition UnaryConditionOn(const tmnf::TmnfOperand& op,
                                 const std::string& var) {
    const std::string& name = tmnf_.preds().Name(op.pred);
    if (!op.tree.has_value()) return PatternRef(name, var);
    switch (op.tree->kind) {
      case core::TreePred::Kind::kLabel: {
        std::string label = core::LabelFromPredName(name);
        used_labels_.insert(label);
        return PatternRef(LabelPattern(label), var);
      }
      case core::TreePred::Kind::kRoot:
        used_root_pattern_ = true;
        return PatternRef(RootPattern(), var);
      case core::TreePred::Kind::kLeaf:
        return Condition(ElogCondition::Kind::kLeaf, var);
      case core::TreePred::Kind::kLastSibling:
        return Condition(ElogCondition::Kind::kLastSibling, var);
      default:
        break;  // CheckTmnf admits no other unary predicate
    }
    MD_CHECK(false);
    return {};
  }

  util::Status TranslateRule(const Rule& rule) {
    MD_ASSIGN_OR_RETURN(
        const tmnf::TmnfRule read,
        tmnf::ReadTmnfRule(tmnf_, intensional_, rule, /*ranked=*/false));
    const std::string head = tmnf_.preds().Name(rule.head.pred);
    switch (read.form) {
      case tmnf::TmnfRule::Form::kCopy:
        // Form (1): p(x) ← p0(x).
        if (IsRoot(read.op0)) {
          out_.AddRule(MakeRule(head, "root", "X"));
        } else if (!read.op0.tree.has_value()) {
          // A specialization with p0 as the parent pattern.
          out_.AddRule(MakeRule(head, tmnf_.preds().Name(read.op0.pred), "X"));
        } else {
          DomRule(head, {UnaryConditionOn(read.op0, "X")});
        }
        return util::Status::OK();
      case tmnf::TmnfRule::Form::kAnd: {
        // Form (3): p(x) ← p0(x), p1(x).
        std::vector<ElogCondition> conds;
        bool root_test = false;
        for (const tmnf::TmnfOperand* op : {&read.op0, &read.op1}) {
          if (IsRoot(*op)) {
            root_test = true;
            continue;
          }
          conds.push_back(UnaryConditionOn(*op, "X"));
        }
        if (root_test) {
          out_.AddRule(MakeRule(head, "root", "X", {}, std::move(conds)));
        } else {
          DomRule(head, std::move(conds));
        }
        return util::Status::OK();
      }
      case tmnf::TmnfRule::Form::kStep:
        break;
    }

    // Form (2): p(x) ← p0(x0), B(x0, x) with B = R or R^-1.
    const bool forward = !read.inverse;  // B = R
    if (read.rel.kind == core::TreePred::Kind::kNextSibling) {
      // p(x) ← dom(x), nextsibling(x0, x) [or mirrored], p0(x0).
      ElogCondition ns =
          forward ? Condition(ElogCondition::Kind::kNextSibling, "X0", "X")
                  : Condition(ElogCondition::Kind::kNextSibling, "X", "X0");
      DomRule(head, {std::move(ns), UnaryConditionOn(read.op0, "X0")});
      return util::Status::OK();
    }
    MD_CHECK(read.rel.kind == core::TreePred::Kind::kFirstChild);
    if (forward) {
      // p(X) ← p0'(X0), subelem__(X0, X), firstsibling(X) — the proof's
      // upward-compatible form with p0 referenced at the parent.
      out_.AddRule(MakeRule(head, kDom, "X0", ElogPath{{"_"}},
                            {Condition(ElogCondition::Kind::kFirstSibling, "X"),
                             UnaryConditionOn(read.op0, "X0")}));
    } else {
      // p(X) ← dom(X), contains__(X, Y), firstsibling(Y), p0(Y).
      ElogCondition contains =
          Condition(ElogCondition::Kind::kContains, "X", "Y");
      contains.path.steps = {"_"};
      DomRule(head, {std::move(contains),
                     Condition(ElogCondition::Kind::kFirstSibling, "Y"),
                     UnaryConditionOn(read.op0, "Y")});
    }
    return util::Status::OK();
  }

  const core::Program& tmnf_;
  std::vector<bool> intensional_;
  ElogProgram out_;
  std::set<std::string> used_labels_;
  bool used_root_pattern_ = false;
};

}  // namespace

util::Result<ElogProgram> DatalogToElog(const core::Program& input) {
  // ToTmnf checks its output with CheckTmnf.
  MD_ASSIGN_OR_RETURN(core::Program tmnf, tmnf::ToTmnf(input));
  return ElogTranslator(tmnf).Run();
}

}  // namespace mdatalog::elog
