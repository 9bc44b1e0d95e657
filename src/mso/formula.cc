#include "src/mso/formula.h"

#include <cctype>
#include <functional>

#include "src/util/check.h"
#include "src/util/text_cursor.h"

namespace mdatalog::mso {

namespace {

FormulaPtr MakeNode(Formula::Kind kind, std::string name, std::string var1,
                    std::string var2, std::vector<FormulaPtr> children) {
  auto f = std::make_shared<Formula>();
  f->kind = kind;
  f->name = std::move(name);
  f->var1 = std::move(var1);
  f->var2 = std::move(var2);
  f->children = std::move(children);
  return f;
}

bool IsSoName(const std::string& v) {
  return !v.empty() && std::isupper(static_cast<unsigned char>(v[0]));
}

}  // namespace

FormulaPtr TreeAtom(core::TreePred pred, const std::string& name,
                    const std::string& x, const std::string& y) {
  MD_CHECK(core::InTmnfSchema(pred, /*ranked=*/false) &&
           pred.unary() == y.empty());
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kTreeAtom;
  f->pred = pred;
  f->name = name;
  f->var1 = x;
  f->var2 = y;
  return f;
}
FormulaPtr Eq(const std::string& x, const std::string& y) {
  return MakeNode(Formula::Kind::kEq, "", x, y, {});
}
FormulaPtr In(const std::string& x, const std::string& big_x) {
  return MakeNode(Formula::Kind::kIn, "", x, big_x, {});
}
FormulaPtr Not(FormulaPtr f) {
  return MakeNode(Formula::Kind::kNot, "", "", "", {std::move(f)});
}
FormulaPtr And(std::vector<FormulaPtr> fs) {
  MD_CHECK(!fs.empty());
  if (fs.size() == 1) return fs[0];
  return MakeNode(Formula::Kind::kAnd, "", "", "", std::move(fs));
}
FormulaPtr Or(std::vector<FormulaPtr> fs) {
  MD_CHECK(!fs.empty());
  if (fs.size() == 1) return fs[0];
  return MakeNode(Formula::Kind::kOr, "", "", "", std::move(fs));
}
FormulaPtr Implies(FormulaPtr a, FormulaPtr b) {
  return MakeNode(Formula::Kind::kImplies, "", "", "",
                  {std::move(a), std::move(b)});
}
FormulaPtr ExistsFo(const std::string& x, FormulaPtr body) {
  MD_CHECK(!IsSoName(x));
  return MakeNode(Formula::Kind::kExistsFo, x, "", "", {std::move(body)});
}
FormulaPtr ForallFo(const std::string& x, FormulaPtr body) {
  MD_CHECK(!IsSoName(x));
  return MakeNode(Formula::Kind::kForallFo, x, "", "", {std::move(body)});
}
FormulaPtr ExistsSo(const std::string& big_x, FormulaPtr body) {
  MD_CHECK(IsSoName(big_x));
  return MakeNode(Formula::Kind::kExistsSo, big_x, "", "", {std::move(body)});
}
FormulaPtr ForallSo(const std::string& big_x, FormulaPtr body) {
  MD_CHECK(IsSoName(big_x));
  return MakeNode(Formula::Kind::kForallSo, big_x, "", "", {std::move(body)});
}

// --- parser -----------------------------------------------------------------

namespace {

class FormulaParser {
 public:
  explicit FormulaParser(std::string_view text) : cur_(text) {}

  util::Result<FormulaPtr> Parse() {
    MD_ASSIGN_OR_RETURN(FormulaPtr f, ParseImplies());
    if (!cur_.AtEnd()) return cur_.Error("trailing input in MSO formula");
    return f;
  }

 private:
  /// a -> b -> c is a -> (b -> c). The chain is read by a loop and folded
  /// from the right; each arrow nests the AST one level deeper, so it counts
  /// against the nesting bound.
  util::Result<FormulaPtr> ParseImplies() {
    std::vector<FormulaPtr> chain;
    while (true) {
      MD_ASSIGN_OR_RETURN(FormulaPtr f, ParseOr());
      chain.push_back(std::move(f));
      if (!cur_.Consume("->")) break;
      MD_RETURN_NOT_OK(cur_.Enter());
    }
    FormulaPtr f = chain.back();
    for (size_t i = chain.size() - 1; i-- > 0;) {
      f = Implies(chain[i], f);
      cur_.Leave();
    }
    return f;
  }

  util::Result<FormulaPtr> ParseOr() {
    std::vector<FormulaPtr> parts;
    do {
      MD_ASSIGN_OR_RETURN(FormulaPtr f, ParseAnd());
      parts.push_back(std::move(f));
    } while (cur_.Consume("|"));
    return Or(std::move(parts));
  }

  util::Result<FormulaPtr> ParseAnd() {
    std::vector<FormulaPtr> parts;
    do {
      MD_ASSIGN_OR_RETURN(FormulaPtr f, ParseUnary());
      parts.push_back(std::move(f));
    } while (cur_.Consume("&"));
    return And(std::move(parts));
  }

  /// A parenthesized formula or a quantifier body: one nesting level.
  util::Result<FormulaPtr> ParseNested() {
    MD_RETURN_NOT_OK(cur_.Enter());
    MD_ASSIGN_OR_RETURN(FormulaPtr f, ParseImplies());
    cur_.Leave();
    return f;
  }

  util::Result<FormulaPtr> ParseUnary() {
    if (cur_.Consume("~")) {
      MD_RETURN_NOT_OK(cur_.Enter());
      MD_ASSIGN_OR_RETURN(FormulaPtr body, ParseUnary());
      cur_.Leave();
      return Not(body);
    }
    if (cur_.Consume("(")) {
      MD_ASSIGN_OR_RETURN(FormulaPtr inner, ParseNested());
      MD_RETURN_NOT_OK(cur_.Expect(")"));
      return inner;
    }
    // Quantifiers and atoms both start with an identifier.
    std::string word;
    MD_RETURN_NOT_OK(cur_.Identifier(&word));
    if (word == "exists" || word == "forall") {
      std::string var;
      MD_RETURN_NOT_OK(cur_.Identifier(&var));
      if (!cur_.Consume(".")) {
        return cur_.Error("expected '.' after quantifier");
      }
      MD_ASSIGN_OR_RETURN(FormulaPtr body, ParseNested());
      bool so = IsSoName(var);
      if (word == "exists") {
        return so ? ExistsSo(var, body) : ExistsFo(var, body);
      }
      return so ? ForallSo(var, body) : ForallFo(var, body);
    }
    // Atom: pred(args) or variable equality "x = y".
    if (cur_.Consume("(")) {
      std::vector<std::string> args;
      while (true) {
        std::string arg;
        MD_RETURN_NOT_OK(cur_.Identifier(&arg));
        args.push_back(arg);
        if (cur_.Consume(",")) continue;
        if (cur_.Consume(")")) break;
        return cur_.Error("expected ',' or ')'");
      }
      return MakeAtom(word, args);
    }
    if (cur_.Consume("=")) {
      std::string rhs;
      MD_RETURN_NOT_OK(cur_.Identifier(&rhs));
      return Eq(word, rhs);
    }
    return cur_.Error("expected atom at '" + word + "'");
  }

  util::Result<FormulaPtr> MakeAtom(const std::string& pred,
                                    const std::vector<std::string>& args) {
    if (pred == "in") {
      if (args.size() != 2) return cur_.Error("atom 'in' has wrong arity");
      if (!IsSoName(args[1])) {
        return cur_.Error("second argument of in(·,·) must be a set variable");
      }
      return In(args[0], args[1]);
    }
    const std::optional<core::TreePred> tp = core::ClassifyTreePredicate(
        pred, static_cast<int32_t>(args.size()));
    if (!tp.has_value() || !core::InTmnfSchema(*tp, /*ranked=*/false)) {
      return cur_.Error("unknown predicate '" + pred + "'/" +
                        std::to_string(args.size()));
    }
    return TreeAtom(*tp, pred, args[0], tp->unary() ? "" : args[1]);
  }

  util::TextCursor cur_;
};

}  // namespace

util::Result<FormulaPtr> ParseFormula(std::string_view text) {
  return FormulaParser(text).Parse();
}

namespace {

/// A quantifier body extends as far right as possible, so a quantified
/// operand left of a connective keeps its own parentheses.
std::string OperandToString(const FormulaPtr& f) {
  const bool quantifier = f->kind == Formula::Kind::kExistsFo ||
                          f->kind == Formula::Kind::kForallFo ||
                          f->kind == Formula::Kind::kExistsSo ||
                          f->kind == Formula::Kind::kForallSo;
  return quantifier ? "(" + ToString(f) + ")" : ToString(f);
}

}  // namespace

std::string ToString(const FormulaPtr& f) {
  switch (f->kind) {
    case Formula::Kind::kTreeAtom:
      return f->name + "(" + f->var1 +
             (f->pred.unary() ? "" : ", " + f->var2) + ")";
    case Formula::Kind::kEq:
      return f->var1 + " = " + f->var2;
    case Formula::Kind::kIn:
      return "in(" + f->var1 + ", " + f->var2 + ")";
    case Formula::Kind::kNot:
      return "~(" + ToString(f->children[0]) + ")";
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      std::string op = f->kind == Formula::Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < f->children.size(); ++i) {
        if (i > 0) out += op;
        out += i + 1 < f->children.size() ? OperandToString(f->children[i])
                                          : ToString(f->children[i]);
      }
      return out + ")";
    }
    case Formula::Kind::kImplies:
      return "(" + OperandToString(f->children[0]) + " -> " +
             ToString(f->children[1]) + ")";
    case Formula::Kind::kExistsFo:
    case Formula::Kind::kExistsSo:
      return "exists " + f->name + ". " + ToString(f->children[0]);
    case Formula::Kind::kForallFo:
    case Formula::Kind::kForallSo:
      return "forall " + f->name + ". " + ToString(f->children[0]);
  }
  return "?";
}

void FreeVariables(const FormulaPtr& f, std::set<std::string>* fo,
                   std::set<std::string>* so) {
  switch (f->kind) {
    case Formula::Kind::kEq:
      fo->insert(f->var1);
      fo->insert(f->var2);
      return;
    case Formula::Kind::kIn:
      fo->insert(f->var1);
      so->insert(f->var2);
      return;
    case Formula::Kind::kTreeAtom:
      fo->insert(f->var1);
      if (!f->pred.unary()) fo->insert(f->var2);
      return;
    case Formula::Kind::kExistsFo:
    case Formula::Kind::kForallFo: {
      std::set<std::string> inner_fo, inner_so;
      FreeVariables(f->children[0], &inner_fo, &inner_so);
      inner_fo.erase(f->name);
      fo->insert(inner_fo.begin(), inner_fo.end());
      so->insert(inner_so.begin(), inner_so.end());
      return;
    }
    case Formula::Kind::kExistsSo:
    case Formula::Kind::kForallSo: {
      std::set<std::string> inner_fo, inner_so;
      FreeVariables(f->children[0], &inner_fo, &inner_so);
      inner_so.erase(f->name);
      fo->insert(inner_fo.begin(), inner_fo.end());
      so->insert(inner_so.begin(), inner_so.end());
      return;
    }
    default:
      for (const FormulaPtr& c : f->children) FreeVariables(c, fo, so);
  }
}

int32_t QuantifierRank(const FormulaPtr& f) {
  int32_t best = 0;
  for (const FormulaPtr& c : f->children) {
    best = std::max(best, QuantifierRank(c));
  }
  switch (f->kind) {
    case Formula::Kind::kExistsFo:
    case Formula::Kind::kForallFo:
    case Formula::Kind::kExistsSo:
    case Formula::Kind::kForallSo:
      return best + 1;
    default:
      return best;
  }
}

util::Result<bool> EvalFormulaReference(
    const tree::Tree& t, const FormulaPtr& f,
    const std::map<std::string, tree::NodeId>& fo,
    const std::map<std::string, std::set<tree::NodeId>>& so) {
  auto node_of = [&](const std::string& v) -> util::Result<tree::NodeId> {
    auto it = fo.find(v);
    if (it == fo.end()) {
      return util::Status::InvalidArgument("unbound node variable " + v);
    }
    return it->second;
  };
  switch (f->kind) {
    case Formula::Kind::kTreeAtom: {
      MD_ASSIGN_OR_RETURN(tree::NodeId a, node_of(f->var1));
      if (f->pred.unary()) {
        const tree::LabelId label =
            f->pred.kind == core::TreePred::Kind::kLabel
                ? t.FindLabel(core::LabelFromPredName(f->name))
                : util::kInvalidSymbol;
        return core::HoldsUnary(t, f->pred.kind, label, a);
      }
      MD_ASSIGN_OR_RETURN(tree::NodeId b, node_of(f->var2));
      return core::StepForward(t, f->pred, a) == b;
    }
    case Formula::Kind::kEq: {
      MD_ASSIGN_OR_RETURN(tree::NodeId a, node_of(f->var1));
      MD_ASSIGN_OR_RETURN(tree::NodeId b, node_of(f->var2));
      return a == b;
    }
    case Formula::Kind::kIn: {
      MD_ASSIGN_OR_RETURN(tree::NodeId n, node_of(f->var1));
      auto it = so.find(f->var2);
      if (it == so.end()) {
        return util::Status::InvalidArgument("unbound set variable " +
                                             f->var2);
      }
      return it->second.count(n) > 0;
    }
    case Formula::Kind::kNot: {
      MD_ASSIGN_OR_RETURN(bool v, EvalFormulaReference(t, f->children[0], fo,
                                                       so));
      return !v;
    }
    case Formula::Kind::kAnd: {
      for (const FormulaPtr& c : f->children) {
        MD_ASSIGN_OR_RETURN(bool v, EvalFormulaReference(t, c, fo, so));
        if (!v) return false;
      }
      return true;
    }
    case Formula::Kind::kOr: {
      for (const FormulaPtr& c : f->children) {
        MD_ASSIGN_OR_RETURN(bool v, EvalFormulaReference(t, c, fo, so));
        if (v) return true;
      }
      return false;
    }
    case Formula::Kind::kImplies: {
      MD_ASSIGN_OR_RETURN(bool a, EvalFormulaReference(t, f->children[0], fo,
                                                       so));
      if (!a) return true;
      return EvalFormulaReference(t, f->children[1], fo, so);
    }
    case Formula::Kind::kExistsFo:
    case Formula::Kind::kForallFo: {
      bool exists = f->kind == Formula::Kind::kExistsFo;
      std::map<std::string, tree::NodeId> fo2 = fo;
      for (tree::NodeId n = 0; n < t.size(); ++n) {
        fo2[f->name] = n;
        MD_ASSIGN_OR_RETURN(bool v,
                            EvalFormulaReference(t, f->children[0], fo2, so));
        if (exists && v) return true;
        if (!exists && !v) return false;
      }
      return !exists;
    }
    case Formula::Kind::kExistsSo:
    case Formula::Kind::kForallSo: {
      bool exists = f->kind == Formula::Kind::kExistsSo;
      if (t.size() > 20) {
        return util::Status::ResourceExhausted(
            "reference SO quantification over > 20 nodes");
      }
      std::map<std::string, std::set<tree::NodeId>> so2 = so;
      uint64_t limit = 1ULL << t.size();
      for (uint64_t mask = 0; mask < limit; ++mask) {
        std::set<tree::NodeId> subset;
        for (tree::NodeId n = 0; n < t.size(); ++n) {
          if (mask & (1ULL << n)) subset.insert(n);
        }
        so2[f->name] = std::move(subset);
        MD_ASSIGN_OR_RETURN(
            bool v, EvalFormulaReference(t, f->children[0], fo, so2));
        if (exists && v) return true;
        if (!exists && !v) return false;
      }
      return !exists;
    }
  }
  return util::Status::Internal("unreachable formula kind");
}

util::Result<std::vector<tree::NodeId>> EvalUnaryQueryReference(
    const tree::Tree& t, const FormulaPtr& f, const std::string& x) {
  std::vector<tree::NodeId> out;
  for (tree::NodeId n = 0; n < t.size(); ++n) {
    MD_ASSIGN_OR_RETURN(bool v,
                        EvalFormulaReference(t, f, {{x, n}}, {}));
    if (v) out.push_back(n);
  }
  return out;
}

}  // namespace mdatalog::mso
