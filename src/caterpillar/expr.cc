#include "src/caterpillar/expr.h"

#include <algorithm>

#include "src/core/tree_schema.h"
#include "src/util/check.h"
#include "src/util/text_cursor.h"

namespace mdatalog::caterpillar {

namespace {

ExprPtr MakeNode(Expr::Kind kind, std::string name, bool inverted,
                 std::vector<ExprPtr> children) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->name = std::move(name);
  e->inverted = inverted;
  e->children = std::move(children);
  return e;
}

}  // namespace

ExprPtr Epsilon() { return MakeNode(Expr::Kind::kEpsilon, "", false, {}); }
ExprPtr Rel(const std::string& name, bool inverted) {
  return MakeNode(Expr::Kind::kRel, name, inverted, {});
}
ExprPtr Test(const std::string& name) {
  return MakeNode(Expr::Kind::kTest, name, false, {});
}
ExprPtr Concat(std::vector<ExprPtr> parts) {
  MD_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return MakeNode(Expr::Kind::kConcat, "", false, std::move(parts));
}
ExprPtr Union(std::vector<ExprPtr> parts) {
  MD_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return MakeNode(Expr::Kind::kUnion, "", false, std::move(parts));
}
ExprPtr Star(ExprPtr e) {
  return MakeNode(Expr::Kind::kStar, "", false, {std::move(e)});
}
ExprPtr Inverse(ExprPtr e) {
  return MakeNode(Expr::Kind::kInverse, "", false, {std::move(e)});
}
ExprPtr Plus(ExprPtr e) {
  return MakeNode(Expr::Kind::kPlus, "", false, {std::move(e)});
}

// --- parser -----------------------------------------------------------------

namespace {

class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : cur_(text) {}

  util::Result<ExprPtr> Parse() {
    MD_ASSIGN_OR_RETURN(ExprPtr e, ParseUnion());
    if (!cur_.AtEnd()) {
      return cur_.Error("trailing input in caterpillar expression");
    }
    return e;
  }

 private:
  util::Result<ExprPtr> ParseUnion() {
    std::vector<ExprPtr> parts;
    do {
      MD_ASSIGN_OR_RETURN(ExprPtr e, ParseConcat());
      parts.push_back(std::move(e));
    } while (cur_.Consume("|"));
    return Union(std::move(parts));
  }

  util::Result<ExprPtr> ParseConcat() {
    std::vector<ExprPtr> parts;
    do {
      MD_ASSIGN_OR_RETURN(ExprPtr e, ParsePostfix());
      parts.push_back(std::move(e));
    } while (cur_.Consume("."));
    return Concat(std::move(parts));
  }

  /// Each postfix operator wraps a finished operand one AST level deeper,
  /// so the operators count against the nesting bound on top of the
  /// deepest chain of operators inside the operand.
  util::Result<ExprPtr> ParsePostfix() {
    const int32_t outer = wraps_;
    wraps_ = 0;
    MD_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    int32_t wraps = wraps_;
    while (true) {
      if (cur_.Consume("*")) {
        e = Star(e);
      } else if (cur_.Consume("+")) {
        e = Plus(e);
      } else if (cur_.Consume("^-1")) {
        e = Inverse(e);
      } else {
        break;
      }
      MD_RETURN_NOT_OK(cur_.CheckNesting(++wraps));
    }
    wraps_ = std::max(outer, wraps);
    return e;
  }

  util::Result<ExprPtr> ParsePrimary() {
    if (cur_.Consume("(")) {
      MD_RETURN_NOT_OK(cur_.Enter());
      MD_ASSIGN_OR_RETURN(ExprPtr e, ParseUnion());
      cur_.Leave();
      MD_RETURN_NOT_OK(cur_.Expect(")"));
      return e;
    }
    std::string name;
    if (cur_.Consume("[")) {
      MD_RETURN_NOT_OK(cur_.Identifier(&name));
      MD_RETURN_NOT_OK(cur_.Expect("]"));
      return Test(name);
    }
    MD_RETURN_NOT_OK(cur_.Identifier(&name));
    if (name == "eps") return Epsilon();
    return Rel(name);
  }

  util::TextCursor cur_;
  /// The most postfix operators nested on one path of the subexpressions
  /// finished since the innermost open ParsePostfix began.
  int32_t wraps_ = 0;
};

}  // namespace

util::Result<ExprPtr> ParseExpr(std::string_view text) {
  return ExprParser(text).Parse();
}

std::string ToString(const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon:
      return "eps";
    case Expr::Kind::kRel:
      return e->inverted ? e->name + "^-1" : e->name;
    case Expr::Kind::kTest:
      return "[" + e->name + "]";
    case Expr::Kind::kConcat: {
      std::string out;
      for (size_t i = 0; i < e->children.size(); ++i) {
        if (i > 0) out += ".";
        const ExprPtr& c = e->children[i];
        bool paren = c->kind == Expr::Kind::kUnion;
        out += paren ? "(" + ToString(c) + ")" : ToString(c);
      }
      return out;
    }
    case Expr::Kind::kUnion: {
      std::string out;
      for (size_t i = 0; i < e->children.size(); ++i) {
        if (i > 0) out += " | ";
        out += ToString(e->children[i]);
      }
      return out;
    }
    case Expr::Kind::kStar:
    case Expr::Kind::kPlus: {
      const ExprPtr& c = e->children[0];
      bool paren = c->kind == Expr::Kind::kConcat ||
                   c->kind == Expr::Kind::kUnion;
      return (paren ? "(" + ToString(c) + ")" : ToString(c)) +
             (e->kind == Expr::Kind::kStar ? "*" : "+");
    }
    case Expr::Kind::kInverse: {
      const ExprPtr& c = e->children[0];
      bool paren = c->kind != Expr::Kind::kRel &&
                   c->kind != Expr::Kind::kTest &&
                   c->kind != Expr::Kind::kEpsilon;
      return (paren ? "(" + ToString(c) + ")" : ToString(c)) + "^-1";
    }
  }
  return "?";
}

int32_t ExprSize(const ExprPtr& e) {
  int32_t n = 1;
  for (const ExprPtr& c : e->children) n += ExprSize(c);
  return n;
}

namespace {

ExprPtr PushDown(const ExprPtr& e, bool invert) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon:
      return Epsilon();  // ǫ^-1 = ǫ
    case Expr::Kind::kTest:
      return Test(e->name);  // identity pairs are symmetric
    case Expr::Kind::kRel:
      return Rel(e->name, invert != e->inverted);  // (R^-1)^-1 = R
    case Expr::Kind::kConcat: {
      std::vector<ExprPtr> parts;
      if (invert) {
        // (E.F)^-1 = F^-1.E^-1 (Proposition 2.3)
        for (auto it = e->children.rbegin(); it != e->children.rend(); ++it) {
          parts.push_back(PushDown(*it, true));
        }
      } else {
        for (const ExprPtr& c : e->children) parts.push_back(PushDown(c, false));
      }
      return Concat(std::move(parts));
    }
    case Expr::Kind::kUnion: {
      // (E ∪ F)^-1 = E^-1 ∪ F^-1
      std::vector<ExprPtr> parts;
      for (const ExprPtr& c : e->children) parts.push_back(PushDown(c, invert));
      return Union(std::move(parts));
    }
    case Expr::Kind::kStar:
      // (E*)^-1 = (E^-1)*
      return Star(PushDown(e->children[0], invert));
    case Expr::Kind::kPlus:
      // (E+)^-1 = (E^-1)+
      return Plus(PushDown(e->children[0], invert));
    case Expr::Kind::kInverse:
      return PushDown(e->children[0], !invert);
  }
  MD_CHECK(false);
  return nullptr;
}

}  // namespace

ExprPtr PushDownInverses(const ExprPtr& e) { return PushDown(e, false); }

ExprPtr ExpandDerivedRels(const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon:
    case Expr::Kind::kTest:
      return e;
    case Expr::Kind::kRel: {
      const std::optional<core::TreePred> rel =
          core::ClassifyTreePredicate(e->name, 2);
      if (!rel.has_value()) return e;
      std::vector<ExprPtr> parts;
      if (rel->kind == core::TreePred::Kind::kChild) {
        // child = firstchild.nextsibling* (Example 2.5)
        parts = {Rel("firstchild"), Star(Rel("nextsibling"))};
      } else if (rel->kind == core::TreePred::Kind::kLastChild) {
        parts = {Rel("firstchild"), Star(Rel("nextsibling")),
                 Test("lastsibling")};
      } else {
        return e;
      }
      ExprPtr expansion = Concat(std::move(parts));
      return e->inverted ? Inverse(expansion) : expansion;
    }
    default: {
      std::vector<ExprPtr> children;
      for (const ExprPtr& c : e->children) children.push_back(ExpandDerivedRels(c));
      return MakeNode(e->kind, e->name, e->inverted, std::move(children));
    }
  }
}

ExprPtr DocumentOrderExpr() {
  ExprPtr child = Rel("child");
  return Union({Plus(child),
                Concat({Star(Inverse(child)), Plus(Rel("nextsibling")),
                        Star(child)})});
}

ExprPtr AnyNodeExpr() {
  ExprPtr order = DocumentOrderExpr();
  return Union({order, Epsilon(), Inverse(order)});
}

}  // namespace mdatalog::caterpillar
