#include "src/caterpillar/nfa.h"

#include "src/util/check.h"

namespace mdatalog::caterpillar {

namespace {

class ThompsonBuilder {
 public:
  CatNfa Build(const ExprPtr& e) {
    auto [s, a] = Fragment(e);
    nfa_.start = s;
    nfa_.accept = a;
    return std::move(nfa_);
  }

 private:
  int32_t NewState() {
    nfa_.states.emplace_back();
    return static_cast<int32_t>(nfa_.states.size()) - 1;
  }

  void AddEdge(int32_t from, NfaEdge edge) {
    nfa_.states[from].push_back(std::move(edge));
  }

  std::pair<int32_t, int32_t> Fragment(const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::kEpsilon: {
        int32_t s = NewState(), a = NewState();
        AddEdge(s, {NfaEdge::Type::kEps, a, "", false});
        return {s, a};
      }
      case Expr::Kind::kRel: {
        int32_t s = NewState(), a = NewState();
        AddEdge(s, {NfaEdge::Type::kRel, a, e->name, e->inverted});
        return {s, a};
      }
      case Expr::Kind::kTest: {
        int32_t s = NewState(), a = NewState();
        AddEdge(s, {NfaEdge::Type::kTest, a, e->name, false});
        return {s, a};
      }
      case Expr::Kind::kConcat: {
        std::pair<int32_t, int32_t> first = Fragment(e->children[0]);
        int32_t start = first.first;
        int32_t cur = first.second;
        for (size_t i = 1; i < e->children.size(); ++i) {
          auto [s, a] = Fragment(e->children[i]);
          AddEdge(cur, {NfaEdge::Type::kEps, s, "", false});
          cur = a;
        }
        return {start, cur};
      }
      case Expr::Kind::kUnion: {
        int32_t s = NewState(), a = NewState();
        for (const ExprPtr& c : e->children) {
          auto [cs, ca] = Fragment(c);
          AddEdge(s, {NfaEdge::Type::kEps, cs, "", false});
          AddEdge(ca, {NfaEdge::Type::kEps, a, "", false});
        }
        return {s, a};
      }
      case Expr::Kind::kStar: {
        int32_t s = NewState(), a = NewState();
        auto [cs, ca] = Fragment(e->children[0]);
        AddEdge(s, {NfaEdge::Type::kEps, cs, "", false});
        AddEdge(s, {NfaEdge::Type::kEps, a, "", false});
        AddEdge(ca, {NfaEdge::Type::kEps, cs, "", false});
        AddEdge(ca, {NfaEdge::Type::kEps, a, "", false});
        return {s, a};
      }
      case Expr::Kind::kPlus: {
        // E, then back to E's start: at least one pass, no bypass.
        auto [cs, ca] = Fragment(e->children[0]);
        AddEdge(ca, {NfaEdge::Type::kEps, cs, "", false});
        return {cs, ca};
      }
      case Expr::Kind::kInverse:
        MD_CHECK(false);  // removed by PushDownInverses
    }
    MD_CHECK(false);
    return {0, 0};
  }

  CatNfa nfa_;
};

}  // namespace

CatNfa CompileToNfa(const ExprPtr& e, bool expand_derived) {
  ExprPtr prepared = expand_derived ? ExpandDerivedRels(e) : e;
  prepared = PushDownInverses(prepared);
  return ThompsonBuilder().Build(prepared);
}

}  // namespace mdatalog::caterpillar
