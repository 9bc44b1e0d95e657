#include "src/mso/compile.h"

#include <algorithm>
#include <cctype>
#include <functional>

#include "src/util/check.h"

namespace mdatalog::mso {

namespace {

/// Builds a small complete automaton from a per-shape transition function
/// over explicit states 0..num_states-1.
Bta BuildSmall(int32_t num_classes, int32_t num_bits, int32_t num_states,
               std::vector<bool> finals,
               const std::function<BtaState(int32_t cls, uint32_t mask,
                                            BtaState l, BtaState r)>& step) {
  Bta out;
  out.num_classes = num_classes;
  out.num_bits = num_bits;
  out.num_states = num_states;
  out.finals = std::move(finals);
  for (int32_t cls = 0; cls < num_classes; ++cls) {
    for (uint32_t mask = 0; mask < (1u << num_bits); ++mask) {
      int32_t sym = out.Sym(cls, mask);
      for (BtaState l = kAbsent; l < num_states; ++l) {
        for (BtaState r = kAbsent; r < num_states; ++r) {
          out.delta[{sym, l, r}] = step(cls, mask, l, r);
        }
      }
    }
  }
  return out;
}

/// Unary atoms over variable bit `bit`: kinds label/root/leaf/lastsibling.
/// The automata enforce that the bit marks exactly one node (strictness).
Bta UnaryAtom(core::TreePred::Kind kind, int32_t target_class,
              int32_t num_classes, int32_t num_bits, int32_t bit) {
  switch (kind) {
    case core::TreePred::Kind::kLabel:
    case core::TreePred::Kind::kLeaf: {
      // 0 = no x; 1 = x found, condition ok; 2 = sink.
      auto step = [=](int32_t cls, uint32_t mask, BtaState l,
                      BtaState r) -> BtaState {
        if (l == 2 || r == 2) return 2;
        int below = (l == 1 ? 1 : 0) + (r == 1 ? 1 : 0);
        bool here = (mask >> bit) & 1;
        if (here) {
          if (below > 0) return 2;
          if (kind == core::TreePred::Kind::kLabel) {
            return cls == target_class ? 1 : 2;
          }
          // leaf(x): no first child = no left child in the encoding.
          return l == kAbsent ? 1 : 2;
        }
        if (below == 2) return 2;
        return below == 1 ? 1 : 0;
      };
      return BuildSmall(num_classes, num_bits, 3, {false, true, false}, step);
    }
    case core::TreePred::Kind::kRoot: {
      // 0 = no x; 1 = x at the current subtree root; 2 = x strictly below;
      // 3 = sink.
      auto step = [=](int32_t, uint32_t mask, BtaState l,
                      BtaState r) -> BtaState {
        if (l == 3 || r == 3) return 3;
        int below = ((l == 1 || l == 2) ? 1 : 0) + ((r == 1 || r == 2) ? 1 : 0);
        bool here = (mask >> bit) & 1;
        if (here) return below > 0 ? 3 : 1;
        if (below == 2) return 3;
        return below == 1 ? 2 : 0;
      };
      return BuildSmall(num_classes, num_bits, 4, {false, true, false, false},
                        step);
    }
    case core::TreePred::Kind::kLastSibling: {
      // 0 = no x; 1 = x here with no next sibling (pending: must not be the
      // global root); 2 = confirmed (x was consumed as somebody's child);
      // 3 = sink. The root is never a last sibling (Section 2).
      auto step = [=](int32_t, uint32_t mask, BtaState l,
                      BtaState r) -> BtaState {
        if (l == 3 || r == 3) return 3;
        int below = ((l == 1 || l == 2) ? 1 : 0) + ((r == 1 || r == 2) ? 1 : 0);
        bool here = (mask >> bit) & 1;
        if (here) {
          if (below > 0) return 3;
          return r == kAbsent ? 1 : 3;  // needs no next sibling
        }
        if (below == 2) return 3;
        if (below == 1) return 2;  // x is below some node → x has a parent
        return 0;
      };
      return BuildSmall(num_classes, num_bits, 4, {false, false, true, false},
                        step);
    }
    default:
      MD_CHECK(false);
  }
  MD_CHECK(false);
  return {};
}

/// firstchild(x,y) / nextsibling(x,y): y must be the left / right child of x
/// in the binary encoding.
Bta EdgeAtom(bool left_child, int32_t num_classes, int32_t num_bits,
             int32_t bit_x, int32_t bit_y) {
  // 0 = none; 1 = y at the current subtree root; 2 = pair found; 3 = sink.
  auto step = [=](int32_t, uint32_t mask, BtaState l, BtaState r) -> BtaState {
    if (l == 3 || r == 3) return 3;
    bool here_x = (mask >> bit_x) & 1;
    bool here_y = (mask >> bit_y) & 1;
    if (here_x && here_y) return 3;  // x cannot be its own child/sibling
    if (here_y) {
      // No marks may exist below y.
      bool clean = (l == kAbsent || l == 0) && (r == kAbsent || r == 0);
      return clean ? 1 : 3;
    }
    if (here_x) {
      BtaState child = left_child ? l : r;
      BtaState other = left_child ? r : l;
      bool ok = child == 1 && (other == kAbsent || other == 0);
      return ok ? 2 : 3;
    }
    // Unmarked: a pending y whose binary parent is unmarked can never
    // satisfy the relation (binary parents are unique).
    if (l == 1 || r == 1) return 3;
    int done = (l == 2 ? 1 : 0) + (r == 2 ? 1 : 0);
    if (done == 2) return 3;
    return done == 1 ? 2 : 0;
  };
  return BuildSmall(num_classes, num_bits, 4, {false, false, true, false},
                    step);
}

/// x = y: both bits on the same single node.
Bta EqAtom(int32_t num_classes, int32_t num_bits, int32_t bit_x,
           int32_t bit_y) {
  auto step = [=](int32_t, uint32_t mask, BtaState l, BtaState r) -> BtaState {
    if (l == 2 || r == 2) return 2;
    bool here_x = (mask >> bit_x) & 1;
    bool here_y = (mask >> bit_y) & 1;
    int below = (l == 1 ? 1 : 0) + (r == 1 ? 1 : 0);
    if (here_x != here_y) return 2;
    if (here_x && here_y) return below > 0 ? 2 : 1;
    if (below == 2) return 2;
    return below == 1 ? 1 : 0;
  };
  return BuildSmall(num_classes, num_bits, 3, {false, true, false}, step);
}

/// in(x, X): the x-marked node also carries the X bit.
Bta InAtom(int32_t num_classes, int32_t num_bits, int32_t bit_x,
           int32_t bit_set) {
  auto step = [=](int32_t, uint32_t mask, BtaState l, BtaState r) -> BtaState {
    if (l == 2 || r == 2) return 2;
    bool here_x = (mask >> bit_x) & 1;
    bool here_set = (mask >> bit_set) & 1;
    int below = (l == 1 ? 1 : 0) + (r == 1 ? 1 : 0);
    if (here_x) {
      if (below > 0) return 2;
      return here_set ? 1 : 2;
    }
    if (below == 2) return 2;
    return below == 1 ? 1 : 0;
  };
  return BuildSmall(num_classes, num_bits, 3, {false, true, false}, step);
}

class Compiler {
 public:
  explicit Compiler(const MsoCompileOptions& options) : options_(options) {}

  util::Result<Bta> Compile(const FormulaPtr& f,
                            std::vector<std::string>& varlist) {
    int32_t classes = static_cast<int32_t>(options_.alphabet.size());
    int32_t bits = static_cast<int32_t>(varlist.size());
    auto bit_of = [&](const std::string& v) -> util::Result<int32_t> {
      auto it = std::find(varlist.begin(), varlist.end(), v);
      if (it == varlist.end()) {
        return util::Status::InvalidArgument("unbound variable '" + v + "'");
      }
      return static_cast<int32_t>(it - varlist.begin());
    };

    switch (f->kind) {
      case Formula::Kind::kTreeAtom: {
        MD_ASSIGN_OR_RETURN(int32_t bx, bit_of(f->var1));
        switch (f->pred.kind) {
          case core::TreePred::Kind::kLabel: {
            const std::string label = core::LabelFromPredName(f->name);
            auto it = std::find(options_.alphabet.begin(),
                                options_.alphabet.end(), label);
            if (it == options_.alphabet.end()) {
              return util::Status::InvalidArgument(
                  "label '" + label + "' missing from the compile alphabet");
            }
            return UnaryAtom(
                f->pred.kind,
                static_cast<int32_t>(it - options_.alphabet.begin()), classes,
                bits, bx);
          }
          case core::TreePred::Kind::kRoot:
          case core::TreePred::Kind::kLeaf:
          case core::TreePred::Kind::kLastSibling:
            return UnaryAtom(f->pred.kind, 0, classes, bits, bx);
          case core::TreePred::Kind::kFirstChild:
          case core::TreePred::Kind::kNextSibling: {
            MD_ASSIGN_OR_RETURN(int32_t by, bit_of(f->var2));
            if (bx == by) {
              return util::Status::InvalidArgument(
                  "firstchild/nextsibling with identical variables");
            }
            return EdgeAtom(f->pred.kind == core::TreePred::Kind::kFirstChild,
                            classes, bits, bx, by);
          }
          default:
            break;  // TreeAtom admits τ_ur predicates only
        }
        break;
      }
      case Formula::Kind::kEq: {
        MD_ASSIGN_OR_RETURN(int32_t bx, bit_of(f->var1));
        MD_ASSIGN_OR_RETURN(int32_t by, bit_of(f->var2));
        if (bx == by) {
          // x = x: equivalent to "x exists" — the singleton automaton.
          return SingletonBit(classes, bits, bx);
        }
        return EqAtom(classes, bits, bx, by);
      }
      case Formula::Kind::kIn: {
        MD_ASSIGN_OR_RETURN(int32_t bx, bit_of(f->var1));
        MD_ASSIGN_OR_RETURN(int32_t bs, bit_of(f->var2));
        return InAtom(classes, bits, bx, bs);
      }
      case Formula::Kind::kNot: {
        MD_ASSIGN_OR_RETURN(Bta inner, Compile(f->children[0], varlist));
        return Minimize(Complement(inner));
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        MD_ASSIGN_OR_RETURN(Bta acc, Compile(f->children[0], varlist));
        for (size_t i = 1; i < f->children.size(); ++i) {
          MD_ASSIGN_OR_RETURN(Bta next, Compile(f->children[i], varlist));
          auto combined = f->kind == Formula::Kind::kAnd
                              ? Intersect(acc, next, options_.max_states)
                              : UnionOp(acc, next, options_.max_states);
          if (!combined.ok()) return combined.status();
          acc = std::move(*combined);
        }
        return acc;
      }
      case Formula::Kind::kImplies: {
        MD_ASSIGN_OR_RETURN(Bta a, Compile(f->children[0], varlist));
        MD_ASSIGN_OR_RETURN(Bta b, Compile(f->children[1], varlist));
        return UnionOp(Minimize(Complement(a)), b, options_.max_states);
      }
      case Formula::Kind::kExistsFo:
      case Formula::Kind::kExistsSo:
      case Formula::Kind::kForallFo:
      case Formula::Kind::kForallSo: {
        bool forall = f->kind == Formula::Kind::kForallFo ||
                      f->kind == Formula::Kind::kForallSo;
        bool fo = f->kind == Formula::Kind::kExistsFo ||
                  f->kind == Formula::Kind::kForallFo;
        if (std::find(varlist.begin(), varlist.end(), f->name) !=
            varlist.end()) {
          return util::Status::Unimplemented(
              "variable shadowing ('" + f->name +
              "' is bound twice); rename the inner variable");
        }
        varlist.push_back(f->name);
        auto body = Compile(f->children[0], varlist);
        if (!body.ok()) {
          varlist.pop_back();
          return body.status();
        }
        Bta inner = std::move(*body);
        if (forall) inner = Complement(inner);  // ∀z φ = ¬∃z ¬φ
        if (fo) {
          auto with_singleton = Intersect(
              inner,
              SingletonBit(classes, static_cast<int32_t>(varlist.size()),
                           static_cast<int32_t>(varlist.size()) - 1),
              options_.max_states);
          varlist.pop_back();
          if (!with_singleton.ok()) return with_singleton.status();
          inner = std::move(*with_singleton);
        } else {
          varlist.pop_back();
        }
        auto projected = ProjectLastBit(inner, options_.max_states);
        if (!projected.ok()) return projected.status();
        if (forall) return Minimize(Complement(*projected));
        return projected;
      }
    }
    return util::Status::Internal("unreachable formula kind");
  }

 private:
  const MsoCompileOptions& options_;
};

util::Status CheckFreeVars(const FormulaPtr& f,
                           const std::set<std::string>& allowed_fo) {
  std::set<std::string> fo, so;
  FreeVariables(f, &fo, &so);
  if (!so.empty()) {
    return util::Status::InvalidArgument("free set variable '" + *so.begin() +
                                         "'");
  }
  for (const std::string& v : fo) {
    if (allowed_fo.count(v) == 0) {
      return util::Status::InvalidArgument("unexpected free variable '" + v +
                                           "'");
    }
  }
  return util::Status::OK();
}

}  // namespace

util::Result<Bta> CompileSentence(const FormulaPtr& f,
                                  const MsoCompileOptions& options) {
  MD_RETURN_NOT_OK(CheckFreeVars(f, {}));
  if (options.alphabet.empty()) {
    return util::Status::InvalidArgument("empty alphabet");
  }
  std::vector<std::string> varlist;
  return Compiler(options).Compile(f, varlist);
}

util::Result<Bta> CompileUnaryQuery(const FormulaPtr& f, const std::string& x,
                                    const MsoCompileOptions& options) {
  MD_RETURN_NOT_OK(CheckFreeVars(f, {x}));
  if (options.alphabet.empty()) {
    return util::Status::InvalidArgument("empty alphabet");
  }
  std::vector<std::string> varlist = {x};
  return Compiler(options).Compile(f, varlist);
}

}  // namespace mdatalog::mso
