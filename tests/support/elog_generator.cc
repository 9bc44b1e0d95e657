#include "tests/support/elog_generator.h"

#include <string>
#include <utility>
#include <vector>

namespace mdatalog::elog {

using K = ElogCondition::Kind;

namespace {

ElogPath RandomPath(util::Rng& rng, int32_t min_steps) {
  static const std::vector<std::string> kSteps = {"a", "b", "c", "_"};
  ElogPath path;
  const int64_t n = rng.Range(min_steps, 2);
  for (int64_t i = 0; i < n; ++i) {
    path.steps.push_back(kSteps[rng.Below(kSteps.size())]);
  }
  return path;
}

}  // namespace

ElogProgram RandomDeltaProgram(util::Rng& rng) {
  ElogProgram program;
  std::vector<std::string> defined;
  const int64_t num_rules = rng.Range(2, 6);
  for (int64_t r = 0; r < num_rules; ++r) {
    ElogRule rule;
    rule.head_pattern = "p" + std::to_string(rng.Below(4));
    if (defined.empty() || rng.Below(3) == 0) {
      rule.parent_pattern = "root";
    } else {
      rule.parent_pattern = defined[rng.Below(defined.size())];
    }
    rule.parent_var = "X0";
    if (rng.Below(5) == 0) {
      rule.head_var = "X0";
    } else {
      rule.head_var = "X1";
      rule.subelem = RandomPath(rng, 1);
    }
    std::vector<std::string> bound = {"X0", rule.head_var};
    int32_t fresh = 0;
    auto new_var = [&] { return "Y" + std::to_string(fresh++); };
    auto any_bound = [&] { return bound[rng.Below(bound.size())]; };
    auto add = [&rule](K kind, std::string v1, std::string v2 = "",
                       std::string v3 = "") {
      ElogCondition c;
      c.kind = kind;
      c.var1 = std::move(v1);
      c.var2 = std::move(v2);
      c.var3 = std::move(v3);
      rule.conditions.push_back(std::move(c));
      return &rule.conditions.back();
    };
    auto refs = defined;
    refs.push_back("root");
    refs.push_back(rule.head_pattern);
    const int64_t num_conditions = rng.Range(0, 3);
    for (int64_t i = 0; i < num_conditions; ++i) {
      switch (rng.Below(9)) {
        case 0: add(K::kLeaf, any_bound()); break;
        case 1: add(K::kFirstSibling, any_bound()); break;
        case 2: add(K::kLastSibling, any_bound()); break;
        case 3: {
          const std::string b = any_bound();
          const std::string n = rng.Below(4) == 0 ? any_bound() : new_var();
          if (rng.Below(2) == 0) {
            add(K::kNextSibling, b, n);
          } else {
            add(K::kNextSibling, n, b);
          }
          bound.push_back(n);
          break;
        }
        case 4: {
          const std::string n = rng.Below(4) == 0 ? any_bound() : new_var();
          add(K::kContains, any_bound(), n)->path = RandomPath(rng, 1);
          bound.push_back(n);
          break;
        }
        case 5: {
          const std::string pattern = refs[rng.Below(refs.size())];
          if (rng.Below(2) == 0) {
            add(K::kPatternRef, any_bound())->pattern = pattern;
            break;
          }
          // An unbound reference: the extent is enumerated, then joined.
          const std::string z = new_var();
          add(K::kPatternRef, z)->pattern = pattern;
          const std::string b = any_bound();
          switch (rng.Below(4)) {
            case 0: add(K::kContains, b, z)->path = RandomPath(rng, 1); break;
            case 1: add(K::kNextSibling, b, z); break;
            case 2: add(K::kNotAfter, b, z)->path = RandomPath(rng, 0); break;
            default: add(K::kNotBefore, b, z)->path = RandomPath(rng, 0); break;
          }
          bound.push_back(z);
          break;
        }
        case 6:
        case 7: {
          const K kind = rng.Below(2) == 0 ? K::kNotAfter : K::kNotBefore;
          const std::string x0 = any_bound();
          add(kind, x0, any_bound())->path = RandomPath(rng, 0);
          break;
        }
        default: {
          // before(x0, π, x, y, α, β), narrow or wide, y fresh or bound.
          static const std::pair<int32_t, int32_t> kWindows[] = {
              {50, 50}, {0, 0}, {10, 40}, {0, 100}, {-100, 100}, {-50, 0}};
          const auto [alpha, beta] = kWindows[rng.Below(6)];
          // Mostly x0 = the parent and x = the head below it, so x has a
          // position among x0's children and the window is not empty.
          const bool below = rng.Below(4) != 0;
          const std::string x0 = below ? "X0" : any_bound();
          const std::string x = below ? rule.head_var : any_bound();
          const bool fresh_y = rng.Below(4) != 0;
          const std::string y = fresh_y ? new_var() : any_bound();
          ElogCondition* c = add(K::kBefore, x0, x, y);
          c->path = RandomPath(rng, rng.Below(8) == 0 ? 0 : 1);
          c->alpha_pct = alpha;
          c->beta_pct = beta;
          bound.push_back(y);
          // Half the fresh ys are used later: the window is enumerated.
          if (fresh_y && rng.Below(2) == 0) {
            if (rng.Below(2) == 0) {
              add(K::kLeaf, y);
            } else {
              add(K::kPatternRef, y)->pattern = refs[rng.Below(refs.size())];
            }
          }
          break;
        }
      }
    }
    defined.push_back(rule.head_pattern);
    program.AddRule(std::move(rule));
  }
  return program;
}

}  // namespace mdatalog::elog
