#include "tests/support/horn.h"

#include "src/util/check.h"

namespace mdatalog::core {

std::vector<bool> SolveHorn(const HornInstance& instance) {
  const int32_t n = instance.num_atoms;
  std::vector<bool> value(n, false);
  // counter[c]: body occurrences of clause c not yet known true.
  std::vector<int32_t> counter(instance.clauses.size());
  // occurrences[a]: one entry per body occurrence of atom a.
  std::vector<std::vector<int32_t>> occurrences(n);
  std::vector<int32_t> queue;

  for (size_t ci = 0; ci < instance.clauses.size(); ++ci) {
    const HornClause& c = instance.clauses[ci];
    MD_DCHECK(c.head >= 0 && c.head < n);
    counter[ci] = static_cast<int32_t>(c.body.size());
    for (int32_t a : c.body) {
      MD_DCHECK(a >= 0 && a < n);
      occurrences[a].push_back(static_cast<int32_t>(ci));
    }
    if (c.body.empty() && !value[c.head]) {
      value[c.head] = true;
      queue.push_back(c.head);
    }
  }

  while (!queue.empty()) {
    const int32_t a = queue.back();
    queue.pop_back();
    for (int32_t ci : occurrences[a]) {
      if (--counter[ci] != 0) continue;
      const int32_t h = instance.clauses[ci].head;
      if (!value[h]) {
        value[h] = true;
        queue.push_back(h);
      }
    }
  }
  return value;
}

}  // namespace mdatalog::core
