#include "src/analysis/canonical.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "src/elog/to_datalog.h"
#include "src/util/hash.h"

namespace mdatalog::analysis {

namespace {

using core::Atom;
using core::PredId;
using core::Program;
using core::Rule;
using core::Term;

/// Past this many body literals, permutation search (k!) gives way to a
/// deterministic heuristic sort. 7! = 5040 renderings, still cheap.
constexpr size_t kMaxPermutationBody = 7;

/// Renders head + body (in `order`) with variables renamed by first
/// occurrence. Predicate names keep the key stable across intern orders.
std::string Render(const Program& program, const Rule& rule,
                   const std::vector<int32_t>& order) {
  std::unordered_map<int32_t, int32_t> rename;
  std::string out;
  auto add_atom = [&](const Atom& a) {
    out += program.preds().Name(a.pred);
    out += '(';
    bool first = true;
    for (const Term& t : a.args) {
      if (!first) out += ',';
      first = false;
      if (t.is_var()) {
        auto [it, inserted] =
            rename.emplace(t.value, static_cast<int32_t>(rename.size()));
        (void)inserted;
        out += '_';
        out += std::to_string(it->second);
      } else {
        out += std::to_string(t.value);
      }
    }
    out += ')';
  };
  add_atom(rule.head);
  out += ":-";
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0) out += ',';
    add_atom(rule.body[order[k]]);
  }
  out += '.';
  return out;
}

/// Variable-blind sort key for one body atom — the heuristic pre-order for
/// large bodies, and a symmetry-breaking starting point otherwise.
std::string AtomShape(const Program& program, const Atom& a) {
  std::string s = program.preds().Name(a.pred);
  s += '/';
  for (const Term& t : a.args) s += t.is_var() ? 'v' : 'c';
  return s;
}

}  // namespace

std::string CanonicalRuleString(const Program& program, const Rule& rule) {
  std::vector<int32_t> order(rule.body.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return AtomShape(program, rule.body[a]) < AtomShape(program, rule.body[b]);
  });
  if (rule.body.size() > kMaxPermutationBody) {
    return Render(program, rule, order);
  }
  // Lexicographically smallest rendering over all body permutations. Sorted
  // start + next_permutation enumerates every order exactly once.
  std::sort(order.begin(), order.end());
  std::string best;
  do {
    std::string r = Render(program, rule, order);
    if (best.empty() || r < best) best = std::move(r);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

std::string CanonicalProgramText(const Program& program) {
  std::vector<std::string> lines;
  lines.reserve(program.rules().size());
  for (const Rule& r : program.rules()) {
    lines.push_back(CanonicalRuleString(program, r));
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

util::Result<WrapperKey> CanonicalWrapperKey(
    const elog::ElogProgram& program,
    const std::vector<std::string>& extraction_patterns) {
  WrapperKey key;
  auto finish = [&](std::string text) {
    key.text = std::move(text);
    key.text += '\x1f';
    for (const std::string& p : extraction_patterns) {
      key.text += p;
      key.text += '\x1e';
    }
    key.fingerprint = util::HashBytes(key.text);
    return key;
  };

  if (program.UsesDeltaBuiltins()) {
    // Δ builtins are outside monadic datalog (Theorem 6.6) — no sound
    // normalization available; the wrapper's own text is the key.
    key.canonicalized = false;
    return finish(elog::ToString(program));
  }

  MD_ASSIGN_OR_RETURN(MinimizeResult minimized,
                      MinimizeWrapper(program, extraction_patterns));
  key.canonicalized = true;
  return finish(CanonicalProgramText(minimized.program));
}

util::Result<MinimizeResult> MinimizeWrapper(
    const elog::ElogProgram& program,
    const std::vector<std::string>& extraction_patterns) {
  MD_ASSIGN_OR_RETURN(Program datalog, elog::ElogToDatalog(program));
  MinimizeOptions options;
  for (const std::string& p : extraction_patterns) {
    PredId id = datalog.preds().Find(p == "root" ? p : "pat_" + p);
    if (id >= 0) options.roots.push_back(id);
  }
  return Minimize(datalog, options);
}

}  // namespace mdatalog::analysis
