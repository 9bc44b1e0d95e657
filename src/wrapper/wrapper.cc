#include "src/wrapper/wrapper.h"

#include <bit>
#include <utility>

#include "src/core/grounder.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/tree/serialize.h"
#include "src/util/check.h"

namespace mdatalog::wrapper {

using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

util::Result<Wrapper> ParseWrapperText(std::string_view text) {
  Wrapper w;
  // Pull out "%! extract: a, b" directive lines before handing the whole
  // text (directives included — they are comments) to the Elog parser.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    size_t at = line.find_first_not_of(" \t");
    if (at == std::string_view::npos) continue;
    line.remove_prefix(at);
    constexpr std::string_view kDirective = "%! extract:";
    if (line.substr(0, kDirective.size()) != kDirective) continue;
    line.remove_prefix(kDirective.size());
    // Comma-separated pattern names.
    while (!line.empty()) {
      size_t comma = line.find(',');
      std::string_view name = line.substr(0, comma);
      line.remove_prefix(comma == std::string_view::npos ? line.size()
                                                         : comma + 1);
      size_t b = name.find_first_not_of(" \t\r");
      if (b == std::string_view::npos) continue;
      size_t e = name.find_last_not_of(" \t\r");
      w.extraction_patterns.emplace_back(name.substr(b, e - b + 1));
    }
  }
  MD_ASSIGN_OR_RETURN(w.program, elog::ParseElog(text));
  if (w.extraction_patterns.empty()) {
    w.extraction_patterns = w.program.Patterns();
  }
  return w;
}

void WriteXml(const std::vector<std::string>& extraction_patterns,
              std::span<const core::NodeSet* const> sets, const Tree& t,
              std::string* out, int32_t shift) {
  MD_CHECK(sets.size() == extraction_patterns.size());
  const NodeId num_nodes = t.size();
  const Tree::Columns col = t.columns();
  const size_t words = (extraction_patterns.size() + 63) / 64;
  // Bit i % 64 of row n's word i / 64: pattern i selects node n.
  std::vector<uint64_t> mask(static_cast<size_t>(num_nodes) * words, 0);
  const auto row = [&](NodeId n) {
    return mask.data() + static_cast<size_t>(n) * words;
  };
  // kBelow: some proper descendant is selected. An output node is a leaf iff
  // it is the innermost pattern on its input node and nothing below is
  // selected; leaves carry the input subtree's text.
  constexpr uint8_t kSelected = 1, kBelow = 2;
  std::vector<uint8_t> marks(static_cast<size_t>(num_nodes), 0);
  for (size_t pi = 0; pi < sets.size(); ++pi) {
    if (sets[pi] == nullptr) continue;
    const uint64_t bit = uint64_t{1} << (pi % 64);
    sets[pi]->ForEach([&](int32_t member) {
      const NodeId n = member - shift;
      if (n < 0 || n >= num_nodes) return;
      row(n)[pi / 64] |= bit;
      marks[n] = kSelected;
    });
  }
  size_t selected = 0;
  for (NodeId n = num_nodes - 1; n > 0; --n) {
    if (marks[n] == 0) continue;
    MD_DCHECK(col.parent[n] < n);
    marks[col.parent[n]] |= kBelow;
    selected += marks[n] & kSelected;
  }

  size_t depth = 1;  // open output elements, "result" included
  const auto open = [&](const std::string& name) {
    out->append(depth * 2, ' ');
    out->push_back('<');
    out->append(name);
    out->push_back('>');
  };
  const auto close = [&](const std::string& name) {
    out->append("</", 2);
    out->append(name);
    out->append(">\n", 2);
  };
  // The last pattern selecting `n`, whose element is innermost.
  const auto innermost = [&](NodeId n) {
    const uint64_t* r = row(n);
    size_t w = words - 1;
    while (r[w] == 0) --w;
    return w * 64 + static_cast<size_t>(63 - std::countl_zero(r[w]));
  };
  // The first marked node among `n` and its following siblings.
  const auto next_marked = [&](NodeId n) {
    while (n != kNoNode && marks[n] == 0) n = col.next_sibling[n];
    return n;
  };

  // About one indented line per selected node; texts may still grow it.
  out->reserve(out->size() + 32 + 48 * selected);
  out->append("<result>");
  if (marks[0] == 0) {
    out->append("</result>\n");
    return;
  }
  out->push_back('\n');
  for (NodeId m = 0;;) {
    if (marks[m] & kSelected) {
      const size_t inner = innermost(m);
      const uint64_t* r = row(m);
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t bits = r[w]; bits != 0; bits &= bits - 1) {
          const size_t pi =
              w * 64 + static_cast<size_t>(std::countr_zero(bits));
          open(extraction_patterns[pi]);
          if (pi == inner && !(marks[m] & kBelow)) {
            tree::WalkSubtree(
                t, m, [&](NodeId d) { tree::AppendXmlEscaped(out, t.text(d)); },
                [](NodeId) {});
            close(extraction_patterns[pi]);
          } else {
            out->push_back('\n');
            ++depth;
          }
        }
      }
    }
    if (marks[m] & kBelow) {
      m = next_marked(col.first_child[m]);
      continue;
    }
    for (;;) {
      if (marks[m] & kSelected) {
        // Close in reverse pattern order; a leaf closed itself above.
        const size_t inner = innermost(m);
        const uint64_t* r = row(m);
        for (size_t w = words; w-- > 0;) {
          for (uint64_t bits = r[w]; bits != 0;) {
            const int b = 63 - std::countl_zero(bits);
            bits &= ~(uint64_t{1} << b);
            const size_t pi = w * 64 + static_cast<size_t>(b);
            if (pi == inner && !(marks[m] & kBelow)) continue;
            --depth;
            out->append(depth * 2, ' ');
            close(extraction_patterns[pi]);
          }
        }
      }
      if (m == 0) {
        out->append("</result>\n");
        return;
      }
      if (const NodeId s = next_marked(col.next_sibling[m]); s != kNoNode) {
        m = s;
        break;
      }
      m = col.parent[m];
    }
  }
}

Tree BuildOutputTree(const std::vector<std::string>& extraction_patterns,
                     const elog::ElogResult& matches, const Tree& t) {
  // Patterns per node, in extraction-pattern order.
  std::vector<std::vector<int32_t>> patterns_of(t.size());
  for (size_t pi = 0; pi < extraction_patterns.size(); ++pi) {
    for (NodeId n : matches.Of(extraction_patterns[pi])) {
      patterns_of[n].push_back(static_cast<int32_t>(pi));
    }
  }

  // marked_below[n]: some proper descendant of n is selected. An output node
  // is a leaf iff it is the innermost pattern on its input node and nothing
  // below is selected; leaves carry the input subtree's text.
  std::vector<bool> marked_below(t.size(), false);
  tree::WalkSubtree(
      t, t.root(), [](NodeId) {},
      [&](NodeId n) {
        if (n != t.root() && (marked_below[n] || !patterns_of[n].empty())) {
          marked_below[t.parent(n)] = true;
        }
      });

  tree::TreeBuilder builder;
  NodeId out_root = builder.Root("result");
  std::vector<NodeId> parent_stack = {out_root};
  tree::WalkSubtree(
      t, t.root(),
      [&](NodeId n) {
        for (size_t i = 0; i < patterns_of[n].size(); ++i) {
          int32_t pi = patterns_of[n][i];
          NodeId built =
              builder.Child(parent_stack.back(), extraction_patterns[pi]);
          bool innermost = (i + 1 == patterns_of[n].size());
          if (innermost && !marked_below[n]) {
            builder.SetText(built, t.SubtreeText(n));
          }
          parent_stack.push_back(built);
        }
      },
      [&](NodeId n) {
        parent_stack.resize(parent_stack.size() - patterns_of[n].size());
      });
  return builder.Build();
}

util::Result<std::string> WrapTree(const Wrapper& wrapper, const Tree& t,
                                   const util::EvalControl* control) {
  MD_ASSIGN_OR_RETURN(
      elog::ElogGroundPlan compiled,
      elog::CompileGroundPlan(wrapper.program, wrapper.extraction_patterns));
  MD_ASSIGN_OR_RETURN(
      core::EvalResult eval,
      core::EvaluateGrounded(compiled.plan, t, nullptr, nullptr, control));
  std::vector<const core::NodeSet*> sets;
  sets.reserve(compiled.pattern_preds.size());
  for (const core::PredId pred : compiled.pattern_preds) {
    sets.push_back(eval.UnarySet(pred));
  }
  std::string xml;
  WriteXml(wrapper.extraction_patterns, sets, t, &xml);
  return xml;
}

util::Result<std::string> WrapHtmlToXml(const Wrapper& wrapper,
                                        std::string_view html) {
  MD_ASSIGN_OR_RETURN(Tree t, html::ParseTree(html));
  return WrapTree(wrapper, t);
}

}  // namespace mdatalog::wrapper
