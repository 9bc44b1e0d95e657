#include "src/wrapper/wrapper.h"

#include <utility>

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
  MD_RETURN_NOT_OK(elog::ValidateElog(w.program));
  if (w.extraction_patterns.empty()) {
    w.extraction_patterns = w.program.Patterns();
  }
  return w;
}

util::Result<PreparedWrapper> PreparedWrapper::Prepare(const Wrapper& w) {
  MD_ASSIGN_OR_RETURN(elog::PreparedElogProgram prepared,
                      elog::PreparedElogProgram::Prepare(w.program));
  return PreparedWrapper{std::move(prepared), w.extraction_patterns};
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

util::Result<Tree> WrapTree(const Wrapper& wrapper, const Tree& t,
                            const util::EvalControl* control) {
  MD_ASSIGN_OR_RETURN(
      elog::ElogResult result,
      elog::EvaluateElog(wrapper.program, t, elog::kDefaultMaxDerivations,
                         control));
  return BuildOutputTree(wrapper.extraction_patterns, result, t);
}

util::Result<Tree> WrapTree(const PreparedWrapper& wrapper, const Tree& t,
                            const util::EvalControl* control) {
  MD_ASSIGN_OR_RETURN(
      elog::ElogResult result,
      elog::EvaluateElog(wrapper.program, t, elog::kDefaultMaxDerivations,
                         control));
  return BuildOutputTree(wrapper.extraction_patterns, result, t);
}

util::Result<std::string> WrapHtmlToXml(const Wrapper& wrapper,
                                        std::string_view html) {
  MD_ASSIGN_OR_RETURN(Tree t, html::ParseTree(html));
  MD_ASSIGN_OR_RETURN(Tree out, WrapTree(wrapper, t));
  return tree::ToXml(out);
}

}  // namespace mdatalog::wrapper
