#pragma once

#include <string>
#include <vector>

#include "src/elog/ast.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file visual.h
/// Visual wrapper specification (Section 6.2), Lixto-style: the user defines
/// a wrapper from an example document mainly by "mouse clicks". Here clicks
/// are node handles; the session implements the interaction loop of the
/// paper:
///
///  1. name a destination pattern and pick a parent pattern;
///  2. the system highlights the parent pattern's instances
///     (MatchesOf);
///  3. the user selects a region inside one instance — the system infers the
///     best path π from the instance to the selected node (InferPath) and
///     generates  p(x) ← p0(x0), subelemπ(x0, x)  (SelectNode);
///  4. the rule is refined by generalizing path steps to wildcards or adding
///     conditions (GeneralizeStep / AddCondition).

namespace mdatalog::elog {

class VisualSession {
 public:
  explicit VisualSession(const tree::Tree& example) : example_(example) {}

  /// Patterns defined so far (plus the built-in "root").
  std::vector<std::string> Patterns() const;

  /// Instances of `pattern` on the example document under the program built
  /// so far — what the GUI would highlight. Replays the program's ground plan
  /// (elog::CompileGroundPlan), the engine that serves the finished wrapper.
  util::Result<std::vector<tree::NodeId>> MatchesOf(
      const std::string& pattern) const;

  /// The label path from `ancestor` (exclusive) down to `node` (inclusive).
  /// Fails unless ancestor is a proper ancestor of node.
  util::Result<ElogPath> InferPath(tree::NodeId ancestor,
                                   tree::NodeId node) const;

  /// The click: derive p(x) ← p0(x0), subelemπ(x0, x) from one example. The
  /// clicked `target` must lie strictly below `parent_instance`, which must
  /// currently match `parent_pattern`. Returns the index of the new rule.
  util::Result<int32_t> SelectNode(const std::string& new_pattern,
                                   const std::string& parent_pattern,
                                   tree::NodeId parent_instance,
                                   tree::NodeId target);

  /// Replaces step `step_index` of rule `rule_index`'s path by the wildcard
  /// "_" (the generalization move of the visual process).
  util::Status GeneralizeStep(int32_t rule_index, int32_t step_index);

  /// Adds a condition to an existing rule.
  util::Status AddCondition(int32_t rule_index, ElogCondition condition);

  const ElogProgram& program() const { return program_; }

 private:
  const tree::Tree& example_;
  ElogProgram program_;
};

}  // namespace mdatalog::elog
