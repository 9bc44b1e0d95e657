#include "src/elog/visual.h"

#include <algorithm>
#include <span>

#include "src/core/grounder.h"
#include "src/elog/to_datalog.h"

namespace mdatalog::elog {

std::vector<std::string> VisualSession::Patterns() const {
  std::vector<std::string> out = {"root"};
  std::vector<std::string> defined = program_.Patterns();
  out.insert(out.end(), defined.begin(), defined.end());
  return out;
}

util::Result<std::vector<tree::NodeId>> VisualSession::MatchesOf(
    const std::string& pattern) const {
  if (pattern == "root") {
    return std::vector<tree::NodeId>{example_.root()};
  }
  // The session program changes with every click, so each query compiles it
  // afresh; the plan replays in O(|P|·|dom|) on the example document.
  MD_ASSIGN_OR_RETURN(ElogGroundPlan compiled,
                      CompileGroundPlan(program_, std::span(&pattern, 1)));
  if (compiled.pattern_preds[0] < 0) return std::vector<tree::NodeId>{};
  MD_ASSIGN_OR_RETURN(core::EvalResult eval,
                      core::EvaluateGrounded(compiled.plan, example_));
  return eval.Unary(compiled.pattern_preds[0]);
}

util::Result<ElogPath> VisualSession::InferPath(tree::NodeId ancestor,
                                                tree::NodeId node) const {
  if (!example_.IsAncestor(ancestor, node)) {
    return util::Status::InvalidArgument(
        "selected node is not inside the parent instance");
  }
  std::vector<std::string> reversed;
  for (tree::NodeId cur = node; cur != ancestor; cur = example_.parent(cur)) {
    reversed.push_back(example_.label_name(cur));
  }
  ElogPath path;
  path.steps.assign(reversed.rbegin(), reversed.rend());
  return path;
}

util::Result<int32_t> VisualSession::SelectNode(
    const std::string& new_pattern, const std::string& parent_pattern,
    tree::NodeId parent_instance, tree::NodeId target) {
  MD_ASSIGN_OR_RETURN(std::vector<tree::NodeId> instances,
                      MatchesOf(parent_pattern));
  if (!std::binary_search(instances.begin(), instances.end(),
                          parent_instance)) {
    return util::Status::InvalidArgument(
        "the chosen node is not an instance of the parent pattern");
  }
  MD_ASSIGN_OR_RETURN(ElogPath path, InferPath(parent_instance, target));
  program_.AddRule(ElogRule{.head_pattern = new_pattern,
                            .head_var = "X",
                            .parent_pattern = parent_pattern,
                            .parent_var = "X0",
                            .subelem = std::move(path),
                            .conditions = {}});
  return static_cast<int32_t>(program_.rules().size()) - 1;
}

util::Status VisualSession::GeneralizeStep(int32_t rule_index,
                                           int32_t step_index) {
  if (rule_index < 0 ||
      rule_index >= static_cast<int32_t>(program_.rules().size())) {
    return util::Status::InvalidArgument("rule index out of range");
  }
  ElogRule& rule = program_.mutable_rules()[rule_index];
  if (step_index < 0 ||
      step_index >= static_cast<int32_t>(rule.subelem.steps.size())) {
    return util::Status::InvalidArgument("step index out of range");
  }
  // Assigned from a std::string: GCC 12 at -O3 reports a false -Wrestrict
  // for a literal assignment here.
  rule.subelem.steps[step_index] = std::string("_");
  return util::Status::OK();
}

util::Status VisualSession::AddCondition(int32_t rule_index,
                                         ElogCondition condition) {
  if (rule_index < 0 ||
      rule_index >= static_cast<int32_t>(program_.rules().size())) {
    return util::Status::InvalidArgument("rule index out of range");
  }
  program_.mutable_rules()[rule_index].conditions.push_back(
      std::move(condition));
  return ValidateElog(program_);
}

}  // namespace mdatalog::elog
