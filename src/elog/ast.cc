#include "src/elog/ast.h"

#include <map>
#include <set>

#include "src/util/check.h"
#include "src/util/text_cursor.h"

namespace mdatalog::elog {

util::Result<ElogPath> ElogPath::Parse(const std::string& text) {
  ElogPath path;
  if (text.empty()) return path;
  std::string step;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      if (step.empty()) {
        return util::Status::InvalidArgument("empty step in path '" + text +
                                             "'");
      }
      path.steps.push_back(step);
      step.clear();
    } else {
      step += text[i];
    }
  }
  return path;
}

std::string ElogPath::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += '.';
    out += steps[i];
  }
  return out;
}

std::vector<std::string> ElogProgram::Patterns() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const ElogRule& r : rules_) {
    if (seen.insert(r.head_pattern).second) out.push_back(r.head_pattern);
  }
  return out;
}

bool ElogProgram::UsesDeltaBuiltins() const {
  for (const ElogRule& r : rules_) {
    for (const ElogCondition& c : r.conditions) {
      if (c.kind == ElogCondition::Kind::kBefore ||
          c.kind == ElogCondition::Kind::kNotAfter ||
          c.kind == ElogCondition::Kind::kNotBefore) {
        return true;
      }
    }
  }
  return false;
}

util::Status ValidateElog(const ElogProgram& program) {
  for (const ElogRule& r : program.rules()) {
    if (r.head_pattern == "root") {
      return util::Status::InvalidArgument(
          "'root' is reserved for the root pattern");
    }
    if (r.is_specialization() && r.head_var != r.parent_var) {
      return util::Status::InvalidArgument(
          "specialization rule must reuse the parent variable: " +
          ToString(r));
    }
    if (!r.is_specialization() && r.head_var == r.parent_var) {
      return util::Status::InvalidArgument(
          "subelem target must be a fresh variable: " + ToString(r));
    }
    // Connectivity: every variable must be reachable from the parent/head
    // variables through condition atoms (Definition 6.2 requires a
    // connected query graph).
    std::set<std::string> reachable = {r.parent_var, r.head_var};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const ElogCondition& c : r.conditions) {
        std::vector<std::string> vars = {c.var1};
        if (!c.var2.empty()) vars.push_back(c.var2);
        if (!c.var3.empty()) vars.push_back(c.var3);
        bool any = false;
        for (const std::string& v : vars) any |= reachable.count(v) > 0;
        if (any) {
          for (const std::string& v : vars) {
            if (reachable.insert(v).second) grew = true;
          }
        }
      }
    }
    for (const ElogCondition& c : r.conditions) {
      if (c.kind == ElogCondition::Kind::kContains && c.path.empty()) {
        return util::Status::InvalidArgument(
            "contains requires a non-ε path: " + ToString(r));
      }
      std::vector<std::string> vars = {c.var1};
      if (!c.var2.empty()) vars.push_back(c.var2);
      if (!c.var3.empty()) vars.push_back(c.var3);
      for (const std::string& v : vars) {
        if (reachable.count(v) == 0) {
          return util::Status::InvalidArgument(
              "disconnected variable '" + v + "' in rule: " + ToString(r));
        }
      }
    }
  }
  return util::Status::OK();
}

namespace {

std::string ConditionToString(const ElogCondition& c) {
  using K = ElogCondition::Kind;
  switch (c.kind) {
    case K::kLeaf: return "leaf(" + c.var1 + ")";
    case K::kFirstSibling: return "firstsibling(" + c.var1 + ")";
    case K::kLastSibling: return "lastsibling(" + c.var1 + ")";
    case K::kNextSibling:
      return "nextsibling(" + c.var1 + ", " + c.var2 + ")";
    case K::kContains:
      return "contains(" + c.var1 + ", \"" + c.path.ToString() + "\", " +
             c.var2 + ")";
    case K::kPatternRef: return c.pattern + "(" + c.var1 + ")";
    case K::kBefore:
      return "before(" + c.var1 + ", \"" + c.path.ToString() + "\", " +
             c.var2 + ", " + c.var3 + ", " + std::to_string(c.alpha_pct) +
             ", " + std::to_string(c.beta_pct) + ")";
    case K::kNotAfter:
      return "notafter(" + c.var1 + ", \"" + c.path.ToString() + "\", " +
             c.var2 + ")";
    case K::kNotBefore:
      return "notbefore(" + c.var1 + ", \"" + c.path.ToString() + "\", " +
             c.var2 + ")";
  }
  return "?";
}

}  // namespace

std::string ToString(const ElogRule& r) {
  std::string out = r.head_pattern + "(" + r.head_var + ") <- " +
                    r.parent_pattern + "(" + r.parent_var + ")";
  if (!r.is_specialization()) {
    out += ", subelem(" + r.parent_var + ", \"" + r.subelem.ToString() +
           "\", " + r.head_var + ")";
  }
  for (const ElogCondition& c : r.conditions) {
    out += ", " + ConditionToString(c);
  }
  out += ".";
  return out;
}

std::string ToString(const ElogProgram& program) {
  std::string out;
  for (const ElogRule& r : program.rules()) {
    out += ToString(r);
    out += '\n';
  }
  return out;
}

// --- parser -----------------------------------------------------------------

namespace {

class ElogParser {
 public:
  explicit ElogParser(std::string_view text)
      : cur_(text, /*line_comments=*/true) {}

  util::Result<ElogProgram> Parse() {
    ElogProgram program;
    while (!cur_.AtEnd()) MD_RETURN_NOT_OK(ParseRule(&program));
    MD_RETURN_NOT_OK(ValidateElog(program));
    return program;
  }

 private:
  util::Status ParseRule(ElogProgram* program) {
    ElogRule rule;
    MD_RETURN_NOT_OK(cur_.Identifier(&rule.head_pattern));
    MD_RETURN_NOT_OK(cur_.Expect("("));
    MD_RETURN_NOT_OK(cur_.Identifier(&rule.head_var));
    MD_RETURN_NOT_OK(cur_.Expect(")"));
    if (!cur_.Consume("<-") && !cur_.Consume(":-")) {
      return cur_.Error("expected '<-'");
    }
    // Parent pattern atom.
    MD_RETURN_NOT_OK(cur_.Identifier(&rule.parent_pattern));
    MD_RETURN_NOT_OK(cur_.Expect("("));
    MD_RETURN_NOT_OK(cur_.Identifier(&rule.parent_var));
    MD_RETURN_NOT_OK(cur_.Expect(")"));

    bool saw_subelem = false;
    while (cur_.Consume(",")) {
      std::string word;
      MD_RETURN_NOT_OK(cur_.Identifier(&word));
      MD_RETURN_NOT_OK(cur_.Expect("("));
      if (word == "subelem") {
        if (saw_subelem) return cur_.Error("duplicate subelem atom");
        saw_subelem = true;
        std::string src, path_text, dst;
        MD_RETURN_NOT_OK(cur_.Identifier(&src));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Quoted("path", &path_text));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Identifier(&dst));
        MD_RETURN_NOT_OK(cur_.Expect(")"));
        if (src != rule.parent_var || dst != rule.head_var) {
          return cur_.Error(
              "subelem must go from the parent variable to the head variable");
        }
        MD_ASSIGN_OR_RETURN(rule.subelem, ElogPath::Parse(path_text));
        continue;
      }
      ElogCondition c;
      using K = ElogCondition::Kind;
      if (word == "leaf" || word == "firstsibling" || word == "lastsibling") {
        c.kind = word == "leaf" ? K::kLeaf
                 : word == "firstsibling" ? K::kFirstSibling
                                          : K::kLastSibling;
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var1));
      } else if (word == "nextsibling") {
        c.kind = K::kNextSibling;
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var1));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var2));
      } else if (word == "contains" || word == "notafter" ||
                 word == "notbefore") {
        c.kind = word == "contains" ? K::kContains
                 : word == "notafter" ? K::kNotAfter
                                      : K::kNotBefore;
        std::string path_text;
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var1));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Quoted("path", &path_text));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var2));
        MD_ASSIGN_OR_RETURN(c.path, ElogPath::Parse(path_text));
      } else if (word == "before") {
        c.kind = K::kBefore;
        std::string path_text;
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var1));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Quoted("path", &path_text));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var2));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var3));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Int32(&c.alpha_pct));
        MD_RETURN_NOT_OK(cur_.Expect(","));
        MD_RETURN_NOT_OK(cur_.Int32(&c.beta_pct));
        MD_ASSIGN_OR_RETURN(c.path, ElogPath::Parse(path_text));
      } else {
        // Pattern reference.
        c.kind = K::kPatternRef;
        c.pattern = word;
        MD_RETURN_NOT_OK(cur_.Identifier(&c.var1));
      }
      MD_RETURN_NOT_OK(cur_.Expect(")"));
      rule.conditions.push_back(std::move(c));
    }
    MD_RETURN_NOT_OK(cur_.Expect("."));
    program->AddRule(std::move(rule));
    return util::Status::OK();
  }

  util::TextCursor cur_;
};

}  // namespace

util::Result<ElogProgram> ParseElog(std::string_view text) {
  return ElogParser(text).Parse();
}

}  // namespace mdatalog::elog
