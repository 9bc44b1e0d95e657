#include "src/core/parser.h"

#include <map>

#include "src/util/text_cursor.h"

namespace mdatalog::core {

namespace {

/// Hand-written recursive-descent parser; no exceptions, explicit Status.
class Parser {
 public:
  explicit Parser(std::string_view text) : cur_(text, /*line_comments=*/true) {}

  util::Result<Program> Parse() {
    Program program;
    while (!cur_.AtEnd()) MD_RETURN_NOT_OK(ParseRule(&program));
    return program;
  }

 private:
  util::Status ParseRule(Program* program) {
    std::map<std::string, VarId> vars;
    std::vector<std::string> var_names;
    Atom head;
    MD_RETURN_NOT_OK(ParseAtom(program, &vars, &var_names, &head));
    std::vector<Atom> body;
    if (cur_.Consume(":-") || cur_.Consume("<-")) {
      do {
        Atom atom;
        MD_RETURN_NOT_OK(ParseAtom(program, &vars, &var_names, &atom));
        body.push_back(std::move(atom));
      } while (cur_.Consume(","));
    }
    if (!cur_.Consume(".")) {
      return cur_.Error("expected '.' at end of rule");
    }
    Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    rule.var_names = std::move(var_names);
    program->AddRule(std::move(rule));
    return util::Status::OK();
  }

  util::Status ParseAtom(Program* program, std::map<std::string, VarId>* vars,
                         std::vector<std::string>* var_names, Atom* out) {
    // A digit starts a constant, never a name.
    if (util::TextCursor::IsDigit(cur_.PeekChar())) {
      return cur_.Error("expected identifier");
    }
    std::string name;
    MD_RETURN_NOT_OK(cur_.Identifier(&name));
    std::vector<Term> args;
    if (cur_.Consume("(")) {
      while (true) {
        const char c = cur_.PeekChar();
        if (util::TextCursor::IsDigit(c) || c == '-') {
          const bool negative = cur_.Consume("-");
          // The sign is part of the number: no space after it.
          if (negative && !cur_.rest().empty() &&
              !util::TextCursor::IsDigit(cur_.rest()[0])) {
            return cur_.Error("expected integer");
          }
          int32_t value = 0;
          MD_RETURN_NOT_OK(cur_.Int32(&value));
          args.push_back(Term::Const(negative ? -value : value));
        } else {
          std::string var;
          MD_RETURN_NOT_OK(cur_.Identifier(&var));
          auto it = vars->find(var);
          VarId id;
          if (it == vars->end()) {
            id = static_cast<VarId>(var_names->size());
            vars->emplace(var, id);
            var_names->push_back(var);
          } else {
            id = it->second;
          }
          args.push_back(Term::Var(id));
        }
        if (cur_.Consume(",")) continue;
        if (cur_.Consume(")")) break;
        return cur_.Error("expected ',' or ')' in argument list");
      }
    }
    auto pred = program->preds().Intern(name, static_cast<int32_t>(args.size()));
    if (!pred.ok()) return pred.status();
    out->pred = *pred;
    out->args = std::move(args);
    return util::Status::OK();
  }

  util::TextCursor cur_;
};

}  // namespace

util::Result<Program> ParseProgram(std::string_view text) {
  return Parser(text).Parse();
}

util::Result<Program> ParseProgramWithQuery(std::string_view text,
                                            std::string_view query_pred) {
  MD_ASSIGN_OR_RETURN(Program program, ParseProgram(text));
  PredId q = program.preds().Find(query_pred);
  if (q < 0) {
    return util::Status::NotFound("query predicate '" +
                                  std::string(query_pred) +
                                  "' does not occur in the program");
  }
  program.set_query_pred(q);
  return program;
}

}  // namespace mdatalog::core
