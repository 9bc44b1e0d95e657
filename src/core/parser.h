#pragma once

#include <string_view>

#include "src/core/ast.h"
#include "src/util/result.h"

/// \file parser.h
/// Textual syntax for datalog programs.
///
///   % even-a query of Example 3.2 (fragment)
///   b0(X)  :- leaf(X).
///   c1(X)  :- b0(X), label_a(X).
///   r0(X0) :- c1(X0), nextsibling(X0, X), r1(X).
///
/// Lexical rules: identifiers are [A-Za-z_][A-Za-z0-9_]*; atom arguments that
/// are identifiers denote variables (scoped per rule), integer arguments
/// denote constants (tree-node ids: decimal, a '-' directly before the
/// digits, |n| <= INT32_MAX). `:-` and `<-` both separate head and body;
/// rules end with `.`; `%` and `//` start comments. A rule without a body
/// ("p(3).") is a fact and must be ground. Syntax errors are
/// kInvalidArgument "... at line L, column C" (util/text_cursor.h).

namespace mdatalog::core {

/// Parses a program. The query predicate can be set afterwards via
/// Program::set_query_pred (or use ParseProgramWithQuery).
util::Result<Program> ParseProgram(std::string_view text);

/// Parses a program and designates `query_pred` (must occur in the program).
util::Result<Program> ParseProgramWithQuery(std::string_view text,
                                            std::string_view query_pred);

}  // namespace mdatalog::core
