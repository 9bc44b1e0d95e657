#pragma once

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

/// \file text_cursor.h
/// The one lexer of the five text languages src/ parses (datalog, Elog⁻,
/// Core XPath, MSO, caterpillar expressions). A TextCursor is the text and a
/// position in it. Every read skips whitespace first, and with
/// `line_comments` also `%` and `//` comments to the end of the line. Errors
/// are kInvalidArgument and name the line and column of the position.
///
/// The recursive productions of the parsers call Enter before they descend
/// and Leave after; past kMaxNesting levels Enter fails. That bounds the
/// parsers' recursion and every later recursion over the ASTs they build
/// (printing, compiling), whatever the input.

namespace mdatalog::util {

class TextCursor {
 public:
  /// The deepest nesting a parsed text may have.
  static constexpr int32_t kMaxNesting = 256;

  explicit TextCursor(std::string_view text, bool line_comments = false)
      : text_(text), line_comments_(line_comments) {}

  /// The text from the position on, nothing skipped.
  std::string_view rest() const { return text_.substr(pos_); }
  /// Moves the position `n` bytes on; `n` <= rest().size().
  void Advance(size_t n) { pos_ += n; }

  void Skip() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (line_comments_ &&
                 (c == '%' || rest().starts_with("//"))) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  /// True iff only whitespace (and comments) is left.
  bool AtEnd() {
    Skip();
    return pos_ == text_.size();
  }

  /// The next character, or '\0' at the end.
  char PeekChar() {
    Skip();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool Peek(std::string_view lit) {
    Skip();
    return rest().starts_with(lit);
  }

  bool Consume(std::string_view lit) {
    if (!Peek(lit)) return false;
    pos_ += lit.size();
    return true;
  }

  Status Expect(std::string_view lit) {
    if (Consume(lit)) return Status::OK();
    return Error("expected '" + std::string(lit) + "'");
  }

  /// Consumes `word` unless it is the prefix of a longer identifier.
  bool ConsumeWord(std::string_view word) {
    if (!Peek(word)) return false;
    const size_t after = pos_ + word.size();
    if (after < text_.size() && IsIdentifierChar(text_[after])) return false;
    pos_ = after;
    return true;
  }

  static bool IsIdentifierChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsDigit(char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  }

  /// An identifier: [A-Za-z0-9_]+.
  Status Identifier(std::string* out) {
    Skip();
    const size_t start = pos_;
    while (pos_ < text_.size() && IsIdentifierChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected identifier");
    out->assign(text_.substr(start, pos_ - start));
    return Status::OK();
  }

  /// An unsigned decimal integer no larger than INT32_MAX.
  Status Int32(int32_t* out) {
    if (!IsDigit(PeekChar())) return Error("expected integer");
    int64_t value = 0;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) {
      value = value * 10 + (text_[pos_] - '0');
      if (value > INT32_MAX) return Error("integer constant too large");
      ++pos_;
    }
    *out = static_cast<int32_t>(value);
    return Status::OK();
  }

  /// A double-quoted string without escapes; `what` names it in errors.
  Status Quoted(std::string_view what, std::string* out) {
    if (!Consume("\"")) return Error("expected quoted " + std::string(what));
    const size_t close = text_.find('"', pos_);
    if (close == std::string_view::npos) {
      return Error("unterminated quoted " + std::string(what));
    }
    out->assign(text_.substr(pos_, close - pos_));
    pos_ = close + 1;
    return Status::OK();
  }

  /// Descends into a recursive production.
  Status Enter() { return CheckNesting(++depth_); }
  void Leave() { --depth_; }
  /// kInvalidArgument iff `depth` exceeds kMaxNesting.
  Status CheckNesting(int32_t depth) const {
    if (depth <= kMaxNesting) return Status::OK();
    return Error("nesting deeper than " + std::to_string(kMaxNesting) +
                 " levels");
  }

  /// "`msg` at line L, column C" for the position (1-based; C counts bytes).
  Status Error(std::string_view msg) const {
    int32_t line = 1, column = 1;
    for (size_t i = 0; i < pos_; ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    return Status::InvalidArgument(std::string(msg) + " at line " +
                                   std::to_string(line) + ", column " +
                                   std::to_string(column));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  bool line_comments_;
  int32_t depth_ = 0;
};

}  // namespace mdatalog::util
