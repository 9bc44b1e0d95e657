#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file tokenizer.h
/// A small, forgiving HTML scanner — the front end that turns Web page bytes
/// into the token events consumed by tree construction (parser.h). The
/// paper's whole premise is that wrappers operate on *pre-parsed* document
/// trees (Section 1); this module is that prerequisite substrate.
///
/// Supported: start/end tags, attributes (double-, single- and unquoted,
/// and bare), self-closing tags, comments, doctype, character data with
/// basic entity decoding (&amp; &lt; &gt; &quot; &apos; &nbsp; &#NN;), and
/// raw-text elements (script, style) whose content is not tokenized.
///
/// There is one scanner, Scanner. It reads the caller's bytes in place and
/// hands each token to a TokenSink as borrowed string_views — nothing is
/// copied except a lowercased name (only when it has an uppercase letter),
/// an entity-decoded value (only when it contains '&'), and a construct or
/// text run split across a Feed boundary. Batch parsing feeds the whole page
/// once; the streaming front feeds chunks. Both run the same code, so the
/// token stream cannot depend on chunking.
///
/// Tokenize() is an owning-token helper over the same scanner, for tests and
/// per-layer benchmarks.

namespace mdatalog::html {

/// One attribute of a start tag, borrowed from the scanner.
struct AttrView {
  std::string_view name;   ///< lowercased
  std::string_view value;  ///< entity-decoded
};

/// A start tag, borrowed from the scanner: valid only during the
/// TokenSink::StartTag call that receives it.
struct TagView {
  std::string_view name;  ///< lowercased
  std::span<const AttrView> attrs;
  bool self_closing = false;
};

/// Receives the token stream. Every string_view is borrowed and dies when
/// the call returns.
class TokenSink {
 public:
  virtual ~TokenSink() = default;
  virtual void StartTag(const TagView& tag) = 0;
  virtual void EndTag(std::string_view name) = 0;
  /// A non-whitespace character-data run, entity-decoded.
  virtual void Text(std::string_view text) = 0;
  virtual void Comment(std::string_view /*body*/) {}
  virtual void Doctype(std::string_view /*body*/) {}
};

/// Incremental in-place scanner: call Feed() once per arriving chunk, then
/// Finish() exactly once at end of input. Tokens reach the sink as soon as
/// the bytes that finish them arrive. A construct that straddles the chunk
/// boundary (an open tag, comment, doctype, the end tag of a raw-text
/// element) and an unfinished text run are copied aside and completed by
/// the next Feed() or by Finish(), which applies end-of-input semantics.
///
/// Never fails on malformed markup (stray '<' becomes text; an unterminated
/// tag or comment is closed at end of input). The only failure mode is the
/// optional EvalControl firing — polled once per construct or text run — in
/// which case the typed kDeadlineExceeded / kCancelled status unwinds out of
/// the scan and the scanner must not be used further.
class Scanner {
 public:
  util::Status Feed(std::string_view chunk, TokenSink* sink,
                    const util::EvalControl* control = nullptr);
  util::Status Finish(TokenSink* sink,
                      const util::EvalControl* control = nullptr);

  bool finished() const { return finished_; }

 private:
  enum class Markup {
    kStartTag,
    kEndTag,
    kComment,
    kDoctype,
    kStray,
    kNeedMore,
  };
  /// A name or value inside the current tag: either bytes of the window or
  /// bytes of scratch_ (lowercased / decoded), resolved to a view once the
  /// tag is complete and scratch_ can no longer move.
  struct Piece {
    size_t begin = 0;
    size_t size = 0;
    bool scratch = false;
  };

  /// Scans `w` from the start with the given end-of-input flag; returns
  /// the first byte not consumed. Everything before it went to the sink or
  /// into text_; the rest must be held for the next call. With `stop_at`,
  /// returns at the first construct boundary at or after that offset.
  size_t Scan(std::string_view w, bool eof, size_t stop_at, TokenSink* sink,
              util::EvalTicker* ticker);
  /// Scans the markup construct whose '<' is at w[i]. For a token, `*end`
  /// is the first byte after it and the tag or body fields are filled.
  Markup ScanMarkup(std::string_view w, size_t i, bool eof, size_t* end);
  Piece NamePiece(std::string_view w, size_t begin, size_t end);
  Piece ValuePiece(std::string_view w, size_t begin, size_t end);
  std::string_view View(std::string_view w, const Piece& p) const;
  /// Raw-text (script/style) content: finds the element's end tag in `w`
  /// from `i`. Returns the first byte after it, or npos when more input is
  /// needed (`*hold` is then where the held bytes start).
  size_t ScanRawText(std::string_view w, size_t i, bool eof, TokenSink* sink,
                     size_t* hold);
  /// Emits text_ + w[begin, end) as one text token unless it is all
  /// whitespace.
  void FlushText(std::string_view w, size_t begin, size_t end,
                 TokenSink* sink);

  std::string held_;        ///< unconsumed bytes of a split construct
  std::string text_;        ///< text run carried over from earlier windows
  std::string raw_closer_;  ///< "</name" while inside a raw-text element
  util::Status status_;     ///< why Scan() aborted
  bool finished_ = false;

  // Per-construct scratch, reused so steady-state scanning allocates nothing.
  std::string scratch_;
  Piece name_;
  std::vector<std::pair<Piece, Piece>> attr_pieces_;
  std::vector<AttrView> attrs_;
  bool self_closing_ = false;
  Piece body_;           ///< comment / doctype body
  std::string decoded_;  ///< entity-decoded text run
};

// ---------------------------------------------------------------------------
// Owning tokens (tests, per-layer benchmarks)
// ---------------------------------------------------------------------------

struct Attribute {
  std::string name;   ///< lowercased
  std::string value;  ///< entity-decoded
};

struct Token {
  enum class Type {
    kStartTag,
    kEndTag,
    kText,
    kComment,
    kDoctype,
  };
  Type type;
  std::string data;               ///< tag name (lowercased) or text payload
  std::vector<Attribute> attrs;   ///< kStartTag only
  bool self_closing = false;      ///< kStartTag only
};

/// Tokenizes HTML in one call into owning tokens. Never fails on malformed
/// markup.
std::vector<Token> Tokenize(std::string_view html);

/// Decodes the supported character entities in `text`.
std::string DecodeEntities(std::string_view text);
/// Appends DecodeEntities(text) to `out`.
void AppendDecodedEntities(std::string_view text, std::string* out);

}  // namespace mdatalog::html
