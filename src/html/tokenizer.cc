#include "src/html/tokenizer.h"

#include <algorithm>
#include <cstring>

namespace mdatalog::html {

namespace {

constexpr size_t kNpos = std::string_view::npos;

// ASCII classes, exactly the C-locale <cctype> predicates.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsNameChar(char c) {
  return IsAlpha(c) || (c >= '0' && c <= '9') || c == '-' || c == '_' ||
         c == ':';
}
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }

bool AllSpace(std::string_view s) {
  for (char c : s) {
    if (!IsSpace(c)) return false;
  }
  return true;
}

size_t FindByte(std::string_view w, size_t from, char c) {
  if (from >= w.size()) return kNpos;
  const void* hit = std::memchr(w.data() + from, c, w.size() - from);
  return hit == nullptr ? kNpos : static_cast<const char*>(hit) - w.data();
}

/// Converts borrowed tokens into owning ones.
class TokenCollector final : public TokenSink {
 public:
  explicit TokenCollector(std::vector<Token>* out) : out_(out) {}

  void StartTag(const TagView& tag) override {
    Token t{Token::Type::kStartTag, std::string(tag.name), {},
            tag.self_closing};
    t.attrs.reserve(tag.attrs.size());
    for (const AttrView& a : tag.attrs) {
      t.attrs.push_back({std::string(a.name), std::string(a.value)});
    }
    out_->push_back(std::move(t));
  }
  void EndTag(std::string_view name) override {
    Add(Token::Type::kEndTag, name);
  }
  void Text(std::string_view text) override { Add(Token::Type::kText, text); }
  void Comment(std::string_view body) override {
    Add(Token::Type::kComment, body);
  }
  void Doctype(std::string_view body) override {
    Add(Token::Type::kDoctype, body);
  }

 private:
  void Add(Token::Type type, std::string_view data) {
    out_->push_back({type, std::string(data), {}, false});
  }

  std::vector<Token>* out_;
};

}  // namespace

Scanner::Piece Scanner::NamePiece(std::string_view w, size_t begin,
                                  size_t end) {
  bool upper = false;
  for (size_t k = begin; k < end && !upper; ++k) upper = IsUpper(w[k]);
  if (!upper) return {begin, end - begin, false};
  const size_t at = scratch_.size();
  for (size_t k = begin; k < end; ++k) {
    const char c = w[k];
    scratch_ += IsUpper(c) ? static_cast<char>(c - 'A' + 'a') : c;
  }
  return {at, end - begin, true};
}

Scanner::Piece Scanner::ValuePiece(std::string_view w, size_t begin,
                                   size_t end) {
  const std::string_view value = w.substr(begin, end - begin);
  if (value.find('&') == kNpos) return {begin, end - begin, false};
  const size_t at = scratch_.size();
  AppendDecodedEntities(value, &scratch_);
  return {at, scratch_.size() - at, true};
}

std::string_view Scanner::View(std::string_view w, const Piece& p) const {
  return p.scratch ? std::string_view(scratch_).substr(p.begin, p.size)
                   : w.substr(p.begin, p.size);
}

/// kNeedMore (never with eof) means the construct straddles the end of the
/// window and must wait for more bytes — the next Feed rescans it from
/// scratch, which keeps every decision identical to one scan over the whole
/// document. With eof, unterminated constructs close at the end of the
/// window.
Scanner::Markup Scanner::ScanMarkup(std::string_view w, size_t i, bool eof,
                                    size_t* end) {
  const size_t len = w.size();
  size_t p = i + 1;  // past '<'
  if (p >= len) return eof ? Markup::kStray : Markup::kNeedMore;
  if (w[p] == '!') {
    // "<!" or "<!-" at the window edge could still grow into "<!--".
    if (!eof && len - p < 3 &&
        w.substr(p) == std::string_view("!--").substr(0, len - p)) {
      return Markup::kNeedMore;
    }
    if (w.substr(p, 3) == "!--") {
      const size_t close = w.find("-->", p + 3);
      if (close == kNpos && !eof) return Markup::kNeedMore;
      const size_t body_end = close == kNpos ? len : close;
      body_ = {p + 3, body_end - (p + 3), false};
      *end = close == kNpos ? len : close + 3;
      return Markup::kComment;
    }
    // Doctype or other declaration.
    const size_t close = FindByte(w, p, '>');
    if (close == kNpos && !eof) return Markup::kNeedMore;
    const size_t body_end = close == kNpos ? len : close;
    body_ = {p + 1, body_end - (p + 1), false};
    *end = close == kNpos ? len : close + 1;
    return Markup::kDoctype;
  }
  const bool closing = w[p] == '/';
  if (closing) ++p;
  if (p >= len) return eof ? Markup::kStray : Markup::kNeedMore;
  if (!IsAlpha(w[p])) return Markup::kStray;

  scratch_.clear();
  attr_pieces_.clear();
  self_closing_ = false;
  const size_t name_start = p;
  while (p < len && IsNameChar(w[p])) ++p;
  name_ = NamePiece(w, name_start, p);

  // Attributes. Any scan that runs off the end of the window before the
  // closing '>' falls out of this loop with p == len, which is exactly the
  // end-of-input state — held back below unless eof. End tags scan their
  // attributes the same way but keep none.
  while (p < len && w[p] != '>') {
    if (IsSpace(w[p])) {
      ++p;
      continue;
    }
    if (w[p] == '/' && p + 1 < len && w[p + 1] == '>') {
      self_closing_ = true;
      ++p;
      continue;
    }
    if (!IsAlpha(w[p])) {
      ++p;  // skip junk
      continue;
    }
    const size_t attr_start = p;
    while (p < len && IsNameChar(w[p])) ++p;
    const size_t attr_end = p;
    size_t value_start = p, value_end = p;
    while (p < len && IsSpace(w[p])) ++p;
    if (p < len && w[p] == '=') {
      ++p;
      while (p < len && IsSpace(w[p])) ++p;
      if (p < len && (w[p] == '"' || w[p] == '\'')) {
        const char quote = w[p++];
        value_start = p;
        p = FindByte(w, p, quote);
        if (p == kNpos) p = len;
        value_end = p;
        if (p < len) ++p;  // closing quote
      } else {
        value_start = p;
        while (p < len && w[p] != '>' && !IsSpace(w[p])) ++p;
        value_end = p;
      }
    }
    if (!closing) {
      attr_pieces_.emplace_back(NamePiece(w, attr_start, attr_end),
                                ValuePiece(w, value_start, value_end));
    }
  }
  if (p >= len && !eof) return Markup::kNeedMore;  // tag split by the edge
  if (p < len) ++p;  // consume '>'
  *end = p;
  return closing ? Markup::kEndTag : Markup::kStartTag;
}

size_t Scanner::ScanRawText(std::string_view w, size_t i, bool eof,
                            TokenSink* sink, size_t* hold) {
  const size_t e = w.find(raw_closer_, i);
  if (e == kNpos) {
    if (!eof) {
      // The swallowed content is dropped; only the longest possible prefix
      // of the closer at the window edge is held.
      const size_t keep = raw_closer_.size() - 1;
      *hold = w.size() - std::min(w.size() - i, keep);
      return kNpos;
    }
    // The closer never appears: content runs to end of input, no end tag.
    raw_closer_.clear();
    return w.size();
  }
  const size_t gt = FindByte(w, e, '>');
  if (gt == kNpos && !eof) {
    *hold = e;  // closer located; still waiting for its '>'
    return kNpos;
  }
  sink->EndTag(std::string_view(raw_closer_).substr(2));
  raw_closer_.clear();
  return gt == kNpos ? w.size() : gt + 1;
}

void Scanner::FlushText(std::string_view w, size_t begin, size_t end,
                        TokenSink* sink) {
  std::string_view run = w.substr(begin, end - begin);
  if (!text_.empty()) {
    text_.append(run);
    run = text_;
  }
  // Whitespace-only runs between tags carry no content.
  if (!run.empty() && !AllSpace(run)) {
    if (run.find('&') == kNpos) {
      sink->Text(run);
    } else {
      decoded_.clear();
      AppendDecodedEntities(run, &decoded_);
      sink->Text(decoded_);
    }
  }
  text_.clear();
}

size_t Scanner::Scan(std::string_view w, bool eof, size_t stop_at,
                     TokenSink* sink, util::EvalTicker* ticker) {
  size_t i = 0;    // scan position
  size_t run = 0;  // start of the pending text run (text_ holds its prefix)
  for (;;) {
    if (i >= stop_at) {
      text_.append(w.substr(run, i - run));
      return i;
    }
    if (!raw_closer_.empty()) {
      if (status_ = ticker->Tick(); !status_.ok()) return kNpos;
      size_t hold = 0;
      const size_t next = ScanRawText(w, i, eof, sink, &hold);
      if (next == kNpos) return hold;
      i = run = next;
      continue;
    }
    const size_t lt = FindByte(w, i, '<');
    if (lt == kNpos) {
      text_.append(w.substr(run));
      return w.size();
    }
    if (status_ = ticker->Tick(); !status_.ok()) return kNpos;
    size_t end = 0;
    const Markup markup = ScanMarkup(w, lt, eof, &end);
    switch (markup) {
      case Markup::kNeedMore:
        text_.append(w.substr(run, lt - run));
        return lt;
      case Markup::kStray:
        i = lt + 1;  // a stray '<' is literal text of the current run
        continue;
      case Markup::kComment:
        FlushText(w, run, lt, sink);
        sink->Comment(View(w, body_));
        break;
      case Markup::kDoctype:
        FlushText(w, run, lt, sink);
        sink->Doctype(View(w, body_));
        break;
      case Markup::kEndTag:
        FlushText(w, run, lt, sink);
        sink->EndTag(View(w, name_));
        break;
      case Markup::kStartTag: {
        FlushText(w, run, lt, sink);
        attrs_.clear();
        for (const auto& [name, value] : attr_pieces_) {
          attrs_.push_back({View(w, name), View(w, value)});
        }
        const std::string_view name = View(w, name_);
        sink->StartTag(TagView{name, attrs_, self_closing_});
        // Raw-text elements swallow everything up to the matching end tag
        // (even when written self-closing).
        if (name == "script" || name == "style") {
          raw_closer_.assign("</").append(name);
        }
        break;
      }
    }
    i = run = end;
  }
}

util::Status Scanner::Feed(std::string_view chunk, TokenSink* sink,
                           const util::EvalControl* control) {
  if (finished_) {
    return util::Status::FailedPrecondition("Scanner::Feed after Finish");
  }
  util::EvalTicker ticker(control);
  size_t from = 0;
  if (!held_.empty()) {
    // Complete the held construct over held bytes + this chunk, then go
    // back to scanning the chunk in place at the first boundary past the
    // held bytes.
    const size_t held = held_.size();
    held_.append(chunk);
    const size_t pos = Scan(held_, /*eof=*/false, held, sink, &ticker);
    if (pos == kNpos) return status_;
    if (pos < held) {
      held_.erase(0, pos);
      return util::Status::OK();
    }
    held_.clear();
    from = pos - held;
  }
  const std::string_view rest = chunk.substr(from);
  const size_t pos = Scan(rest, /*eof=*/false, kNpos, sink, &ticker);
  if (pos == kNpos) return status_;
  held_.assign(rest.substr(pos));
  return util::Status::OK();
}

util::Status Scanner::Finish(TokenSink* sink,
                             const util::EvalControl* control) {
  if (finished_) {
    return util::Status::FailedPrecondition("Scanner::Finish called twice");
  }
  finished_ = true;
  util::EvalTicker ticker(control);
  const std::string held = std::move(held_);
  held_.clear();
  if (Scan(held, /*eof=*/true, kNpos, sink, &ticker) == kNpos) return status_;
  FlushText({}, 0, 0, sink);
  return util::Status::OK();
}

util::Status StreamTokenizer::Feed(std::string_view chunk,
                                   std::vector<Token>* out,
                                   const util::EvalControl* control) {
  TokenCollector collector(out);
  return scanner_.Feed(chunk, &collector, control);
}

util::Status StreamTokenizer::Finish(std::vector<Token>* out,
                                     const util::EvalControl* control) {
  TokenCollector collector(out);
  return scanner_.Finish(&collector, control);
}

void AppendDecodedEntities(std::string_view text, std::string* out) {
  for (size_t i = 0; i < text.size();) {
    if (text[i] != '&') {
      *out += text[i++];
      continue;
    }
    size_t semi = text.find(';', i);
    if (semi == std::string_view::npos || semi - i > 8) {
      *out += text[i++];
      continue;
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      *out += '&';
    } else if (entity == "lt") {
      *out += '<';
    } else if (entity == "gt") {
      *out += '>';
    } else if (entity == "quot") {
      *out += '"';
    } else if (entity == "apos") {
      *out += '\'';
    } else if (entity == "nbsp") {
      *out += ' ';
    } else if (!entity.empty() && entity[0] == '#') {
      int32_t code = 0;
      bool ok = entity.size() > 1;
      for (size_t k = 1; k < entity.size(); ++k) {
        if (entity[k] < '0' || entity[k] > '9') {
          ok = false;
          break;
        }
        code = code * 10 + (entity[k] - '0');
      }
      if (!ok || code <= 0 || code > 127) {
        *out += text[i++];
        continue;
      }
      *out += static_cast<char>(code);
    } else {
      *out += text[i++];
      continue;
    }
    i = semi + 1;
  }
}

std::string DecodeEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendDecodedEntities(text, &out);
  return out;
}

std::vector<Token> Tokenize(std::string_view html) {
  StreamTokenizer tokenizer;
  std::vector<Token> out;
  // Without an EvalControl the scanner cannot fail.
  util::Status st = tokenizer.Feed(html, &out);
  if (st.ok()) st = tokenizer.Finish(&out);
  (void)st;
  return out;
}

}  // namespace mdatalog::html
