#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/html/tokenizer.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file parser.h
/// HTML tree construction: the pre-parsed document trees that tree-based
/// wrapping (Section 1) presupposes.
///
/// The builder is forgiving in the usual browser ways: void elements never
/// nest; li/p/td/th/tr/option/dd/dt auto-close their predecessors; unmatched
/// end tags are ignored; everything still open at end of input is closed.
/// Text runs become leaf nodes labeled "#text" whose payload is the decoded
/// character data — the "lists of character symbols modeled as subtrees"
/// reading of Remark 2.2.
///
/// There is one construction routine, TreeConstructor: the Scanner
/// (tokenizer.h) drives it as a TokenSink. Attribute projection (Remark 2.2)
/// happens as each node is created, and the synthetic "#document" root is
/// dropped at the end by a column shift (TreeBuilder::BuildDroppingRoot), so
/// a page costs one scan and one tree. ParseTree is that path for a whole
/// page; the streaming front (src/stream/) feeds the same scanner chunk by
/// chunk and attaches its create/close hooks.
///
/// ParseHtml / Document / ProjectAttributeIntoLabels are helpers over the
/// same construction for callers that want the raw tree plus per-node
/// attributes; the serving path does not use them.

namespace mdatalog::html {

inline constexpr std::string_view kDocumentLabel = "#document";
inline constexpr std::string_view kTextLabel = "#text";

/// The HTML void elements (never have children, never go on the open stack).
bool IsVoidElement(std::string_view name);

/// Returns the set of open tags that a start tag `name` implicitly closes
/// (e.g. a new <tr> closes an open td and then the open tr).
const std::vector<std::string>& AutoCloses(std::string_view name);

/// Tree-construction hooks that do nothing; inlined away.
struct NoConstructionHooks {
  void OnCreate(tree::NodeId /*n*/, std::span<const AttrView> /*attrs*/) {}
  void OnClose(tree::NodeId /*n*/) {}
};

/// Builds the document tree from the token stream. Starts with the synthetic
/// "#document" root open. `Hooks` sees every node right after it is created
/// (OnCreate, with the start tag's attributes; text payloads are already
/// set) and when its subtree is complete (OnClose). A node label is the tag
/// name, or "tag@value" when `project_attr` is non-empty and the tag's first
/// `project_attr` attribute has a non-empty value.
template <typename Hooks = NoConstructionHooks>
class TreeConstructor final : public TokenSink {
 public:
  explicit TreeConstructor(std::string_view project_attr = {},
                           Hooks hooks = {})
      : project_attr_(project_attr), hooks_(std::move(hooks)) {
    stack_.push_back({builder_.Root(kDocumentLabel), std::string()});
  }

  void StartTag(const TagView& tag) override {
    // Pop every implicitly-closed element (e.g. <tr> closes an open td and
    // then the open tr).
    const std::vector<std::string>& closes = AutoCloses(tag.name);
    while (stack_.size() > 1 &&
           std::find(closes.begin(), closes.end(), stack_.back().name) !=
               closes.end()) {
      Pop();
    }
    const tree::NodeId n = builder_.Child(stack_.back().node, Label(tag));
    hooks_.OnCreate(n, tag.attrs);
    if (!IsVoidElement(tag.name) && !tag.self_closing) {
      stack_.push_back({n, std::string(tag.name)});
    } else {
      hooks_.OnClose(n);
    }
  }

  void EndTag(std::string_view name) override {
    // Close up to the innermost matching open tag; ignore the end tag if
    // there is none.
    for (size_t i = stack_.size() - 1; i >= 1; --i) {
      if (stack_[i].name == name) {
        while (stack_.size() > i) Pop();
        return;
      }
    }
  }

  void Text(std::string_view text) override {
    const tree::NodeId n = builder_.Child(stack_.back().node, kTextLabel);
    builder_.SetText(n, text);
    hooks_.OnCreate(n, {});
    hooks_.OnClose(n);
  }

  /// End of input: closes every element still open. The synthetic root
  /// stays open (its fate is Build's).
  void CloseAll() {
    while (stack_.size() > 1) Pop();
  }

  /// Exactly one top-level node: Build drops the synthetic root.
  bool single_rooted() const {
    const tree::NodeId first = builder_.first_child(0);
    return first != tree::kNoNode &&
           builder_.next_sibling(first) == tree::kNoNode;
  }

  const tree::TreeBuilder& builder() const { return builder_; }

  /// Finalizes the tree (call CloseAll first). The synthetic root is
  /// dropped when the page has a unique top-level node (the paper's trees
  /// have a unique root) and kept above several. Fails only when the page
  /// produced no node at all. The constructor is spent afterwards.
  util::Result<tree::Tree> Build() {
    if (builder_.size() == 1) {
      return util::Status::InvalidArgument("no content in HTML input");
    }
    return single_rooted() ? builder_.BuildDroppingRoot() : builder_.Build();
  }

 private:
  struct OpenElement {
    tree::NodeId node;
    std::string name;  // unprojected tag name
  };

  std::string_view Label(const TagView& tag) {
    if (project_attr_.empty()) return tag.name;
    for (const AttrView& a : tag.attrs) {
      if (a.name != project_attr_) continue;
      if (a.value.empty()) return tag.name;
      label_.assign(tag.name).append("@").append(a.value);
      return label_;
    }
    return tag.name;
  }

  void Pop() {
    hooks_.OnClose(stack_.back().node);
    stack_.pop_back();
  }

  const std::string project_attr_;
  Hooks hooks_;
  tree::TreeBuilder builder_;
  std::vector<OpenElement> stack_;  // innermost last; [0] is the root
  std::string label_;               // projected-label scratch
};

/// Parses HTML into the tree wrappers evaluate over, in one pass: projected
/// labels when `project_attr` is non-empty, the synthetic "#document" root
/// only above several top-level nodes. Fails only on input without content.
util::Result<tree::Tree> ParseTree(std::string_view html,
                                   std::string_view project_attr = {});

/// A parsed document: the unprojected label tree plus per-node attribute
/// lists (kept out of the Tree so the τ_ur schema stays exactly the
/// paper's).
class Document {
 public:
  Document(tree::Tree t, std::vector<std::vector<std::pair<std::string,
           std::string>>> attrs)
      : tree_(std::move(t)), attrs_(std::move(attrs)) {}

  const tree::Tree& tree() const { return tree_; }

  /// Value of attribute `name` on `n`, or "" if absent.
  std::string GetAttr(tree::NodeId n, const std::string& name) const;

 private:
  tree::Tree tree_;
  std::vector<std::vector<std::pair<std::string, std::string>>> attrs_;
};

/// ParseTree without projection, additionally recording every node's
/// attributes. Same tree shape and node ids as ParseTree.
util::Result<Document> ParseHtml(std::string_view html);

/// Remark 2.2: merge selected attributes into the node labels, producing a
/// plain tree whose alphabet is e.g. "div@sidebar" for <div class=sidebar>
/// (the separator is '@' because '.' delimits Elog path steps). Wrappers can
/// then use ordinary label_<l> predicates on attribute values. Equal to
/// ParseTree(html, attr) on the document's bytes.
tree::Tree ProjectAttributeIntoLabels(const Document& doc,
                                      const std::string& attr);

}  // namespace mdatalog::html
