#include "src/html/parser.h"

#include <iterator>

namespace mdatalog::html {

namespace {

/// Records every created node's attributes for Document.
struct AttributeRecorder {
  std::vector<std::vector<std::pair<std::string, std::string>>>* table;

  void OnCreate(tree::NodeId n, std::span<const AttrView> attrs) {
    table->resize(n + 1);
    for (const AttrView& a : attrs) {
      (*table)[n].emplace_back(std::string(a.name), std::string(a.value));
    }
  }
  void OnClose(tree::NodeId /*n*/) {}
};

/// Feeds the whole page through the scanner into `constructor`.
template <typename Hooks>
void ScanPage(std::string_view html, TreeConstructor<Hooks>* constructor) {
  Scanner scanner;
  // Without an EvalControl the scanner cannot fail.
  util::Status st = scanner.Feed(html, constructor);
  if (st.ok()) st = scanner.Finish(constructor);
  (void)st;
  constructor->CloseAll();
}

}  // namespace

bool IsVoidElement(std::string_view name) {
  static constexpr std::string_view kVoid[] = {
      "area", "base", "br",    "col",  "embed", "hr",   "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return std::find(std::begin(kVoid), std::end(kVoid), name) !=
         std::end(kVoid);
}

const std::vector<std::string>& AutoCloses(std::string_view name) {
  static const std::vector<std::string> kNone = {};
  static const std::vector<std::string> kLi = {"li"};
  static const std::vector<std::string> kCell = {"td", "th"};
  static const std::vector<std::string> kRow = {"tr", "td", "th"};
  static const std::vector<std::string> kP = {"p"};
  static const std::vector<std::string> kOption = {"option"};
  static const std::vector<std::string> kDef = {"dd", "dt"};
  if (name == "li") return kLi;
  if (name == "td" || name == "th") return kCell;
  if (name == "tr") return kRow;
  if (name == "p") return kP;
  if (name == "option") return kOption;
  if (name == "dd" || name == "dt") return kDef;
  return kNone;
}

util::Result<tree::Tree> ParseTree(std::string_view html,
                                   std::string_view project_attr) {
  TreeConstructor<> constructor(project_attr);
  ScanPage(html, &constructor);
  return constructor.Build();
}

std::string Document::GetAttr(tree::NodeId n, const std::string& name) const {
  if (static_cast<size_t>(n) >= attrs_.size()) return "";
  for (const auto& [k, v] : attrs_[n]) {
    if (k == name) return v;
  }
  return "";
}

util::Result<Document> ParseHtml(std::string_view html) {
  std::vector<std::vector<std::pair<std::string, std::string>>> attrs;
  TreeConstructor<AttributeRecorder> constructor({}, {&attrs});
  ScanPage(html, &constructor);
  const bool drops_root = constructor.single_rooted();
  MD_ASSIGN_OR_RETURN(tree::Tree t, constructor.Build());
  attrs.resize(t.size() + (drops_root ? 1 : 0));
  if (drops_root) attrs.erase(attrs.begin());
  return Document(std::move(t), std::move(attrs));
}

tree::Tree ProjectAttributeIntoLabels(const Document& doc,
                                      const std::string& attr) {
  const tree::Tree& t = doc.tree();
  tree::TreeBuilder builder;
  std::vector<tree::NodeId> dst_of(t.size(), tree::kNoNode);
  std::string label;
  // Preorder: the relabeled tree interns its alphabet in document order,
  // exactly like construction-time projection.
  for (const tree::NodeId src : t.Preorder()) {
    label = t.label_name(src);
    const std::string value = doc.GetAttr(src, attr);
    if (!value.empty()) label.append("@").append(value);
    const tree::NodeId parent = t.parent(src);
    const tree::NodeId dst = parent == tree::kNoNode
                                 ? builder.Root(label)
                                 : builder.Child(dst_of[parent], label);
    dst_of[src] = dst;
    if (t.HasText(src)) builder.SetText(dst, t.text(src));
  }
  return builder.Build();
}

}  // namespace mdatalog::html
