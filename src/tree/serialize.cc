#include "src/tree/serialize.h"

namespace mdatalog::tree {

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string ToXml(const Tree& t, int32_t indent) {
  std::string out;
  int32_t depth = 0;
  const auto pad = [&] {
    if (indent > 0) out.append(static_cast<size_t>(depth * indent), ' ');
  };
  WalkSubtree(
      t, t.root(),
      [&](NodeId n) {
        pad();
        out += '<';
        out += t.label_name(n);
        out += '>';
        if (t.HasText(n)) out += XmlEscape(t.text(n));
        if (!t.IsLeaf(n) && indent >= 0) out += '\n';
        ++depth;
      },
      [&](NodeId n) {
        --depth;
        if (!t.IsLeaf(n) && indent >= 0) pad();
        out += "</";
        out += t.label_name(n);
        out += '>';
        if (indent >= 0) out += '\n';
      });
  return out;
}

}  // namespace mdatalog::tree
