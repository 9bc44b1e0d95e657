#include "src/tree/serialize.h"

namespace mdatalog::tree {

void AppendXmlEscaped(std::string* out, std::string_view s) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view entity;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      default: continue;
    }
    out->append(s, run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(s, run);
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
        AppendXmlEscaped(&out, t.text(n));
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
