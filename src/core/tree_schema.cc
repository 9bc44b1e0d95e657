#include "src/core/tree_schema.h"

#include <climits>

namespace mdatalog::core {

bool IsTreePredicate(const std::string& name, int32_t arity) {
  if (arity == 1) {
    return name == "root" || name == "leaf" || name == "lastsibling" ||
           name == "firstsibling" || !LabelFromPredName(name).empty();
  }
  if (arity == 2) {
    return name == "firstchild" || name == "nextsibling" || name == "child" ||
           name == "lastchild" || name == "nextsibling_tc" ||
           ChildKIndex(name) >= 1;
  }
  return false;
}

std::string LabelPredName(const std::string& label) { return "label_" + label; }

std::string LabelFromPredName(const std::string& name) {
  if (name.rfind("label_", 0) == 0) return name.substr(6);
  return "";
}

int32_t ChildKIndex(const std::string& name) {
  if (name.rfind("child", 0) != 0 || name.size() <= 5) return -1;
  int64_t k = 0;
  for (size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    k = k * 10 + (name[i] - '0');
    if (k > INT32_MAX) return -1;  // no such child position, not a wrap
  }
  return k >= 1 ? static_cast<int32_t>(k) : -1;
}

}  // namespace mdatalog::core
