#include "src/tree/ranked.h"

namespace mdatalog::tree {

util::Status ValidateMaxArity(const Tree& t, int32_t max_rank) {
  for (NodeId n = 0; n < t.size(); ++n) {
    if (t.NumChildren(n) > max_rank) {
      return util::Status::InvalidArgument(
          "node " + std::to_string(n) + " has " +
          std::to_string(t.NumChildren(n)) + " children, max rank is " +
          std::to_string(max_rank));
    }
  }
  return util::Status::OK();
}

}  // namespace mdatalog::tree
