#pragma once

#include <string>
#include <string_view>

#include "src/tree/tree.h"

/// \file serialize.h
/// XML-style serialization of trees — the natural output format of a wrapper
/// (the paper's Section 6 computes XML trees from extraction results).

namespace mdatalog::tree {

/// Serializes `t` as XML. Node labels become element names; text payloads are
/// escaped and emitted before the children. `indent` < 0 means single-line.
std::string ToXml(const Tree& t, int32_t indent = 2);

/// Appends `s` to `*out` with &, <, >, " escaped for XML. Runs without a
/// special character are copied whole.
void AppendXmlEscaped(std::string* out, std::string_view s);

}  // namespace mdatalog::tree
