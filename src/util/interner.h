#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/check.h"

/// \file interner.h
/// String interning. Labels (tree alphabet Σ) and predicate names are interned
/// once and handled as dense int32 ids everywhere else, which keeps the hot
/// evaluation loops free of string comparisons.

namespace mdatalog::util {

/// Dense id assigned by an Interner. Ids start at 0 and are stable for the
/// lifetime of the Interner.
using SymbolId = int32_t;

inline constexpr SymbolId kInvalidSymbol = -1;

/// Bidirectional string <-> dense id map.
///
/// Thread safety: Intern() mutates and must not race with anything. Find(),
/// Name() and size() are pure reads and are safe to call concurrently —
/// *provided* no thread interns at the same time. Every Interner in this
/// library is owned by an object that is immutable once built (a Tree after
/// TreeBuilder::Build, a Program's PredicateTable after parsing/translation),
/// so the serving runtime may share trees and compiled programs across
/// worker threads freely; construction is confined to a single thread. Do
/// not intern into a shared instance after publication — isolate a fresh
/// Interner per worker instead if mutation is needed.
class Interner {
 public:
  /// Returns the id for `s`, interning it on first sight. A hit builds no
  /// temporary string (heterogeneous lookup).
  SymbolId Intern(std::string_view s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    SymbolId id = static_cast<SymbolId>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  /// Returns the id for `s`, or kInvalidSymbol if never interned.
  SymbolId Find(std::string_view s) const {
    auto it = ids_.find(s);
    return it == ids_.end() ? kInvalidSymbol : it->second;
  }

  /// Forgets `id`; every later id moves down by one. O(size()). Callers
  /// renumber whatever refers to the shifted ids.
  void Erase(SymbolId id) {
    MD_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size());
    ids_.erase(strings_[id]);
    strings_.erase(strings_.begin() + id);
    for (size_t i = id; i < strings_.size(); ++i) {
      ids_[strings_[i]] = static_cast<SymbolId>(i);
    }
  }

  /// Returns the string for an id. Id must be valid.
  const std::string& Name(SymbolId id) const {
    MD_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size());
    return strings_[id];
  }

  int32_t size() const { return static_cast<int32_t>(strings_.size()); }

  /// Approximate heap footprint in bytes (strings stored twice: dense table
  /// plus hash-map keys).
  int64_t ApproxBytes() const {
    int64_t bytes = 0;
    for (const std::string& s : strings_) {
      bytes += 2 * static_cast<int64_t>(s.capacity()) +
               static_cast<int64_t>(sizeof(std::string)) +
               static_cast<int64_t>(sizeof(SymbolId)) + 32;  // map node est.
    }
    return bytes;
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> strings_;
  std::unordered_map<std::string, SymbolId, Hash, std::equal_to<>> ids_;
};

}  // namespace mdatalog::util
