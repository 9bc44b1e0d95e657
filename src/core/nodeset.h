#pragma once

#include <cstdint>
#include <vector>

#include "src/util/bits.h"
#include "src/util/check.h"

/// \file nodeset.h
/// Dense bitset over the evaluation domain {0..domain_size-1}.
///
/// Monadic datalog's intensional predicates are node *sets* (arity ≤ 1), so
/// the engines store every unary IDB relation as a NodeSet: one bit per
/// domain element, packed into 64-bit words. Membership and insertion are
/// O(1); iteration visits members in ascending order via
/// count-trailing-zeros.

namespace mdatalog::core {

class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(int32_t domain_size) { Reset(domain_size); }

  /// Resizes to `domain_size` and clears all members.
  void Reset(int32_t domain_size) {
    MD_DCHECK(domain_size >= 0);
    domain_size_ = domain_size;
    count_ = 0;
    words_.assign((static_cast<size_t>(domain_size) + 63) / 64, 0);
  }

  /// Extends the domain to `domain_size` (>= the current one), keeping every
  /// member: the sets of an evaluation over a growing tree.
  void Grow(int32_t domain_size) {
    MD_DCHECK(domain_size >= domain_size_);
    domain_size_ = domain_size;
    words_.resize((static_cast<size_t>(domain_size) + 63) / 64, 0);
  }

  int32_t domain_size() const { return domain_size_; }
  bool empty() const { return count_ == 0; }
  int64_t count() const { return count_; }

  /// Word-level read access.
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Membership; out-of-domain values are simply not members.
  bool Contains(int32_t a) const {
    if (a < 0 || a >= domain_size_) return false;
    return (words_[static_cast<size_t>(a) >> 6] >> (a & 63)) & 1;
  }

  /// Inserts `a` (must be in-domain). Returns true iff newly inserted.
  bool Insert(int32_t a) {
    MD_DCHECK(a >= 0 && a < domain_size_);
    uint64_t& w = words_[static_cast<size_t>(a) >> 6];
    const uint64_t m = uint64_t{1} << (a & 63);
    if (w & m) return false;
    w |= m;
    ++count_;
    return true;
  }

  /// Calls fn(member) for every member, in ascending order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int32_t b = util::Ctz64(w);
        fn(static_cast<int32_t>(wi * 64) + b);
        w &= w - 1;
      }
    }
  }

  /// Members as a sorted-ascending vector.
  std::vector<int32_t> ToVector() const {
    std::vector<int32_t> out;
    out.reserve(static_cast<size_t>(count_));
    ForEach([&](int32_t a) { out.push_back(a); });
    return out;
  }

  bool operator==(const NodeSet& other) const {
    return domain_size_ == other.domain_size_ && words_ == other.words_;
  }

 private:
  int32_t domain_size_ = 0;
  int64_t count_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mdatalog::core
