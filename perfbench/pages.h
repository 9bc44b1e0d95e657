#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

/// \file pages.h
/// The benchmark's own input generator. It is deliberately independent of
/// the library (no src/html/synthetic.h, no util::Rng), so a change to the
/// program never changes what the benchmark feeds it.

namespace perfbench {

/// SplitMix64, seeded per page.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

enum class Family { kCatalog, kNews, kBoard };
inline constexpr int kNumFamilies = 3;

/// Wrapper text (Elog plus a `%! extract:` directive) for a page family.
/// Catalog and board wrappers are Elog⁻ (grounded datalog plan); the news
/// wrapper uses the Elog⁻Δ `notafter` builtin, so it runs on the native
/// Elog evaluator.
const char* WrapperText(Family family);

/// Every page opens with `<html data-req="00000000">`: the fixed-width
/// counter lives in an attribute no wrapper projects (wrappers project
/// `class`), so rewriting it changes the page bytes but not the parse work
/// or the output.
inline constexpr size_t kCounterWidth = 8;

/// A page of `family` of about `target_bytes` (it stops at the first record
/// boundary past the target), whose records start after a navigation block of
/// about `preamble_bytes` that no wrapper extracts from.
std::string MakePage(Family family, Rng& rng, size_t target_bytes,
                     size_t preamble_bytes = 0);

/// Byte offset of the counter digits in a page made by MakePage.
size_t CounterOffset(const std::string& page);

/// Writes `value` (mod 10^8) as the page's fixed-width counter.
void WriteCounter(std::string& page, size_t offset, uint64_t value);

}  // namespace perfbench
