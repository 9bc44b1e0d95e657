#pragma once

#include <bit>
#include <cstdint>

/// \file bits.h
/// Small bit-math helpers shared by the runtime caches and the NodeSet word
/// loops.

namespace mdatalog::util {

/// Index of the lowest set bit of `w`. w must be nonzero.
inline int32_t Ctz64(uint64_t w) { return std::countr_zero(w); }

/// Number of leading zero bits of `w`. w must be nonzero (the telemetry
/// histogram bucketing guards the zero case before calling).
inline int32_t CountLeadingZeros64(uint64_t w) { return std::countl_zero(w); }

/// Smallest power of two >= v, for shard counts and sketch sizes. Inputs are
/// clamped to [1, 2^30] — beyond that the doubling loop would overflow
/// (signed UB), and no cache legitimately wants a billion shards.
inline int32_t RoundUpPow2(int32_t v) {
  if (v < 1) v = 1;
  if (v > (1 << 30)) v = 1 << 30;
  int32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Splitmix64 finalizer: one-round full-avalanche mix. The caches use it so
/// shard selection (high bits) and sketch rows are well distributed even for
/// structured key material.
inline uint64_t Mix64(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace mdatalog::util
