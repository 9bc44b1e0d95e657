#pragma once

#include <cstddef>
#include <cstdint>

/// \file simd_kernels.h
/// Runtime-dispatched kernels for the hot NodeSet word loops.
///
/// Monadic-datalog evaluation reduces to bitset algebra over the node domain
/// (set-plans are intersections, semi-naive rounds subtract deltas from
/// totals — Theorem 4.2's linear-time loop body), so these two operations
/// are the inner loop of the semi-naive set plans (eval.cc). Each has a
/// portable scalar form and an AVX2 form (4 words per vector op; popcounts
/// via the Muła vpshufb nibble-LUT reduction). The implementation is selected
/// once per process:
///
///   * AVX2 when the CPU reports it, unless forced off;
///   * scalar otherwise, or when MDATALOG_FORCE_SCALAR is set in the
///     environment (CI runs the whole test suite once this way so the
///     fallback path stays green on non-AVX2 hosts);
///   * tests/benches can flip the dispatch at runtime with ForceScalar().
///
/// The scalar forms are the oracle: simd_test.cc property-checks AVX2
/// against them over randomized sets, and the two must agree bit for bit.
///
/// All `n` parameters count 64-bit words. Pointers need no particular
/// alignment (the vector paths use unaligned loads; std::vector's 16-byte
/// allocation alignment already avoids split lines in practice).

namespace mdatalog::core::simd {

/// dst[i] &= src[i]; returns the total popcount of dst afterwards.
int64_t AndAssignCount(uint64_t* dst, const uint64_t* src, size_t n);
/// dst[i] &= ~src[i] (delta subtraction); returns the total popcount of dst.
int64_t AndNotAssignCount(uint64_t* dst, const uint64_t* src, size_t n);

/// Name of the active implementation: "avx2" or "scalar".
const char* ActiveKernelName();

/// True iff the AVX2 kernels are the active implementation.
bool Avx2Active();

/// Overrides the dispatch at runtime: ForceScalar(true) pins the scalar
/// kernels, ForceScalar(false) restores CPU-based selection (which still
/// honors MDATALOG_FORCE_SCALAR). For the scalar-vs-SIMD benches and the
/// equivalence tests; not intended to be flipped while other threads are
/// mid-evaluation.
void ForceScalar(bool on);

}  // namespace mdatalog::core::simd
