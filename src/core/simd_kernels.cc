#include "src/core/simd_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "src/util/bits.h"

#if defined(__x86_64__) || defined(_M_X64)
#define MDATALOG_X86_64 1
#include <immintrin.h>
#endif

namespace mdatalog::core::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels — the reference implementation and non-x86 fallback.
// ---------------------------------------------------------------------------

int64_t AndScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    dst[i] &= src[i];
    count += util::Popcount64(dst[i]);
  }
  return count;
}

int64_t AndNotScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    dst[i] &= ~src[i];
    count += util::Popcount64(dst[i]);
  }
  return count;
}

#if MDATALOG_X86_64

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with the `target` attribute so the rest of the
// binary stays baseline-x86-64; they are only ever called after the cpuid
// check below. Popcount of a 256-bit lane uses the Muła vpshufb nibble
// lookup, reduced with vpsadbw into four 64-bit lane sums.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(per_byte, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline int64_t HorizontalSum(__m256i acc) {
  return _mm256_extract_epi64(acc, 0) + _mm256_extract_epi64(acc, 1) +
         _mm256_extract_epi64(acc, 2) + _mm256_extract_epi64(acc, 3);
}

// The two op-assign-and-count kernels are spelled out (no shared lambda
// skeleton): GCC does not propagate the enclosing function's `target`
// attribute into lambda bodies, so intrinsics inside one fail to inline.

__attribute__((target("avx2"))) int64_t AndAvx2(uint64_t* dst,
                                                const uint64_t* src,
                                                size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i r = _mm256_and_si256(d, s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    acc = _mm256_add_epi64(acc, Popcount256(r));
  }
  int64_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    dst[i] &= src[i];
    count += util::Popcount64(dst[i]);
  }
  return count;
}

__attribute__((target("avx2"))) int64_t AndNotAvx2(uint64_t* dst,
                                                   const uint64_t* src,
                                                   size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // andnot computes ~first & second, hence the operand order.
    const __m256i r = _mm256_andnot_si256(s, d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    acc = _mm256_add_epi64(acc, Popcount256(r));
  }
  int64_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    dst[i] &= ~src[i];
    count += util::Popcount64(dst[i]);
  }
  return count;
}

#endif  // MDATALOG_X86_64

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

struct Kernels {
  int64_t (*and_assign)(uint64_t*, const uint64_t*, size_t);
  int64_t (*andnot_assign)(uint64_t*, const uint64_t*, size_t);
  const char* name;
};

constexpr Kernels kScalarKernels = {AndScalar, AndNotScalar, "scalar"};

#if MDATALOG_X86_64
constexpr Kernels kAvx2Kernels = {AndAvx2, AndNotAvx2, "avx2"};
#endif

bool EnvForcesScalar() {
  const char* env = std::getenv("MDATALOG_FORCE_SCALAR");
  return env != nullptr && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "") != 0;
}

const Kernels* Detect() {
#if MDATALOG_X86_64
  if (!EnvForcesScalar() && __builtin_cpu_supports("avx2")) {
    return &kAvx2Kernels;
  }
#endif
  return &kScalarKernels;
}

/// The active kernel table. Resolved on first use; ForceScalar() may swap it
/// afterwards (relaxed loads: both tables are immutable and any thread
/// observing a stale pointer still runs a correct implementation).
std::atomic<const Kernels*> g_kernels{nullptr};

const Kernels& Active() {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = Detect();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

}  // namespace

int64_t AndAssignCount(uint64_t* dst, const uint64_t* src, size_t n) {
  return Active().and_assign(dst, src, n);
}

int64_t AndNotAssignCount(uint64_t* dst, const uint64_t* src, size_t n) {
  return Active().andnot_assign(dst, src, n);
}

const char* ActiveKernelName() { return Active().name; }

bool Avx2Active() { return std::strcmp(Active().name, "avx2") == 0; }

void ForceScalar(bool on) {
  g_kernels.store(on ? &kScalarKernels : Detect(),
                  std::memory_order_release);
}

}  // namespace mdatalog::core::simd
