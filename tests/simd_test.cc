// The SIMD NodeSet kernels against their scalar oracle. The dispatch
// contract is that AVX2 and scalar agree bit for bit on every operation and
// every length (including the scalar tail lengths the vector loop doesn't
// cover), so these are randomized property tests: same inputs through both
// implementations, equal outputs required. On hosts without AVX2 the two
// sides are the same code and the tests degenerate to self-consistency.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/nodeset.h"
#include "src/core/simd_kernels.h"
#include "src/util/bits.h"
#include "src/util/rng.h"

namespace {

using namespace mdatalog;
using core::simd::ForceScalar;

/// Pins the scalar kernels for one scope; restores detection on exit.
struct ScalarGuard {
  ScalarGuard() { ForceScalar(true); }
  ~ScalarGuard() { ForceScalar(false); }
};

std::vector<uint64_t> RandomWords(util::Rng& rng, size_t n, double density) {
  std::vector<uint64_t> w(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < 64; ++b) {
      if (rng.Chance(static_cast<uint64_t>(density * 1000), 1000)) {
        v |= uint64_t{1} << b;
      }
    }
    w[i] = v;
  }
  return w;
}

// Word counts straddling every vector-loop boundary: 0, sub-vector, exact
// multiples of the 4-word stride, and stride±tail.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                           127, 128, 129, 1000, 2048, 2049};

TEST(SimdKernelTest, AssignOpsMatchScalarOracle) {
  util::Rng rng(42);
  for (size_t n : kLengths) {
    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      const std::vector<uint64_t> dst0 = RandomWords(rng, n, density);
      const std::vector<uint64_t> src = RandomWords(rng, n, 1.0 - density);

      for (int op = 0; op < 2; ++op) {
        const auto kernel = op == 0 ? core::simd::AndAssignCount
                                    : core::simd::AndNotAssignCount;
        std::vector<uint64_t> want = dst0, got = dst0;
        int64_t want_count;
        {
          ScalarGuard scalar;
          want_count = kernel(want.data(), src.data(), n);
        }
        const int64_t got_count = kernel(got.data(), src.data(), n);
        EXPECT_EQ(want, got) << "op " << op << " n " << n;
        EXPECT_EQ(want_count, got_count) << "op " << op << " n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, ForceScalarFlipsDispatch) {
  // Whatever the host supports, ForceScalar(true) must pin "scalar" and
  // ForceScalar(false) must restore the detected implementation.
  const std::string detected = core::simd::ActiveKernelName();
  ForceScalar(true);
  EXPECT_STREQ(core::simd::ActiveKernelName(), "scalar");
  EXPECT_FALSE(core::simd::Avx2Active());
  ForceScalar(false);
  EXPECT_EQ(core::simd::ActiveKernelName(), detected);
}

// ---------------------------------------------------------------------------
// NodeSet-level properties (the kernels as the engine uses them)
// ---------------------------------------------------------------------------

core::NodeSet RandomSet(util::Rng& rng, int32_t domain, uint32_t fill_permil) {
  core::NodeSet s(domain);
  for (int32_t i = 0; i < domain; ++i) {
    if (rng.Chance(fill_permil, 1000)) s.Insert(i);
  }
  return s;
}

TEST(SimdKernelTest, NodeSetAlgebraMatchesPerElementDefinition) {
  util::Rng rng(44);
  for (int32_t domain : {1, 63, 64, 65, 257, 4096, 10000}) {
    const core::NodeSet a = RandomSet(rng, domain, 300);
    const core::NodeSet b = RandomSet(rng, domain, 300);

    core::NodeSet in = a, diff = a;
    in.IntersectWith(b);
    diff.DifferenceWith(b);

    int64_t in_count = 0, diff_count = 0;
    for (int32_t i = 0; i < domain; ++i) {
      const bool ia = a.Contains(i), ib = b.Contains(i);
      EXPECT_EQ(in.Contains(i), ia && ib);
      EXPECT_EQ(diff.Contains(i), ia && !ib);
      in_count += (ia && ib);
      diff_count += (ia && !ib);
    }
    // The fused popcounts must agree with the per-element truth.
    EXPECT_EQ(in.count(), in_count);
    EXPECT_EQ(diff.count(), diff_count);
  }
}

}  // namespace
