// util::HashBytes128, the keyed page hash: pinned digests over every stripe
// and tail path, and the properties the caches rely on — a single flipped
// bit, trailing zero bytes, the key and a zero product each change the
// digest, and the input's address does not.

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/hash.h"
#include "src/util/rng.h"

namespace {

using namespace mdatalog;

constexpr util::SipHashKey kTestKey{0x0706050403020100ULL,
                                    0x0f0e0d0c0b0a0908ULL};

std::pair<uint64_t, uint64_t> Digest(std::string_view bytes,
                                     const util::SipHashKey& key = kTestKey) {
  const util::Hash128 h = util::HashBytes128(bytes, key);
  return {h.lo, h.hi};
}

std::string PatternBytes(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(i * 31 + 7);
  return s;
}

std::string RandomBytes(util::Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.Next());
  return s;
}

void PutWordLe(std::string& s, size_t at, uint64_t w) {
  for (int i = 0; i < 8; ++i) s[at + i] = static_cast<char>(w >> (8 * i));
}

TEST(HashBytes128Test, PinnedDigestsUnderAFixedKey) {
  // Lengths around every stripe and tail boundary: empty, tail only (short,
  // word-sized, two words, past two words), one stripe exactly, a stripe
  // plus a tail, two stripes, and a long input.
  const struct {
    size_t len;
    uint64_t lo, hi;
  } kPinned[] = {
      {0, 0xc7dfafb089818828ULL, 0x9c2d75f33d2a0a57ULL},
      {1, 0x48173a04a707b074ULL, 0xce207d2f1378e034ULL},
      {7, 0x69585d40ff80b7a9ULL, 0x050facb0c499e23bULL},
      {8, 0xa05a9e7770af21d7ULL, 0x49000d6b0b8f81f7ULL},
      {15, 0x41681c8755716096ULL, 0x5ce0e777c25f608fULL},
      {16, 0x95b67883f24007d6ULL, 0x1d9bee3a4cec14e9ULL},
      {17, 0x6d5085a914e7b45aULL, 0x6eb6273a44d755ccULL},
      {63, 0xbceae078627e59ccULL, 0x9e8be21fb36fd4cdULL},
      {64, 0x1d654d05ddf74b7eULL, 0x0126e7633f7da330ULL},
      {65, 0xb92ef6a2898112a9ULL, 0x0a78897ee82189c4ULL},
      {127, 0x32b0e52cb74ed465ULL, 0x515eacd5a4b70d5fULL},
      {128, 0x7ecb472cb72ddea4ULL, 0x88d8804ce3e99d03ULL},
      {129, 0xcedd766680030a3cULL, 0x5486ec712296a875ULL},
      {1000, 0x3db804b0dd337609ULL, 0x4658d7226290cbd1ULL},
  };
  for (const auto& pin : kPinned) {
    const util::Hash128 h = util::HashBytes128(PatternBytes(pin.len), kTestKey);
    EXPECT_EQ(h.lo, pin.lo) << "length " << pin.len;
    EXPECT_EQ(h.hi, pin.hi) << "length " << pin.len;
  }
}

TEST(HashBytes128Test, EveryBitFlipChangesTheDigest) {
  util::Rng rng(24);
  for (int round = 0; round < 200; ++round) {
    const std::string base = RandomBytes(rng, 1 + rng.Below(300));
    const auto want = Digest(base);
    for (size_t bit = 0; bit < base.size() * 8; ++bit) {
      std::string flipped = base;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(Digest(flipped), want)
          << "length " << base.size() << ", bit " << bit;
    }
  }
}

TEST(HashBytes128Test, TrailingZeroBytesChangeTheDigest) {
  // The tail is zero-padded to a stripe, so only the length tells these
  // apart.
  util::Rng rng(7);
  for (size_t len : {size_t{0}, size_t{1}, size_t{8}, size_t{63}, size_t{64},
                     size_t{100}, size_t{128}}) {
    std::string s = RandomBytes(rng, len);
    std::set<std::pair<uint64_t, uint64_t>> seen;
    for (int zeros = 0; zeros <= 130; ++zeros) {
      EXPECT_TRUE(seen.insert(Digest(s)).second)
          << "length " << len << " + " << zeros << " zero bytes";
      s.push_back('\0');
    }
  }
}

TEST(HashBytes128Test, UnalignedOffsetsHashEqually) {
  util::Rng rng(3);
  for (size_t len : {size_t{1}, size_t{9}, size_t{64}, size_t{77},
                     size_t{200}, size_t{4099}}) {
    const std::string bytes = RandomBytes(rng, len);
    const auto want = Digest(bytes);
    std::vector<char> buffer(len + 16);
    for (size_t offset = 0; offset < 8; ++offset) {
      std::memcpy(buffer.data() + offset, bytes.data(), len);
      EXPECT_EQ(Digest(std::string_view(buffer.data() + offset, len)), want)
          << "length " << len << ", offset " << offset;
    }
  }
}

TEST(HashBytes128Test, KeysGiveDifferentDigests) {
  const util::SipHashKey other{0xdeadbeefcafef00dULL, 0x0123456789abcdefULL};
  const util::SipHashKey k0_only{kTestKey.k0, other.k1};
  for (size_t len : {size_t{0}, size_t{5}, size_t{64}, size_t{1000}}) {
    const std::string bytes = PatternBytes(len);
    EXPECT_NE(Digest(bytes, kTestKey), Digest(bytes, other)) << len;
    EXPECT_NE(Digest(bytes, kTestKey), Digest(bytes, k0_only)) << len;
  }
  // The one-argument form hashes under the process key.
  const std::string page = PatternBytes(300);
  EXPECT_EQ(util::HashBytes128(page),
            util::HashBytes128(page, util::ProcessSipHashKey()));
}

TEST(HashBytes128Test, ZeroProductDoesNotEraseTheLane) {
  // Lane 0 multiplies (word0 ^ key.k0) by (word1 ^ key.k1). With word0 ==
  // key.k0 that product is zero for every word1 (and with word1 == key.k1
  // for every word0), so the lane must still take the other word in by
  // another path; and a later stripe's zero product must not discard what
  // came before.
  util::Rng rng(11);
  for (size_t len : {size_t{16}, size_t{64}, size_t{100}, size_t{192}}) {
    std::set<std::pair<uint64_t, uint64_t>> seen;
    std::string bytes = RandomBytes(rng, len);
    PutWordLe(bytes, 0, kTestKey.k0);
    for (uint64_t v = 0; v < 2000; ++v) {
      PutWordLe(bytes, 8, v);  // the word multiplied by zero
      EXPECT_TRUE(seen.insert(Digest(bytes)).second)
          << "length " << len << ", word1 " << v;
    }
    seen.clear();
    PutWordLe(bytes, 8, kTestKey.k1);
    for (uint64_t v = 0; v < 2000; ++v) {
      PutWordLe(bytes, 0, v);
      EXPECT_TRUE(seen.insert(Digest(bytes)).second)
          << "length " << len << ", word0 " << v;
    }
    if (len < 72) continue;
    // A zero product in stripe 2 keeps what stripe 1 put into the lane.
    seen.clear();
    PutWordLe(bytes, 64, kTestKey.k0);
    for (uint64_t v = 0; v < 2000; ++v) {
      PutWordLe(bytes, 8, v);
      EXPECT_TRUE(seen.insert(Digest(bytes)).second)
          << "length " << len << ", stripe-1 word1 " << v;
    }
  }
}

}  // namespace
