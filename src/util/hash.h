#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <string_view>

#include "src/util/bits.h"

/// \file hash.h
/// Content hashing shared by the serving caches (src/runtime/) and the
/// corpus store (src/store/). Three families, each for one kind of input:
///
///  * HashBytes128 — the page hash. Pages are untrusted, and a collision
///    between two pages makes the result memo and the document cache serve
///    one page's answer for another's, so it is keyed: the serving caches
///    hash under the per-process random key, and a corpus snapshot under
///    its own key, stored in its header. It is a word-at-a-time multiply
///    hash that runs at memory speed; the key makes collisions unsearchable
///    offline, but it is not a PRF, and under a public key (the store's
///    checksums) collisions are easy to construct.
///  * HashBytes — unkeyed FNV-1a, stable across runs. Only for trusted
///    input: program text fingerprints and projection attribute names.
///  * SipHash-2-4 (SipHasher / SipHash) — keyed, for small structured cache
///    keys: shard routing, sketch keys and bucket placement, where an
///    unkeyed 64-bit hash would let a tenant skew one shard, alias the
///    frequency sketch or degenerate a bucket into a list.

namespace mdatalog::util {

/// FNV-1a 64-bit. Stable across runs; used for keys over *trusted* inputs
/// (program text fingerprints).
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

/// 128-bit key for SipHash and HashBytes128. Equal keys produce equal
/// hashes; the process key below is random, so hash values under it are NOT
/// stable across runs — never persist them.
struct SipHashKey {
  uint64_t k0 = 0;
  uint64_t k1 = 0;
};

/// A fresh key from std::random_device.
inline SipHashKey RandomSipHashKey() {
  std::random_device rd;
  auto r64 = [&rd] {
    return (static_cast<uint64_t>(rd()) << 32) ^ static_cast<uint64_t>(rd());
  };
  return SipHashKey{r64(), r64()};
}

/// The process-wide random key the in-memory caches hash with. One key per
/// process: cache keys never cross process boundaries (a corpus snapshot
/// carries its own key), and a shared key lets every cache reuse one secret.
inline const SipHashKey& ProcessSipHashKey() {
  static const SipHashKey key = RandomSipHashKey();
  return key;
}

/// A 128-bit digest (HashBytes128).
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const Hash128&) const = default;
};

namespace hash_internal {

inline uint64_t Load64Le(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// The 128-bit product of a and b, its halves xor-folded to 64 bits.
inline uint64_t FoldedMultiply(uint64_t a, uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

inline constexpr uint64_t kStripeBytes = 64;
inline constexpr uint64_t kLaneMul = 0x9e3779b97f4a7c15ULL;  // odd

/// One 64-byte stripe: lane i takes the words a, b at 16i and 16i + 8 and
/// becomes acc * kLaneMul + a + b + fold((a ^ s[2i]) * (b ^ s[2i+1])). The
/// odd multiplier makes lane order matter and keeps the update a bijection
/// of the lane's prior state; the raw a + b keeps a word in play when the
/// product is zero (a == s[2i] or b == s[2i+1]).
inline void Stripe(uint64_t acc[4], const unsigned char* p,
                   const uint64_t s[8]) {
  for (int i = 0; i < 4; ++i) {
    const uint64_t a = Load64Le(p + 16 * i);
    const uint64_t b = Load64Le(p + 16 * i + 8);
    acc[i] = acc[i] * kLaneMul + a + b +
             FoldedMultiply(a ^ s[2 * i], b ^ s[2 * i + 1]);
  }
}

}  // namespace hash_internal

/// Keyed 128-bit page hash (see the file comment). Bytes go through four
/// independent 64-bit lanes in 64-byte stripes. The tail is zero-padded to
/// one more stripe, so the length, mixed into both output words, is what
/// tells apart inputs that differ only by trailing zero bytes. Lane 0's
/// multiplicands are word0 ^ key.k0 and word1 ^ key.k1 (tests/hash_test.cc
/// builds a zero product from that).
inline Hash128 HashBytes128(std::string_view bytes,
                            const SipHashKey& key = ProcessSipHashKey()) {
  using namespace hash_internal;
  uint64_t s[8] = {key.k0, key.k1};
  for (int i = 2; i < 8; ++i) s[i] = Mix64(s[i - 2] + kLaneMul * i);
  uint64_t acc[4] = {s[7], s[6], s[5], s[4]};

  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const uint64_t n = bytes.size();
  uint64_t left = n;
  for (; left >= kStripeBytes; p += kStripeBytes, left -= kStripeBytes) {
    Stripe(acc, p, s);
  }
  if (left > 0) {
    unsigned char tail[kStripeBytes] = {};
    std::memcpy(tail, p, left);
    Stripe(acc, tail, s);
  }

  Hash128 h;
  h.lo = Mix64(n * 0xc2b2ae3d27d4eb4fULL +
               FoldedMultiply(acc[0] ^ s[2], acc[1] ^ s[3]) +
               FoldedMultiply(acc[2] ^ s[4], acc[3] ^ s[5]));
  h.hi = Mix64(~n * 0x165667b19e3779f9ULL +
               FoldedMultiply(acc[0] ^ s[6], acc[2] ^ s[1]) +
               FoldedMultiply(acc[1] ^ s[7], acc[3] ^ s[0]));
  return h;
}

/// Incremental SipHash-2-4 (Aumasson & Bernstein). Feed any mix of raw byte
/// ranges and 64-bit words, then Finish() once. The word form hashes the
/// value's 8 little-endian bytes — callers composing structured keys
/// (content hash halves, program fingerprints) avoid staging them through a
/// temporary buffer.
class SipHasher {
 public:
  explicit SipHasher(const SipHashKey& key = ProcessSipHashKey())
      : v0_(key.k0 ^ 0x736f6d6570736575ULL),
        v1_(key.k1 ^ 0x646f72616e646f6dULL),
        v2_(key.k0 ^ 0x6c7967656e657261ULL),
        v3_(key.k1 ^ 0x7465646279746573ULL) {}

  void Update(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    total_ += len;
    if (buffered_ > 0) {
      while (buffered_ < 8 && len > 0) {
        buf_[buffered_++] = *p++;
        --len;
      }
      if (buffered_ == 8) {
        Compress(hash_internal::Load64Le(buf_));
        buffered_ = 0;
      }
    }
    while (len >= 8) {
      Compress(hash_internal::Load64Le(p));
      p += 8;
      len -= 8;
    }
    while (len > 0) {
      buf_[buffered_++] = *p++;
      --len;
    }
  }

  void Update(std::string_view bytes) { Update(bytes.data(), bytes.size()); }

  void Update64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Update(b, 8);
  }

  /// Finalizes and returns the 64-bit digest. The hasher must not be
  /// updated again afterwards.
  uint64_t Finish() {
    uint64_t last = static_cast<uint64_t>(total_ & 0xff) << 56;
    for (size_t i = 0; i < buffered_; ++i) {
      last |= static_cast<uint64_t>(buf_[i]) << (8 * i);
    }
    Compress(last);
    v2_ ^= 0xff;
    Round();
    Round();
    Round();
    Round();
    return v0_ ^ v1_ ^ v2_ ^ v3_;
  }

 private:
  static uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

  void Round() {
    v0_ += v1_;
    v1_ = Rotl(v1_, 13);
    v1_ ^= v0_;
    v0_ = Rotl(v0_, 32);
    v2_ += v3_;
    v3_ = Rotl(v3_, 16);
    v3_ ^= v2_;
    v0_ += v3_;
    v3_ = Rotl(v3_, 21);
    v3_ ^= v0_;
    v2_ += v1_;
    v1_ = Rotl(v1_, 17);
    v1_ ^= v2_;
    v2_ = Rotl(v2_, 32);
  }

  void Compress(uint64_t m) {  // the c = 2 compression rounds of SipHash-2-4
    v3_ ^= m;
    Round();
    Round();
    v0_ ^= m;
  }

  uint64_t v0_, v1_, v2_, v3_;
  unsigned char buf_[8] = {};
  size_t buffered_ = 0;
  uint64_t total_ = 0;
};

/// One-shot SipHash-2-4 of a byte range under `key` (the process key by
/// default).
inline uint64_t SipHash(std::string_view bytes,
                        const SipHashKey& key = ProcessSipHashKey()) {
  SipHasher h(key);
  h.Update(bytes);
  return h.Finish();
}

}  // namespace mdatalog::util
