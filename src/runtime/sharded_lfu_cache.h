#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/runtime/admission.h"
#include "src/runtime/tenant.h"
#include "src/util/bits.h"

/// \file sharded_lfu_cache.h
/// The one sharded TinyLFU byte-budget cache both serving stores instantiate
/// — ShardedLfuCache<Key, CachedDocument> is the document cache's core and
/// ShardedLfuCache<MemoKey, std::string> is the result memo. Before this
/// template the two were hand-rolled copies of the same ~150 lines
/// (document_cache.cc and the MemoShard block in runtime.cc) that had to be
/// kept in sync by review; now an eviction-policy change is one edit.
///
/// Structure (unchanged from the hand-rolled stores):
///  * N-way sharding by key hash (high 32 bits & mask) — per-shard mutex,
///    LRU list, byte budget and frequency sketch, shared-nothing: a hot key
///    serializes only its own shard;
///  * TinyLFU admission (admission.h): a candidate that would overflow the
///    shard must out-rank its victim in the frequency sketch or it is served
///    uncached — one-hit scan traffic cannot churn the resident set;
///  * byte accounting via a caller-supplied cost function, read once at
///    Insert — both cached value types are immutable, so a hit only splices
///    the LRU list;
///  * values held as shared_ptr<const V>: lookups copy a pointer under the
///    shard mutex, and evicted values stay alive for in-flight readers.
///
/// New with the template: tenant fair share. Every entry is tagged with the
/// tenant that inserted it and each shard keeps per-tenant byte totals. When
/// a TenantRegistry is attached (and CacheOptions::fair_share is on),
/// eviction walks from the LRU tail skipping entries whose tenant holds no
/// more than its guaranteed share of the shard (weight / Σ weights ×
/// shard budget) — so tenant B's cold flood evicts B's own older entries and
/// bounces off tenant A's within-share hot set (fair_share_rejects counts
/// the bounces; the candidate is served uncached, exactly like a TinyLFU
/// reject). The tail walk is capped at kMaxVictimScan entries to bound the
/// critical section; a shard whose whole scannable tail is protected rejects
/// the candidate rather than scanning the full list. Without a registry (or
/// with fair_share off) the victim is always the exact LRU tail — bit-for-
/// bit the pre-template behavior.
///
/// Keys are hashed with keyed SipHash at the call sites (util/hash.h): shard
/// routing, sketch rows and bucket placement must not be predictable once
/// tenants are mutually untrusted — an attacker who can precompute 64-bit
/// collisions offline can skew every key onto one shard, alias its victims'
/// sketch counters, or degrade a bucket chain to linear scans. The cache
/// itself only sees the resulting 64-bit key hash.
///
/// Thread safety: all public methods are safe to call concurrently.

namespace mdatalog::runtime {

/// Cache-tuning knobs shared by every ShardedLfuCache instantiation — one
/// struct so the document cache and the result memo cannot drift apart by
/// review oversight.
struct CacheOptions {
  /// Total byte budget, split evenly across shards; 0 disables caching
  /// (every Lookup misses, every Insert declines).
  int64_t byte_budget = 0;
  /// Shard count, rounded up to a power of two (1 = single mutex).
  int32_t num_shards = 8;
  /// TinyLFU admission (scan resistance). false = plain LRU: every miss is
  /// admitted, evicting from the tail.
  bool tinylfu_admission = true;
  /// Tenant fair-share eviction protection (needs a TenantRegistry attached
  /// to take effect). false = tenants share the budget unprotected.
  bool fair_share = true;
  /// Expected bytes per entry (documents run ~64KB, memo entries ~4KB). It
  /// sizes each shard's sketch: ~16× the resident entry count the shard
  /// budget implies, clamped to [1024, 1M] counters.
  int64_t sketch_entry_bytes = 64 << 10;
};

/// Aggregated over all shards.
struct ShardedCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Candidates denied a slot by TinyLFU (served uncached).
  int64_t admission_rejects = 0;
  /// Candidates denied because every scannable victim was fair-share
  /// protected (served uncached).
  int64_t fair_share_rejects = 0;
  int64_t bytes_in_use = 0;
  int64_t byte_budget = 0;
  int32_t entries = 0;
  int32_t shards = 0;
};

/// One tenant's slice of a cache (aggregated over shards).
struct TenantCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t bytes = 0;
  int64_t fair_share_rejects = 0;
};

template <typename Key, typename Value, typename KeyHasher>
class ShardedLfuCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;
  /// Byte charge of an entry, read once at Insert; values are immutable, so
  /// the charge is fixed for the entry's lifetime.
  using CostFn = int64_t (*)(const Key& key, const Value& value);

  ShardedLfuCache(const CacheOptions& options, CostFn cost,
                  const TenantRegistry* tenants = nullptr)
      : byte_budget_(options.byte_budget),
        shard_byte_budget_(
            options.byte_budget <= 0
                ? 0
                : std::max<int64_t>(options.byte_budget /
                                        util::RoundUpPow2(options.num_shards),
                                    1)),
        cost_(cost),
        tenants_(tenants),
        fair_share_(options.fair_share && tenants != nullptr) {
    const int32_t n = util::RoundUpPow2(options.num_shards);
    shard_mask_ = static_cast<uint64_t>(n - 1);
    shards_.reserve(n);
    for (int32_t i = 0; i < n; ++i) {
      auto shard = std::make_unique<Shard>();
      if (options.tinylfu_admission && byte_budget_ > 0) {
        const int64_t entry = std::max<int64_t>(options.sketch_entry_bytes, 1);
        shard->lfu.emplace(static_cast<int32_t>(std::clamp<int64_t>(
            shard_byte_budget_ / entry * 16, 1024, 1 << 20)));
      }
      shards_.push_back(std::move(shard));
    }
  }

  ShardedLfuCache(const ShardedLfuCache&) = delete;
  ShardedLfuCache& operator=(const ShardedLfuCache&) = delete;

  bool enabled() const { return byte_budget_ > 0; }
  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }

  /// Returns the cached value or null. A hit records the access in the
  /// shard's sketch and bumps the entry to MRU. A disabled cache
  /// (byte_budget 0) counts the miss and returns null.
  ValuePtr Lookup(const Key& key, uint64_t key_hash,
                  TenantId tenant = kDefaultTenant) {
    Shard& shard = ShardFor(key_hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (byte_budget_ <= 0) {
      ++shard.misses;
      ++TenantSlot(shard, tenant).misses;
      return nullptr;
    }
    if (shard.lfu.has_value()) shard.lfu->RecordAccess(key_hash);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.hits;
      ++TenantSlot(shard, tenant).hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->value;
    }
    ++shard.misses;
    ++TenantSlot(shard, tenant).misses;
    return nullptr;
  }

  struct InsertOutcome {
    ValuePtr value;          ///< what to serve (the raced-in copy on a race)
    bool admitted = false;   ///< a slot was taken (false = served uncached)
    bool raced = false;      ///< another thread inserted this key first
    bool fair_share_rejected = false;
  };

  /// Inserts `value` (prepared outside any shard lock), charging it to
  /// `tenant`. On a concurrent-insert race the already-resident copy wins
  /// and is returned (bumped to MRU); the caller's copy dies with it.
  InsertOutcome Insert(const Key& key, uint64_t key_hash, ValuePtr value,
                       TenantId tenant = kDefaultTenant) {
    if (byte_budget_ <= 0) return InsertOutcome{std::move(value)};
    Shard& shard = ShardFor(key_hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.index.find(key); it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return InsertOutcome{it->second->value, false, true, false};
    }
    const int64_t cost = cost_(key, *value);
    while (shard.bytes_in_use + cost > shard_byte_budget_ &&
           !shard.lru.empty()) {
      auto victim = FindVictim(shard, tenant);
      if (victim == shard.lru.end()) {
        // Every scannable victim belongs to a tenant within its share: the
        // candidate is served uncached rather than breaking the guarantee.
        ++shard.fair_share_rejects;
        ++TenantSlot(shard, tenant).fair_share_rejects;
        return InsertOutcome{std::move(value), false, false, true};
      }
      if (shard.lfu.has_value() &&
          !shard.lfu->Admit(key_hash, victim->key_hash)) {
        ++shard.admission_rejects;
        return InsertOutcome{std::move(value)};
      }
      Evict(shard, victim);
    }
    shard.lru.push_front(Entry{key, key_hash, value, cost, tenant});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes_in_use += cost;
    TenantSlot(shard, tenant).bytes += cost;
    return InsertOutcome{std::move(value), true, false, false};
  }

  ShardedCacheStats stats() const {
    ShardedCacheStats out;
    out.byte_budget = byte_budget_;
    out.shards = num_shards();
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.evictions += shard->evictions;
      out.admission_rejects += shard->admission_rejects;
      out.fair_share_rejects += shard->fair_share_rejects;
      out.bytes_in_use += shard->bytes_in_use;
      out.entries += static_cast<int32_t>(shard->lru.size());
    }
    return out;
  }

  TenantCacheStats tenant_stats(TenantId tenant) const {
    TenantCacheStats out;
    if (tenant < 0) return out;
    const size_t slot = static_cast<size_t>(tenant);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      if (slot >= shard->tenant.size()) continue;
      const TenantCacheStats& s = shard->tenant[slot];
      out.hits += s.hits;
      out.misses += s.misses;
      out.bytes += s.bytes;
      out.fair_share_rejects += s.fair_share_rejects;
    }
    return out;
  }

 private:
  struct Entry {
    Key key;
    uint64_t key_hash = 0;  // sketch key (also the shard router input)
    ValuePtr value;
    int64_t charged_bytes = 0;
    TenantId tenant = kDefaultTenant;  // the inserter pays for the bytes
  };
  using EntryIt = typename std::list<Entry>::iterator;
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, EntryIt, KeyHasher> index;
    std::optional<TinyLfuAdmission> lfu;
    int64_t bytes_in_use = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t admission_rejects = 0;
    int64_t fair_share_rejects = 0;
    std::vector<TenantCacheStats> tenant;  // indexed by TenantId, on demand
  };

  /// Bound on the LRU-tail walk when fair-share protection skips victims —
  /// keeps the per-eviction critical section O(1), not O(shard).
  static constexpr int kMaxVictimScan = 8;

  Shard& ShardFor(uint64_t key_hash) {
    return *shards_[(key_hash >> 32) & shard_mask_];
  }

  TenantCacheStats& TenantSlot(Shard& shard, TenantId tenant) {
    const size_t slot = tenant < 0 ? 0 : static_cast<size_t>(tenant);
    if (slot >= shard.tenant.size()) shard.tenant.resize(slot + 1);
    return shard.tenant[slot];
  }

  /// Requires shard.mu. True when evicting `e` on behalf of `for_tenant`
  /// would violate e's tenant's guaranteed share. A tenant's own entries are
  /// never protected from it (self-eviction is how a flooding tenant churns
  /// within its share).
  bool Protected(Shard& shard, const Entry& e, TenantId for_tenant) {
    if (!fair_share_ || e.tenant == for_tenant) return false;
    const int64_t guaranteed = static_cast<int64_t>(
        tenants_->ShareOf(e.tenant) * static_cast<double>(shard_byte_budget_));
    return TenantSlot(shard, e.tenant).bytes <= guaranteed;
  }

  /// Requires shard.mu and a non-empty LRU. The evictable entry closest to
  /// the tail, skipping fair-share-protected entries; lru.end() when no
  /// victim exists within the scan cap.
  EntryIt FindVictim(Shard& shard, TenantId for_tenant) {
    int scanned = 0;
    for (auto it = std::prev(shard.lru.end());; --it) {
      if (!Protected(shard, *it, for_tenant)) return it;
      if (it == shard.lru.begin() || ++scanned >= kMaxVictimScan) {
        return shard.lru.end();
      }
    }
  }

  /// Requires shard.mu.
  void Evict(Shard& shard, EntryIt victim) {
    shard.bytes_in_use -= victim->charged_bytes;
    TenantSlot(shard, victim->tenant).bytes -= victim->charged_bytes;
    ++shard.evictions;
    shard.index.erase(victim->key);
    shard.lru.erase(victim);
  }

  const int64_t byte_budget_;        // total, across shards
  const int64_t shard_byte_budget_;  // per shard
  const CostFn cost_;
  const TenantRegistry* const tenants_;  // may be null
  const bool fair_share_;
  uint64_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mdatalog::runtime
