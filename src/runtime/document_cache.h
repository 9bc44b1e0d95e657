#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/runtime/sharded_lfu_cache.h"
#include "src/runtime/tenant.h"
#include "src/store/corpus_store.h"
#include "src/telemetry/trace.h"
#include "src/tree/tree.h"
#include "src/util/hash.h"
#include "src/util/result.h"

/// \file document_cache.h
/// The shared-tree side of the serving runtime. A wrapper workload evaluates
/// one fixed program over streams of documents, and the same document is
/// typically requested many times (re-crawls, several wrappers on one page,
/// retries). The cache parses each distinct page once and shares the
/// immutable (attribute-projected) tree between all concurrent queries,
/// keyed by content hash. Both engines read that tree directly, so an entry's
/// byte cost is fixed when it is prepared and charged once, at insert.
///
/// The sharding / TinyLFU / byte-budget / fair-share machinery lives in
/// ShardedLfuCache (sharded_lfu_cache.h — one template shared with the
/// result memo); this file adds what is document-specific: parsing,
/// attribute projection, the corpus-store second level, and the SipHash key
/// derivation over (content hash, projection attribute).

namespace mdatalog::runtime {

/// One fully prepared, immutable document. Shared (shared_ptr const) between
/// every query that hits the same content: the tree is read-only, so
/// concurrent evaluations are safe. It holds exactly one tree: no unprojected
/// copy, no per-node attribute table, no relational (EDB) view.
class CachedDocument {
 public:
  /// Parses `html` in one pass (html::ParseTree); if `project_attr` is
  /// non-empty, that attribute is projected into the labels as nodes are
  /// created (Remark 2.2 — "div@sidebar"-style alphabets wrappers match on).
  static util::Result<std::shared_ptr<const CachedDocument>> Parse(
      std::string_view html, const std::string& project_attr);

  /// Rehydrates a document out of an open corpus store — no parsing: the
  /// tree columns and texts are read in place from the store's mapping (the
  /// store stays alive via the held shared_ptr). Any projection was applied
  /// at pack time.
  static std::shared_ptr<const CachedDocument> FromFrozen(
      const store::FrozenDocument& frozen,
      std::shared_ptr<const store::CorpusStore> store);

  /// The tree wrappers evaluate over: the parsed (and projected) tree, or
  /// the zero-copy frozen tree of a store-backed document.
  const tree::Tree& tree() const { return tree_; }

  /// Approximate heap footprint, measured once at construction — the
  /// document is immutable, so the cache charges it once, at insert.
  /// Store-backed documents charge only their owned heap — the mapped pages
  /// are shared and kernel-evictable, so the cache deliberately leaves them
  /// off its budget.
  int64_t ApproxBytes() const { return bytes_; }

 private:
  CachedDocument(tree::Tree tree,
                 std::shared_ptr<const store::CorpusStore> store)
      : tree_(std::move(tree)),
        store_(std::move(store)),
        bytes_(static_cast<int64_t>(sizeof(CachedDocument)) +
               tree_.ApproxBytes()) {}

  tree::Tree tree_;
  std::shared_ptr<const store::CorpusStore> store_;  // keepalive, may be null
  int64_t bytes_ = 0;
};

struct DocumentCacheOptions {
  /// The shared cache-tuning block (sharded_lfu_cache.h). Defaults match the
  /// pre-CacheOptions document cache: 64MB over 8 shards, TinyLFU on,
  /// sketch auto-sized for ~64KB documents.
  CacheOptions cache{.byte_budget = 64 << 20};
  /// Second-level cache: an open corpus store consulted on every in-memory
  /// miss before falling back to parsing. A store hit costs an mmap-backed
  /// blob validation instead of an HTML parse; a corrupt blob (DataLoss)
  /// silently falls through to the parse path. May be null.
  std::shared_ptr<const store::CorpusStore> corpus_store = nullptr;
  /// Tenant registry for fair-share eviction protection and per-tenant
  /// accounting; null = single-tenant behavior. Must outlive the cache.
  const TenantRegistry* tenants = nullptr;
};

struct DocumentCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Misses parsed but denied a cache slot by TinyLFU (served uncached).
  int64_t admission_rejects = 0;
  /// Misses denied a slot because every scannable victim was fair-share
  /// protected (served uncached).
  int64_t fair_share_rejects = 0;
  /// In-memory misses served from the corpus store instead of a parse.
  int64_t store_hits = 0;
  int64_t bytes_in_use = 0;
  int64_t byte_budget = 0;
  int32_t entries = 0;
  int32_t shards = 0;
};

/// Content-addressed document cache: a ShardedLfuCache over (128-bit content
/// hash, projection attribute) keys — two wrappers with different
/// projections see different trees and must not share an entry — plus the
/// corpus-store second level.
///
/// The page is identified by its content hash, HashBytes128 under the
/// per-process random key, so an untrusted tenant cannot search offline for
/// two pages that share an entry. The cache key hash is keyed SipHash over
/// that hash and the attribute, so a tenant cannot precompute pages that
/// collide into one shard or alias another tenant's sketch counters either.
///
/// Thread safety: all public methods are safe to call concurrently.
class DocumentCache {
 public:
  explicit DocumentCache(const DocumentCacheOptions& options);
  /// Convenience: default sharding/admission at the given budget.
  explicit DocumentCache(int64_t byte_budget)
      : DocumentCache(
            DocumentCacheOptions{.cache = {.byte_budget = byte_budget}}) {}

  /// Returns the shared document for `html`, parsing it on miss (and
  /// admitting it if the shard's admission policy agrees). A byte_budget of
  /// 0 disables caching (every call parses).
  util::Result<std::shared_ptr<const CachedDocument>> GetOrParse(
      std::string_view html, const std::string& project_attr);

  /// Same, with the content hash precomputed by the caller (the runtime
  /// already hashed the page for its memo key — don't re-scan the bytes).
  /// `content_hash` must equal HashBytes128(html) under the process key.
  /// `span`, when non-null, is the caller's open trace span for this lookup:
  /// it is tagged with the outcome ("hit", "store", "parse", or "uncached")
  /// and carries admitted=0 when admission denies the prepared document a
  /// slot.
  /// `tenant` pays for the entry's bytes and is the fair-share principal.
  util::Result<std::shared_ptr<const CachedDocument>> GetOrParse(
      std::string_view html, const std::string& project_attr,
      const util::Hash128& content_hash, telemetry::TraceSpan* span = nullptr,
      TenantId tenant = kDefaultTenant);

  /// Aggregated over all shards.
  DocumentCacheStats stats() const;
  /// One tenant's slice (hits/misses/resident bytes/fair-share rejects).
  TenantCacheStats tenant_stats(TenantId tenant) const {
    return cache_.tenant_stats(tenant);
  }

  int32_t num_shards() const { return cache_.num_shards(); }

 private:
  struct Key {
    util::Hash128 content_hash;
    std::string attr;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(KeyHash64(k.content_hash, k.attr));
    }
  };

  /// Keyed SipHash over both content-hash halves plus the projection
  /// attribute: shard router, sketch key and bucket hash in one value.
  static uint64_t KeyHash64(const util::Hash128& content_hash,
                            const std::string& attr);
  static int64_t DocumentCost(const Key& key, const CachedDocument& doc);

  /// Prepares a document for `html` without parsing if the corpus store has
  /// it (the store hashes `html` again, under the snapshot's key); falls back
  /// to CachedDocument::Parse. Called outside shard locks.
  /// Sets `*from_store` when the document was rehydrated from the corpus
  /// store; the caller books the store_hits stat only if that copy is the one
  /// it actually serves (a preparation that loses the concurrent insert race
  /// on the same content hash is discarded and must not be counted).
  util::Result<std::shared_ptr<const CachedDocument>> PrepareDocument(
      std::string_view html, const std::string& project_attr,
      bool* from_store);

  ShardedLfuCache<Key, CachedDocument, KeyHasher> cache_;
  std::shared_ptr<const store::CorpusStore> corpus_store_;  // may be null
  mutable std::atomic<int64_t> store_hits_{0};
};

}  // namespace mdatalog::runtime
