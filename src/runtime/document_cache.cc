#include "src/runtime/document_cache.h"

#include <utility>

#include "src/html/parser.h"
#include "src/util/check.h"

namespace mdatalog::runtime {

util::Result<std::shared_ptr<const CachedDocument>> CachedDocument::Parse(
    std::string_view html, const std::string& project_attr) {
  MD_ASSIGN_OR_RETURN(tree::Tree t, html::ParseTree(html, project_attr));
  // Not make_shared: the constructor is private.
  return std::shared_ptr<const CachedDocument>(
      new CachedDocument(std::move(t), nullptr));
}

std::shared_ptr<const CachedDocument> CachedDocument::FromFrozen(
    const store::FrozenDocument& frozen,
    std::shared_ptr<const store::CorpusStore> store) {
  // Zero-copy columns into the mapping, which `store` keeps alive.
  return std::shared_ptr<const CachedDocument>(
      new CachedDocument(frozen.MakeTree(), std::move(store)));
}

uint64_t DocumentCache::KeyHash64(const util::Hash128& content_hash,
                                  const std::string& attr) {
  // Both 128-bit halves plus the projection attribute: entries that differ
  // only in projection must shard/sketch independently. Keyed SipHash, not a
  // public mix of the content hash — shard routing and sketch rows must not
  // be precomputable by a tenant that controls the page bytes.
  util::SipHasher h;
  h.Update64(content_hash.lo);
  h.Update64(content_hash.hi);
  h.Update(attr);
  return h.Finish();
}

int64_t DocumentCache::DocumentCost(const Key& /*key*/,
                                    const CachedDocument& doc) {
  return doc.ApproxBytes();
}

DocumentCache::DocumentCache(const DocumentCacheOptions& options)
    : cache_(options.cache, &DocumentCost, options.tenants),
      corpus_store_(options.corpus_store) {}

util::Result<std::shared_ptr<const CachedDocument>> DocumentCache::GetOrParse(
    std::string_view html, const std::string& project_attr) {
  return GetOrParse(html, project_attr, util::HashBytes128(html));
}

util::Result<std::shared_ptr<const CachedDocument>> DocumentCache::GetOrParse(
    std::string_view html, const std::string& project_attr,
    const util::Hash128& content_hash, telemetry::TraceSpan* span,
    TenantId tenant) {
  Key key{content_hash, project_attr};
  const uint64_t key_hash = KeyHash64(content_hash, project_attr);

  if (auto doc = cache_.Lookup(key, key_hash, tenant); doc != nullptr) {
    if (span != nullptr) span->Tag("hit");
    return doc;
  }

  // Prepare outside the shard lock: parsing (or store rehydration) is the
  // expensive part, and concurrent misses on *different* documents must not
  // serialize. Concurrent misses on the same document may prepare twice; the
  // second insert loses the map slot and its copy dies with its callers —
  // wasteful but correct. store_hits is booked only once the locally-
  // prepared document is actually served (below): a rehydration that loses
  // the insert race is discarded work, and counting it would double-count
  // the page against a concurrent preparer of the same hash.
  bool from_store = false;
  MD_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedDocument> doc,
      PrepareDocument(html, project_attr, &from_store));
  if (span != nullptr) span->Tag(from_store ? "store" : "parse");
  if (!cache_.enabled()) {
    if (from_store) store_hits_.fetch_add(1, std::memory_order_relaxed);
    return doc;
  }

  auto outcome = cache_.Insert(key, key_hash, std::move(doc), tenant);
  if (outcome.raced) {
    // Lost the parse race; serve the resident copy (our own preparation is
    // discarded, so it must not appear in the store_hits accounting).
    return outcome.value;
  }
  if (from_store) store_hits_.fetch_add(1, std::memory_order_relaxed);
  if (!outcome.admitted && span != nullptr) span->Value("admitted", 0);
  return outcome.value;
}

util::Result<std::shared_ptr<const CachedDocument>>
DocumentCache::PrepareDocument(std::string_view html,
                               const std::string& project_attr,
                               bool* from_store) {
  *from_store = false;
  if (corpus_store_ != nullptr) {
    telemetry::TraceSpan span(telemetry::CurrentTrace(), "store.rehydrate");
    util::Result<store::FrozenDocument> frozen =
        corpus_store_->Find(html, project_attr);
    if (frozen.ok()) {
      *from_store = true;
      return CachedDocument::FromFrozen(*frozen, corpus_store_);
    }
    span.Tag("miss");
    // NotFound: the corpus simply doesn't have this page. DataLoss: it does
    // but the blob failed validation — the parse below is the safe fallback
    // either way (we still hold the original bytes).
  }
  telemetry::TraceSpan span(telemetry::CurrentTrace(), "html.parse");
  return CachedDocument::Parse(html, project_attr);
}

DocumentCacheStats DocumentCache::stats() const {
  const ShardedCacheStats s = cache_.stats();
  DocumentCacheStats out;
  out.hits = s.hits;
  out.misses = s.misses;
  out.evictions = s.evictions;
  out.admission_rejects = s.admission_rejects;
  out.fair_share_rejects = s.fair_share_rejects;
  out.store_hits = store_hits_.load(std::memory_order_relaxed);
  out.bytes_in_use = s.bytes_in_use;
  out.byte_budget = s.byte_budget;
  out.entries = s.entries;
  out.shards = s.shards;
  return out;
}

}  // namespace mdatalog::runtime
