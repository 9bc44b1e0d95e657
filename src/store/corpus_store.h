#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/store/format.h"
#include "src/tree/tree.h"
#include "src/util/hash.h"
#include "src/util/result.h"

/// \file corpus_store.h
/// Zero-copy corpus snapshots: parse once, serve forever.
///
/// A wrapper fleet evaluates fixed programs over a mostly-stable corpus of
/// pages. Parsing HTML dominates document preparation cost, yet the parse
/// result is a pure function of (page bytes, projection attribute) — so this
/// subsystem snapshots the *prepared* form to disk once and maps it back
/// read-only: the SoA tree columns (tree.h) land in the file byte-for-byte.
/// Re-opening a corpus costs one mmap; serving a document out of it costs a
/// header validation plus a checksum pass — no parsing, no node scans, no
/// per-node allocations. See format.h for the layout and README.md
/// for the design rationale.
///
/// Typical flow:
///
///   CorpusStore::Builder b;                      // offline / corpus_pack
///   b.AddHtml(page_bytes, "class");
///   b.Save("corpus.mdcs");
///   ...
///   auto store = CorpusStore::Open("corpus.mdcs");   // serving process
///   auto doc = (*store)->Find(HashBytes128(page_bytes), "class");
///   tree::Tree t = doc->MakeTree();              // zero-copy columns
///   auto out = wrapper::WrapTree(w, t);          // evaluate in place
///
/// The runtime wires this under its DocumentCache as the second-level cache
/// (miss → store lookup → only then parse), so warm processes serve entirely
/// out of shared, kernel-evictable file pages.

namespace mdatalog::store {

/// One packed document, viewed in place. Plain pointers into the store's
/// mapping: valid only while the CorpusStore that returned it is alive (the
/// runtime's CachedDocument keeps a shared_ptr to the store for exactly this
/// reason).
struct FrozenDocument {
  util::Hash128 content_hash;
  /// Attribute projection the document was prepared under ("" = raw tree).
  std::string_view project_attr;
  /// Zero-copy node columns + texts.
  tree::Tree::FrozenView view;
  /// Interned alphabet: (num_labels+1) prefix offsets + concatenated bytes.
  const uint32_t* label_offsets = nullptr;
  const char* label_base = nullptr;
  int32_t num_labels = 0;

  std::string_view label(int32_t id) const {
    return std::string_view(label_base + label_offsets[id],
                            label_offsets[id + 1] - label_offsets[id]);
  }

  /// A Tree over the mapped columns. Only the (small) label alphabet is
  /// rebuilt on the heap; nodes and texts are read in place.
  tree::Tree MakeTree() const;
};

/// An immutable, content-addressed collection of prepared documents, backed
/// by one mmap'd file.
///
/// Thread safety: Open() returns a fully-validated immutable object; Find()
/// and Get() are const and touch only the read-only mapping, so any number
/// of threads may serve from one store concurrently.
class CorpusStore {
 public:
  /// Accumulates documents in memory, then writes one store file.
  class Builder {
   public:
    /// Parses `html` exactly as the serving runtime would (including the
    /// optional attribute projection, Remark 2.2) and packs the result,
    /// keyed by HashBytes128(html). Re-adding the same (content, attr)
    /// replaces the earlier copy.
    util::Status AddHtml(std::string_view html,
                         const std::string& project_attr);
    /// Packs an already-built tree under an explicit content hash — for
    /// corpora whose documents do not come from the bundled HTML parser.
    util::Status AddTree(const tree::Tree& t, const util::Hash128& content_hash,
                         const std::string& project_attr);

    int64_t num_documents() const {
      return static_cast<int64_t>(docs_.size());
    }
    /// Total packed payload bytes so far (excluding file header/index).
    int64_t packed_bytes() const { return packed_bytes_; }

    /// Writes the store file. The builder remains usable (add more, save
    /// elsewhere).
    util::Status Save(const std::string& path) const;

   private:
    struct PackedDoc {
      util::Hash128 hash;
      uint64_t attr_hash = 0;
      std::string attr;  // exact bytes, for dedup beyond the 64-bit hash
      std::string blob;
    };
    std::vector<PackedDoc> docs_;
    std::unordered_map<uint64_t, std::vector<size_t>> by_key_;  // dedup
    int64_t packed_bytes_ = 0;
  };

  /// Maps `path` read-only and validates the header, index and bounds.
  /// Typed failures: InvalidArgument (not a store file / unreadable),
  /// FailedPrecondition (version, endianness or struct-layout mismatch —
  /// a rebuild is required, the bytes are fine), DataLoss (truncated or
  /// checksum-corrupt — the bytes are not fine).
  static util::Result<std::shared_ptr<const CorpusStore>> Open(
      const std::string& path);

  ~CorpusStore();
  CorpusStore(const CorpusStore&) = delete;
  CorpusStore& operator=(const CorpusStore&) = delete;

  /// Number of packed documents.
  int64_t size() const { return static_cast<int64_t>(index_.size()); }
  /// Bytes mapped (the whole file).
  int64_t mapped_bytes() const { return static_cast<int64_t>(size_); }
  const std::string& path() const { return path_; }

  /// Document by (content hash, projection attribute). NotFound when the
  /// corpus has no such document; DataLoss when it does but the blob fails
  /// validation (bit rot — the caller should fall back to parsing).
  util::Result<FrozenDocument> Find(const util::Hash128& content_hash,
                                    std::string_view project_attr) const;
  /// i-th document, in file order (0 <= i < size()).
  util::Result<FrozenDocument> Get(int64_t i) const;

 private:
  CorpusStore() = default;
  /// Validates the blob behind `e` and builds the in-place view.
  util::Result<FrozenDocument> Materialize(const IndexEntry& e) const;

  std::string path_;
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;
  bool mmapped_ = false;
  std::vector<unsigned char> fallback_;  // used when mmap is unavailable
  std::vector<IndexEntry> index_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_key_;
};

/// Packs one document into a standalone blob (DocHeader + sections). Exposed
/// for tests; Builder and the store file format wrap this.
std::string PackDocument(const tree::Tree& t, const util::Hash128& hash,
                         std::string_view project_attr);

/// The dedup/lookup key both Builder and CorpusStore hash by.
uint64_t DocKey64(const util::Hash128& content_hash, uint64_t attr_hash);

}  // namespace mdatalog::store
