#include "src/store/corpus_store.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "src/html/parser.h"
#include "src/util/bits.h"
#include "src/util/check.h"

#if defined(__unix__) || defined(__APPLE__)
#define MDATALOG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mdatalog::store {

namespace {

/// Reads a POD header out of an arbitrary (verified-in-bounds) offset. The
/// mapping is only page-aligned, so struct reads go through memcpy.
template <typename T>
T ReadPod(const unsigned char* p) {
  T out;
  std::memcpy(&out, p, sizeof(T));
  return out;
}

}  // namespace

uint64_t DocKey64(const util::Hash128& content_hash, uint64_t attr_hash) {
  return util::Mix64(content_hash.lo * 1099511628211ULL ^ content_hash.hi ^
                     attr_hash);
}

// ---------------------------------------------------------------------------
// Packing.
// ---------------------------------------------------------------------------

std::string PackDocument(const tree::Tree& t, const util::Hash128& hash,
                         std::string_view project_attr) {
  const int32_t n = t.size();
  MD_CHECK(n > 0);
  const int32_t num_labels = t.labels().size();

  uint64_t label_bytes = 0;
  for (int32_t id = 0; id < num_labels; ++id) {
    label_bytes += t.labels().Name(id).size();
  }
  uint64_t text_bytes = 0;
  bool has_text = false;
  for (tree::NodeId node = 0; node < n; ++node) {
    const std::string_view text = t.text(node);
    text_bytes += text.size();
    has_text = has_text || !text.empty();
  }

  DocHeader h;
  h.num_nodes = static_cast<uint32_t>(n);
  h.num_labels = static_cast<uint32_t>(num_labels);
  h.hash_lo = hash.lo;
  h.hash_hi = hash.hi;
  h.off_nodes = static_cast<uint32_t>(AlignUp8(sizeof(DocHeader)));
  const uint64_t nodes_bytes = uint64_t{6} * n * sizeof(int32_t);
  h.off_labels = static_cast<uint32_t>(AlignUp8(h.off_nodes + nodes_bytes));
  const uint64_t labels_sec =
      static_cast<uint64_t>(num_labels + 1) * sizeof(uint32_t) + label_bytes;
  uint64_t cursor = h.off_labels + labels_sec;
  uint64_t texts_sec = 0;
  if (has_text) {
    h.off_texts = static_cast<uint32_t>(AlignUp8(cursor));
    texts_sec = uint64_t{static_cast<uint32_t>(n) + 1} * sizeof(uint32_t) +
                text_bytes;
    cursor = h.off_texts + texts_sec;
  }
  h.off_attr = static_cast<uint32_t>(AlignUp8(cursor));
  h.attr_len = static_cast<uint32_t>(project_attr.size());
  h.blob_size = static_cast<uint32_t>(h.off_attr + project_attr.size());

  std::string blob(h.blob_size, '\0');
  unsigned char* base = reinterpret_cast<unsigned char*>(blob.data());

  // nodes: six consecutive column arrays in Tree::Columns order.
  const tree::Tree::Columns cols = t.columns();
  {
    unsigned char* p = base + h.off_nodes;
    const size_t col = static_cast<size_t>(n) * sizeof(int32_t);
    for (const int32_t* src : {cols.parent, cols.first_child, cols.last_child,
                               cols.prev_sibling, cols.next_sibling,
                               cols.label}) {
      std::memcpy(p, src, col);
      p += col;
    }
  }

  // labels: prefix offsets + bytes.
  {
    uint32_t* offs = reinterpret_cast<uint32_t*>(base + h.off_labels);
    char* bytes = reinterpret_cast<char*>(offs + num_labels + 1);
    uint32_t off = 0;
    for (int32_t id = 0; id < num_labels; ++id) {
      offs[id] = off;
      const std::string& name = t.labels().Name(id);
      std::memcpy(bytes + off, name.data(), name.size());
      off += static_cast<uint32_t>(name.size());
    }
    offs[num_labels] = off;
  }

  // texts: prefix offsets + bytes (omitted when no node carries text).
  if (has_text) {
    uint32_t* offs = reinterpret_cast<uint32_t*>(base + h.off_texts);
    char* bytes = reinterpret_cast<char*>(offs + n + 1);
    uint32_t off = 0;
    for (tree::NodeId node = 0; node < n; ++node) {
      offs[node] = off;
      const std::string_view text = t.text(node);
      if (text.empty()) continue;  // data() may be null
      std::memcpy(bytes + off, text.data(), text.size());
      off += static_cast<uint32_t>(text.size());
    }
    offs[n] = off;
  }

  std::memcpy(base + h.off_attr, project_attr.data(), project_attr.size());

  h.payload_checksum =
      Checksum64(base + sizeof(DocHeader), h.blob_size - sizeof(DocHeader));
  std::memcpy(base, &h, sizeof(DocHeader));
  return blob;
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

util::Status CorpusStore::Builder::AddHtml(std::string_view html,
                                           const std::string& project_attr) {
  MD_ASSIGN_OR_RETURN(tree::Tree t, html::ParseTree(html, project_attr));
  return AddTree(t, util::HashBytes128(html), project_attr);
}

util::Status CorpusStore::Builder::AddTree(const tree::Tree& t,
                                           const util::Hash128& content_hash,
                                           const std::string& project_attr) {
  if (t.size() <= 0) {
    return util::Status::InvalidArgument("cannot pack an empty tree");
  }
  const uint64_t attr_hash =
      project_attr.empty() ? 0 : util::HashBytes(project_attr);
  PackedDoc packed{content_hash, attr_hash, project_attr,
                   PackDocument(t, content_hash, project_attr)};
  const uint64_t key = DocKey64(content_hash, attr_hash);
  for (size_t i : by_key_[key]) {
    PackedDoc& existing = docs_[i];
    if (existing.hash == content_hash && existing.attr == project_attr) {
      packed_bytes_ += static_cast<int64_t>(packed.blob.size()) -
                       static_cast<int64_t>(existing.blob.size());
      existing = std::move(packed);  // same key: latest add wins
      return util::Status::OK();
    }
  }
  by_key_[key].push_back(docs_.size());
  packed_bytes_ += static_cast<int64_t>(packed.blob.size());
  docs_.push_back(std::move(packed));
  return util::Status::OK();
}

util::Status CorpusStore::Builder::Save(const std::string& path) const {
  FileHeader fh;
  fh.layout_checksum = kLayoutChecksum;
  fh.doc_count = docs_.size();

  std::vector<IndexEntry> index(docs_.size());
  uint64_t cursor = AlignUp8(sizeof(FileHeader));
  for (size_t i = 0; i < docs_.size(); ++i) {
    index[i].hash_lo = docs_[i].hash.lo;
    index[i].hash_hi = docs_[i].hash.hi;
    index[i].attr_hash = docs_[i].attr_hash;
    index[i].offset = cursor;
    index[i].size = docs_[i].blob.size();
    cursor = AlignUp8(cursor + docs_[i].blob.size());
  }
  fh.index_offset = cursor;
  const uint64_t index_bytes = index.size() * sizeof(IndexEntry);
  fh.index_checksum =
      index.empty() ? 0 : Checksum64(index.data(), index_bytes);
  fh.file_size = fh.index_offset + index_bytes;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::InvalidArgument("cannot open for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(&fh), sizeof(fh));
  uint64_t written = sizeof(fh);
  static constexpr char kPad[8] = {0};
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (written < index[i].offset) {  // alignment padding between blobs
      out.write(kPad, static_cast<std::streamsize>(index[i].offset - written));
      written = index[i].offset;
    }
    out.write(docs_[i].blob.data(),
              static_cast<std::streamsize>(docs_[i].blob.size()));
    written += docs_[i].blob.size();
  }
  if (written < fh.index_offset) {
    out.write(kPad, static_cast<std::streamsize>(fh.index_offset - written));
  }
  if (!index.empty()) {
    out.write(reinterpret_cast<const char*>(index.data()),
              static_cast<std::streamsize>(index_bytes));
  }
  out.flush();
  if (!out) {
    return util::Status::Internal("short write saving corpus store: " + path);
  }
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// Open / lookup.
// ---------------------------------------------------------------------------

CorpusStore::~CorpusStore() {
#if MDATALOG_HAVE_MMAP
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
#endif
}

util::Result<std::shared_ptr<const CorpusStore>> CorpusStore::Open(
    const std::string& path) {
  // Private ctor: can't make_shared.
  std::shared_ptr<CorpusStore> store(new CorpusStore());
  store->path_ = path;

#if MDATALOG_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::InvalidArgument("cannot open corpus store: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return util::Status::InvalidArgument("cannot stat corpus store: " + path);
  }
  store->size_ = static_cast<size_t>(st.st_size);
  if (store->size_ > 0) {
    void* map = ::mmap(nullptr, store->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      store->data_ = static_cast<const unsigned char*>(map);
      store->mmapped_ = true;
    }
  }
  ::close(fd);
#endif
  if (!store->mmapped_) {
    // mmap unavailable (or empty file): fall back to a heap copy so the rest
    // of the reader is identical.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
      return util::Status::InvalidArgument("cannot open corpus store: " +
                                           path);
    }
    const std::streamsize sz = in.tellg();
    store->fallback_.resize(static_cast<size_t>(sz));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(store->fallback_.data()), sz);
    if (!in) {
      return util::Status::DataLoss("cannot read corpus store: " + path);
    }
    store->data_ = store->fallback_.data();
    store->size_ = static_cast<size_t>(sz);
  }

  if (store->size_ < sizeof(FileHeader)) {
    return util::Status::DataLoss("corpus store truncated (no header): " +
                                  path);
  }
  const FileHeader fh = ReadPod<FileHeader>(store->data_);
  if (fh.magic != kFileMagic) {
    return util::Status::InvalidArgument("not a corpus store file: " + path);
  }
  if (fh.version != kFormatVersion) {
    return util::Status::FailedPrecondition(
        "unsupported corpus store version " + std::to_string(fh.version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        "): " + path);
  }
  if (fh.endian_tag != kEndianTag) {
    return util::Status::FailedPrecondition(
        "corpus store written with different endianness: " + path);
  }
  if (fh.layout_checksum != kLayoutChecksum) {
    return util::Status::FailedPrecondition(
        "corpus store layout mismatch (incompatible writer build): " + path);
  }
  if (fh.file_size != store->size_) {
    return util::Status::DataLoss(
        "corpus store truncated: header says " +
        std::to_string(fh.file_size) + " bytes, file has " +
        std::to_string(store->size_) + ": " + path);
  }
  const uint64_t index_bytes = fh.doc_count * sizeof(IndexEntry);
  if (fh.index_offset < sizeof(FileHeader) ||
      fh.index_offset > store->size_ ||
      index_bytes > store->size_ - fh.index_offset) {
    return util::Status::DataLoss("corpus store index out of bounds: " + path);
  }
  if (fh.doc_count > 0) {
    if (Checksum64(store->data_ + fh.index_offset, index_bytes) !=
        fh.index_checksum) {
      return util::Status::DataLoss("corpus store index checksum mismatch: " +
                                    path);
    }
    store->index_.resize(fh.doc_count);
    std::memcpy(store->index_.data(), store->data_ + fh.index_offset,
                index_bytes);
    for (size_t i = 0; i < store->index_.size(); ++i) {
      const IndexEntry& e = store->index_[i];
      if (e.offset < sizeof(FileHeader) || e.offset > fh.index_offset ||
          e.size < sizeof(DocHeader) || e.size > fh.index_offset - e.offset) {
        return util::Status::DataLoss("corpus store entry " +
                                      std::to_string(i) +
                                      " out of bounds: " + path);
      }
      store->by_key_[DocKey64({e.hash_lo, e.hash_hi}, e.attr_hash)].push_back(
          i);
    }
  }
  return std::shared_ptr<const CorpusStore>(std::move(store));
}

util::Result<FrozenDocument> CorpusStore::Find(
    const util::Hash128& content_hash, std::string_view project_attr) const {
  const uint64_t attr_hash =
      project_attr.empty() ? 0 : util::HashBytes(project_attr);
  const auto it = by_key_.find(DocKey64(content_hash, attr_hash));
  if (it != by_key_.end()) {
    for (size_t i : it->second) {
      const IndexEntry& e = index_[i];
      if (e.hash_lo != content_hash.lo || e.hash_hi != content_hash.hi ||
          e.attr_hash != attr_hash) {
        continue;  // 64-bit map-key collision
      }
      MD_ASSIGN_OR_RETURN(FrozenDocument doc, Materialize(e));
      // The index only carries a 64-bit attr hash; the blob has the bytes.
      if (doc.project_attr == project_attr) return doc;
    }
  }
  return util::Status::NotFound("document not in corpus store");
}

util::Result<FrozenDocument> CorpusStore::Get(int64_t i) const {
  if (i < 0 || i >= size()) {
    return util::Status::InvalidArgument("corpus store index out of range: " +
                                         std::to_string(i));
  }
  return Materialize(index_[static_cast<size_t>(i)]);
}

util::Result<FrozenDocument> CorpusStore::Materialize(
    const IndexEntry& e) const {
  // Open() bounds-checked e.offset/e.size against the file; everything below
  // re-derives section bounds from the (untrusted) doc header.
  const unsigned char* base = data_ + e.offset;
  const DocHeader h = ReadPod<DocHeader>(base);
  const auto corrupt = [&](const char* what) {
    return util::Status::DataLoss(std::string("corpus store blob corrupt (") +
                                  what + "): " + path_);
  };
  if (h.magic != kDocMagic) return corrupt("doc magic");
  if (h.blob_size != e.size) return corrupt("size mismatch");
  if (h.num_nodes == 0 || h.num_nodes > (uint32_t{1} << 30)) {
    return corrupt("node count");
  }
  const uint64_t n = h.num_nodes;
  const uint64_t labels = h.num_labels;

  // Section bounds. Offsets must be 8-aligned — the views below are
  // reinterpret_casts into the mapping.
  const auto section_ok = [&](uint64_t off, uint64_t len) {
    return (off & 7) == 0 && off >= sizeof(DocHeader) && off <= h.blob_size &&
           len <= h.blob_size - off;
  };
  if (!section_ok(h.off_nodes, 6 * n * sizeof(int32_t))) {
    return corrupt("nodes section");
  }
  if (!section_ok(h.off_labels, (labels + 1) * sizeof(uint32_t))) {
    return corrupt("labels section");
  }
  const uint32_t* label_offsets =
      reinterpret_cast<const uint32_t*>(base + h.off_labels);
  if (!section_ok(h.off_labels, (labels + 1) * sizeof(uint32_t) +
                                    uint64_t{label_offsets[labels]})) {
    return corrupt("label bytes");
  }
  const uint32_t* text_offsets = nullptr;
  const char* text_base = nullptr;
  if (h.off_texts != 0) {
    if (!section_ok(h.off_texts, (n + 1) * sizeof(uint32_t))) {
      return corrupt("texts section");
    }
    text_offsets = reinterpret_cast<const uint32_t*>(base + h.off_texts);
    if (!section_ok(h.off_texts, (n + 1) * sizeof(uint32_t) +
                                     uint64_t{text_offsets[n]})) {
      return corrupt("text bytes");
    }
    text_base =
        reinterpret_cast<const char*>(text_offsets + h.num_nodes + 1);
  }
  if (h.off_attr > h.blob_size || h.attr_len > h.blob_size - h.off_attr) {
    return corrupt("attr section");
  }
  if (Checksum64(base + sizeof(DocHeader), h.blob_size - sizeof(DocHeader)) !=
      h.payload_checksum) {
    return corrupt("payload checksum");
  }
  if (h.hash_lo != e.hash_lo || h.hash_hi != e.hash_hi) {
    return corrupt("content hash");
  }

  FrozenDocument doc;
  doc.content_hash = {h.hash_lo, h.hash_hi};
  doc.project_attr = std::string_view(
      reinterpret_cast<const char*>(base + h.off_attr), h.attr_len);
  const int32_t* cols = reinterpret_cast<const int32_t*>(base + h.off_nodes);
  doc.view.num_nodes = static_cast<int32_t>(h.num_nodes);
  doc.view.parent = cols;
  doc.view.first_child = cols + n;
  doc.view.last_child = cols + 2 * n;
  doc.view.prev_sibling = cols + 3 * n;
  doc.view.next_sibling = cols + 4 * n;
  doc.view.label = cols + 5 * n;
  doc.view.text_offsets = text_offsets;
  doc.view.text_base = text_base;
  doc.label_offsets = label_offsets;
  doc.label_base =
      reinterpret_cast<const char*>(label_offsets + h.num_labels + 1);
  doc.num_labels = static_cast<int32_t>(h.num_labels);
  return doc;
}

tree::Tree FrozenDocument::MakeTree() const {
  util::Interner labels;
  for (int32_t id = 0; id < num_labels; ++id) {
    const util::SymbolId got = labels.Intern(label(id));
    MD_CHECK(got == id);  // packed alphabets are duplicate-free by id order
  }
  return tree::Tree::FromFrozenView(view, std::move(labels));
}

}  // namespace mdatalog::store
