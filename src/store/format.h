#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "src/util/hash.h"

/// \file format.h
/// On-disk layout of a corpus store (see README.md in this directory).
///
/// A store file is:
///
///   FileHeader                (incl. the snapshot's page-hash key)
///   doc blob 0                (8-byte aligned)
///   doc blob 1
///   ...
///   IndexEntry[doc_count]     (8-byte aligned, at FileHeader::index_offset)
///
/// and each doc blob is a DocHeader followed by four sections, every one
/// 8-byte aligned relative to the blob start (offsets are relative to the
/// DocHeader so blobs are relocatable):
///
///   nodes:  6 × num_nodes int32 — the SoA tree columns, in Tree::Columns
///           order (parent, first_child, last_child, prev_sibling,
///           next_sibling, label)
///   labels: (num_labels+1) uint32 prefix offsets + concatenated bytes —
///           the interned alphabet, id order
///   texts:  (num_nodes+1) uint32 prefix offsets + concatenated bytes —
///           per-node text payloads; the whole section is absent
///           (off_texts == 0) when no node carries text
///   attr:   attr_len raw bytes — the attribute projection this document was
///           prepared under ("" = raw parse tree)
///
/// Everything is little-endian host format; the endian tag and the layout
/// checksum in the file header reject a file written by an incompatible
/// build instead of misreading it. All multi-byte header reads go through
/// memcpy (the mapping is only guaranteed page-aligned, structs are read out
/// of arbitrary verified offsets).

namespace mdatalog::store {

inline constexpr uint32_t kFileMagic = 0x4D444353;  // "MDCS"
inline constexpr uint32_t kDocMagic = 0x4D444F43;   // "MDOC"
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr uint32_t kEndianTag = 0x01020304;

struct FileHeader {
  uint32_t magic = kFileMagic;
  uint32_t version = kFormatVersion;
  uint32_t endian_tag = kEndianTag;
  uint32_t layout_checksum = 0;  // must equal kLayoutChecksum
  uint64_t doc_count = 0;
  uint64_t index_offset = 0;     // absolute file offset of IndexEntry[0]
  uint64_t index_checksum = 0;   // Checksum64 over the index bytes
  uint64_t file_size = 0;        // total bytes; rejects silent truncation
  /// The snapshot's page-hash key: every content hash in the file is
  /// util::HashBytes128(page bytes, {hash_key_k0, hash_key_k1}).
  uint64_t hash_key_k0 = 0;
  uint64_t hash_key_k1 = 0;
};
static_assert(sizeof(FileHeader) == 64);

/// One packed document. Lookup key is (content hash, attr hash); the attr
/// bytes inside the blob break ties on the (64-bit) attr-hash collision.
struct IndexEntry {
  uint64_t hash_lo = 0;  // content hash under the file header's key
  uint64_t hash_hi = 0;
  uint64_t attr_hash = 0;  // util::HashBytes(project_attr); 0 when empty
  uint64_t offset = 0;     // absolute file offset of the DocHeader
  uint64_t size = 0;       // blob bytes including the header
};
static_assert(sizeof(IndexEntry) == 40);

struct DocHeader {
  uint32_t magic = kDocMagic;
  uint32_t num_nodes = 0;
  uint32_t num_labels = 0;
  uint32_t reserved = 0;          // keeps the uint64 fields 8-aligned
  uint64_t hash_lo = 0;           // content hash (== index entry)
  uint64_t hash_hi = 0;
  uint64_t payload_checksum = 0;  // Checksum64 over blob bytes after header
  uint32_t off_nodes = 0;         // section offsets, relative to DocHeader
  uint32_t off_labels = 0;
  uint32_t off_texts = 0;         // 0 = no text section
  uint32_t off_attr = 0;
  uint32_t attr_len = 0;
  uint32_t blob_size = 0;         // total blob bytes including the header
};
static_assert(sizeof(DocHeader) == 64);
// No implicit padding: every header byte is a field the writer sets, so the
// packed bytes (and their checksum) are a function of the document alone.
static_assert(std::has_unique_object_representations_v<DocHeader>);

/// Guards the reader against a file written by a build whose struct layout
/// (or format revision) differs: mixed into the file header at save time,
/// checked at open. FNV-style fold of the struct sizes plus a salt bumped on
/// any incompatible format change that keeps kFormatVersion.
inline constexpr uint32_t kLayoutSalt = 1;  // v3 layout, rev 1
inline constexpr uint32_t kLayoutChecksum =
    (((kLayoutSalt * 16777619u ^ static_cast<uint32_t>(sizeof(FileHeader))) *
          16777619u ^
      static_cast<uint32_t>(sizeof(IndexEntry))) *
         16777619u ^
     static_cast<uint32_t>(sizeof(DocHeader))) *
    16777619u;

/// The payload/index checksums: util::HashBytes128 under a fixed, public
/// key. They guard integrity against storage rot and truncation, not
/// authenticity: with the key public, anyone can forge a matching checksum.
inline constexpr util::SipHashKey kChecksumKey{0x4d4443532d636b31ULL,
                                               0x6d646174616c6f67ULL};
inline uint64_t Checksum64(const void* data, size_t n) {
  return util::HashBytes128(
             std::string_view(static_cast<const char*>(data), n), kChecksumKey)
      .lo;
}

/// Rounds a size/offset up to the section alignment (8 bytes — the widest
/// array element in any section is uint64).
inline constexpr uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

}  // namespace mdatalog::store
