// Persistence for the pieces an index needs beyond its B+-tree pages:
// the shared label table, the corpus manifest (document record offsets in
// primary storage), and the index metadata sidecar (options, edge-weight
// encoding, document coverage).
//
// Formats are little binary files with a magic + version header and varint
// payloads; every reader validates and returns Corruption on mismatch.

#ifndef FIX_CORE_PERSIST_H_
#define FIX_CORE_PERSIST_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/index_options.h"
#include "spectral/edge_encoder.h"
#include "storage/record_store.h"
#include "xml/label_table.h"

namespace fix {

/// Reads/writes a whole small file.
[[nodiscard]] Status WriteFile(const std::string& path, const std::string& contents);
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

// --- label table ----------------------------------------------------------

/// Serializes all labels (including the implicit document label at id 0).
std::string EncodeLabelTable(const LabelTable& labels);

/// Restores labels into a fresh table; ids are preserved exactly.
[[nodiscard]] Status DecodeLabelTable(const std::string& buf, LabelTable* labels);

// --- corpus manifest --------------------------------------------------------

/// The record ids of each document in primary storage, in doc-id order.
std::string EncodeManifest(const std::vector<RecordId>& records);
[[nodiscard]] Result<std::vector<RecordId>> DecodeManifest(const std::string& buf);

// --- index metadata ---------------------------------------------------------

/// Suffix of the kd-tree probe file that indexes written before meta v5 may
/// keep at `<index path>` + this suffix. Nothing reads it; FixIndex::Open
/// unlinks it.
inline constexpr char kLegacyKdTreeSuffix[] = ".spatial";

/// The index-meta format this binary writes. v7 goes with the 28-byte
/// entry key (core/feature.h); FixIndex::Open refuses older metas, and
/// Database::Open upgrades them by rebuilding the index.
inline constexpr uint32_t kIndexMetaVersion = 7;

/// indexed_docs value meaning "written by a pre-v2 meta, count unknown":
/// consistency checks against the corpus are skipped for such indexes.
inline constexpr uint32_t kIndexedDocsUnknown = UINT32_MAX;

/// Format history: v2 appends storage_format + indexed_docs, v3 appends
/// generation + wal_bytes, v4 a probe-engine selector (see the end of the
/// struct).
struct IndexMeta {
  /// Format version the sidecar was read from (kIndexMetaVersion when
  /// freshly made); not itself a payload field.
  uint32_t version = kIndexMetaVersion;
  IndexOptions options;  ///< path field is not persisted (caller supplies)
  std::vector<std::pair<uint64_t, uint32_t>> edge_weights;
  /// Page-file format the index was written with (kPageFormatVersion);
  /// 0 for metas predating the checksummed page format.
  uint32_t storage_format = 1;
  /// Number of corpus documents the index covered when the sidecar was
  /// written. Database::Open compares this against the corpus to detect a
  /// stale index — one that survived a crash internally consistent but
  /// missing updates (wrong answers that no checksum can catch).
  uint32_t indexed_docs = kIndexedDocsUnknown;
  /// v3: the B+-tree generation the sidecar was written against, and the
  /// WAL's intact length (bytes) at that moment. Diagnostic cross-checks
  /// for fixdb_scrub --wal / fixctl wal; recovery itself trusts only the
  /// data file's meta page and the log (the sidecar may be a crash behind,
  /// which is exactly why the WAL commit record carries the app state).
  uint64_t generation = 0;
  uint64_t wal_bytes = 0;
  // v4 appended a probe-engine selector; v5 no longer writes it, and the
  // decoder validates and drops it from v4 metas. v6 keeps the v5 fields
  // and marks an index whose B+-tree leaves carry no sibling chain. v7
  // drops the key-sequence counter that v1–v6 wrote after the options; the
  // decoder reads and discards it from older metas.
};

std::string EncodeIndexMeta(const IndexMeta& meta);
[[nodiscard]] Result<IndexMeta> DecodeIndexMeta(const std::string& buf);

}  // namespace fix

#endif  // FIX_CORE_PERSIST_H_
