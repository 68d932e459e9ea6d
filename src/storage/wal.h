// Write-ahead log for the COW B+-tree's commit protocol.
//
// The WAL is a sidecar file (`<index>.fix.wal`) of CRC32C-framed,
// length-prefixed records appended strictly sequentially. It is written
// through the same PageIo seam as the page file, so FaultInjectionPageIo
// can inject EIO, torn writes, fsync failures, and crash-after-N into the
// log itself — the recovery path is testable below the framing.
//
// On-disk format:
//
//   header (32 bytes, written once at creation):
//     offset  size  field
//     ------  ----  ---------------------------------------------------
//          0     4  magic "FXWL" (little-endian 0x4c575846)
//          4     4  format version (currently 2; v1 logs carried a
//                    41-byte commit payload and are refused)
//          8     4  B+-tree key size   } geometry duplicated here so a
//         12     4  B+-tree value size } torn data-file meta page does
//                                        not strand recovery
//         16    12  reserved (zero)
//         28     4  CRC32C over bytes [0, 28)
//
//   records, appended back to back after the header:
//     len(4) | crc(4) | payload(len)
//   `crc` is CRC32C over the payload. A record whose length field runs
//   past EOF or whose CRC mismatches is a torn tail: it and everything
//   after it are discarded by recovery (the bytes before it are intact by
//   induction — records are appended and fsync'd in order).
//
//   commit payload (kCommit, 33 bytes): type(1) | generation(8) | root(4) |
//   height(4) | num_entries(8) | indexed_docs(8), all little-endian. One
//   commit record is appended (and fsync'd) per durable B+-tree
//   generation; replay adopts the last valid commit whose generation
//   exceeds the data file's meta page. The trailing field is opaque
//   application state (FixIndex's document coverage) carried so a crash
//   between the WAL commit and the sidecar meta rewrite still recovers a
//   self-consistent index.
//
// Durability contract (fail-stop): AppendCommit returns OK only after the
// record has been written AND fsync'd. If the fsync fails the Wal enters a
// dead state where every later append fails too — an unsynced commit is
// never acked, and the caller routes the error into the quarantine path.
//
// Thread-safety: none. The single writer owns the Wal; readers never touch
// it (snapshot pinning is in-memory).

#ifndef FIX_STORAGE_WAL_H_
#define FIX_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/page_io.h"

namespace fix {

/// "FXWL" little-endian — stamped at offset 0 of the log header.
inline constexpr uint32_t kWalMagic = 0x4c575846;
inline constexpr uint32_t kWalFormatVersion = 2;
inline constexpr uint64_t kWalHeaderSize = 32;

/// One durable B+-tree generation: everything recovery needs to re-point
/// the tree at the committed root.
struct WalCommit {
  uint64_t generation = 0;
  uint32_t root = 0;
  uint32_t height = 0;
  uint64_t num_entries = 0;
  // Opaque application state (the B+-tree neither reads nor writes it;
  // FixIndex stamps it before AppendCommit and restores it on replay).
  uint64_t indexed_docs = 0;
};

/// Result of scanning a log: how much of it is intact and what the last
/// committed generation (if any) says.
struct WalScanResult {
  uint64_t records = 0;        ///< valid records before the torn tail
  uint64_t valid_bytes = 0;    ///< header + intact records
  bool torn_tail = false;      ///< trailing garbage/partial record present
  bool has_commit = false;     ///< at least one valid commit record
  WalCommit last_commit;       ///< meaningful iff has_commit
  uint32_t key_size = 0;       ///< geometry from the header
  uint32_t value_size = 0;
};

class Wal {
 public:
  using IoFactory = std::function<std::unique_ptr<PageIo>()>;

  /// Creates (truncating any predecessor) a log at `path` and writes the
  /// header. A null `factory` uses a plain file.
  [[nodiscard]] static Result<Wal> Create(const std::string& path,
                                          uint32_t key_size,
                                          uint32_t value_size,
                                          const IoFactory& factory);

  /// Opens an existing log, scanning it for the intact prefix. A missing
  /// file is created fresh with the given geometry (a WAL-less index from
  /// an older build simply has no committed generations to replay). The
  /// torn tail, if any, is left in place — call TruncateTail() once the
  /// adopted state is durable in the data file.
  [[nodiscard]] static Result<Wal> Open(const std::string& path,
                                        uint32_t key_size,
                                        uint32_t value_size,
                                        const IoFactory& factory);

  Wal() = default;
  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;

  /// Appends one commit record and fsyncs the log. Fail-stop: any write or
  /// sync failure poisons the Wal (every later append fails) — an unsynced
  /// commit is never acked.
  [[nodiscard]] Status AppendCommit(const WalCommit& commit);

  /// Discards everything after the intact prefix found at Open (or after
  /// the last successful append). No-op when the log is already clean.
  [[nodiscard]] Status TruncateTail();

  /// Empties the log back to a bare header (checkpoint: the data file's
  /// meta page now carries the committed root, so the records are spent).
  /// The truncate is fsync'd.
  [[nodiscard]] Status Reset();

  [[nodiscard]] Status Close();

  /// Scan summary as of Open, updated by successful appends.
  const WalScanResult& state() const { return state_; }
  const std::string& path() const { return path_; }
  bool failed() const { return failed_; }

  /// Read-only inspection of a log file (fixctl wal, fixdb_scrub --wal):
  /// validates the header, walks the records, and reports the intact
  /// prefix without mutating the file. NotFound if there is no log.
  [[nodiscard]] static Result<WalScanResult> Inspect(const std::string& path);

 private:
  [[nodiscard]] static Status WriteHeader(PageIo* io, uint32_t key_size,
                                          uint32_t value_size);
  [[nodiscard]] static Result<WalScanResult> ScanIo(PageIo* io);

  std::unique_ptr<PageIo> io_;
  std::string path_;
  WalScanResult state_;
  bool failed_ = false;  // fail-stop latch: set on any write/sync error
};

}  // namespace fix

#endif  // FIX_STORAGE_WAL_H_
