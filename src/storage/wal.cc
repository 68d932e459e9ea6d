#include "storage/wal.h"

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/metrics_registry.h"

namespace fix {

namespace {

constexpr uint8_t kCommit = 1;
constexpr size_t kCommitPayloadSize = 1 + 8 + 4 + 4 + 8 + 8;
constexpr size_t kRecordFrameSize = 8;  // len(4) + crc(4)

// Process-wide WAL health counters (see docs/OBSERVABILITY.md).
Counter& WalAppends() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.wal.appends", "ops", "commit records appended and fsync'd");
  return *c;
}
Counter& WalReplays() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.wal.replayed", "ops",
      "committed generations adopted from the log at open");
  return *c;
}
Counter& WalTornTails() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.wal.torn_tails", "ops",
      "torn/partial record tails discarded by recovery");
  return *c;
}
Counter& WalSyncFailures() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.wal.sync_failures", "ops",
      "fsync failures that fail-stopped a commit");
  return *c;
}
Gauge& WalGeneration() {
  static Gauge* g = MetricsRegistry::Instance().FindOrCreateGauge(
      "fix.wal.generation", "generation",
      "last B+-tree generation committed through the log");
  return *g;
}

std::unique_ptr<PageIo> MakeIo(const Wal::IoFactory& factory) {
  if (factory) return factory();
  return std::make_unique<FilePageIo>();
}

void EncodeCommitPayload(const WalCommit& commit, char* buf) {
  buf[0] = static_cast<char>(kCommit);
  EncodeFixed64(buf + 1, commit.generation);
  EncodeFixed32(buf + 9, commit.root);
  EncodeFixed32(buf + 13, commit.height);
  EncodeFixed64(buf + 17, commit.num_entries);
  EncodeFixed64(buf + 25, commit.indexed_docs);
}

}  // namespace

Status Wal::WriteHeader(PageIo* io, uint32_t key_size, uint32_t value_size) {
  char header[kWalHeaderSize];
  std::memset(header, 0, sizeof(header));
  EncodeFixed32(header, kWalMagic);
  EncodeFixed32(header + 4, kWalFormatVersion);
  EncodeFixed32(header + 8, key_size);
  EncodeFixed32(header + 12, value_size);
  EncodeFixed32(header + 28, Crc32c(header, 28));
  return io->Write(0, header, sizeof(header));
}

Result<WalScanResult> Wal::ScanIo(PageIo* io) {
  WalScanResult scan;
  uint64_t size;
  FIX_ASSIGN_OR_RETURN(size, io->Size());
  if (size < kWalHeaderSize) {
    return Status::Corruption("WAL truncated before the header");
  }
  char header[kWalHeaderSize];
  FIX_RETURN_IF_ERROR(io->Read(0, header, sizeof(header)));
  if (DecodeFixed32(header) != kWalMagic) {
    return Status::Corruption("not a FIX WAL file");
  }
  if (DecodeFixed32(header + 4) != kWalFormatVersion) {
    return Status::Corruption("unsupported WAL format version");
  }
  if (DecodeFixed32(header + 28) != Crc32c(header, 28)) {
    return Status::Corruption("WAL header CRC mismatch");
  }
  scan.key_size = DecodeFixed32(header + 8);
  scan.value_size = DecodeFixed32(header + 12);

  uint64_t pos = kWalHeaderSize;
  std::vector<char> payload;
  for (;;) {
    if (pos + kRecordFrameSize > size) {
      scan.torn_tail = pos < size;
      break;
    }
    char frame[kRecordFrameSize];
    FIX_RETURN_IF_ERROR(io->Read(pos, frame, sizeof(frame)));
    const uint32_t len = DecodeFixed32(frame);
    const uint32_t crc = DecodeFixed32(frame + 4);
    // A record longer than the file (or absurd: > 1 MiB) is a torn or
    // garbage length field, not an intact record.
    if (len > (1u << 20) || pos + kRecordFrameSize + len > size) {
      scan.torn_tail = true;
      break;
    }
    payload.resize(len);
    FIX_RETURN_IF_ERROR(io->Read(pos + kRecordFrameSize, payload.data(), len));
    if (Crc32c(payload.data(), len) != crc) {
      scan.torn_tail = true;
      break;
    }
    if (len == kCommitPayloadSize &&
        static_cast<uint8_t>(payload[0]) == kCommit) {
      scan.has_commit = true;
      scan.last_commit.generation = DecodeFixed64(payload.data() + 1);
      scan.last_commit.root = DecodeFixed32(payload.data() + 9);
      scan.last_commit.height = DecodeFixed32(payload.data() + 13);
      scan.last_commit.num_entries = DecodeFixed64(payload.data() + 17);
      scan.last_commit.indexed_docs = DecodeFixed64(payload.data() + 25);
    }
    ++scan.records;
    pos += kRecordFrameSize + len;
  }
  scan.valid_bytes = pos;
  return scan;
}

Result<Wal> Wal::Create(const std::string& path, uint32_t key_size,
                        uint32_t value_size, const IoFactory& factory) {
  Wal wal;
  wal.io_ = MakeIo(factory);
  wal.path_ = path;
  FIX_RETURN_IF_ERROR(wal.io_->Open(path, /*create=*/true));
  FIX_RETURN_IF_ERROR(wal.io_->Truncate(0));
  FIX_RETURN_IF_ERROR(WriteHeader(wal.io_.get(), key_size, value_size));
  wal.state_.key_size = key_size;
  wal.state_.value_size = value_size;
  wal.state_.valid_bytes = kWalHeaderSize;
  return wal;
}

Result<Wal> Wal::Open(const std::string& path, uint32_t key_size,
                      uint32_t value_size, const IoFactory& factory) {
  {
    // Probe for existence through the backend (no filesystem calls here so
    // fault injection sees every touch). A failed open means no log yet.
    std::unique_ptr<PageIo> probe = MakeIo(factory);
    Status exists = probe->Open(path, /*create=*/false);
    if (!exists.ok()) {
      return Create(path, key_size, value_size, factory);
    }
    Status closed = probe->Close();
    (void)closed;
  }
  Wal wal;
  wal.io_ = MakeIo(factory);
  wal.path_ = path;
  FIX_RETURN_IF_ERROR(wal.io_->Open(path, /*create=*/false));
  Result<WalScanResult> scan = ScanIo(wal.io_.get());
  if (!scan.ok()) {
    // A log whose header never made it to disk carries no commitments;
    // recreate it. (Anything intact enough to parse is scanned above.)
    FIX_RETURN_IF_ERROR(wal.io_->Close());
    return Create(path, key_size, value_size, factory);
  }
  wal.state_ = *std::move(scan);
  if (wal.state_.has_commit) {
    WalReplays().Increment();
  }
  if (wal.state_.torn_tail) {
    WalTornTails().Increment();
  }
  return wal;
}

Status Wal::AppendCommit(const WalCommit& commit) {
  if (failed_) {
    return Status::IOError("WAL is fail-stopped after an earlier error");
  }
  char record[kRecordFrameSize + kCommitPayloadSize];
  char* payload = record + kRecordFrameSize;
  EncodeCommitPayload(commit, payload);
  EncodeFixed32(record, static_cast<uint32_t>(kCommitPayloadSize));
  EncodeFixed32(record + 4, Crc32c(payload, kCommitPayloadSize));
  Status written = io_->Write(state_.valid_bytes, record, sizeof(record));
  if (!written.ok()) {
    failed_ = true;
    return written;
  }
  // The commit is acked only after the fsync reports success; a failed
  // fsync fail-stops the log so no later append can leapfrog the hole.
  Status synced = io_->Sync();
  if (!synced.ok()) {
    failed_ = true;
    WalSyncFailures().Increment();
    return synced;
  }
  state_.valid_bytes += sizeof(record);
  state_.records += 1;
  state_.has_commit = true;
  state_.last_commit = commit;
  state_.torn_tail = false;
  WalAppends().Increment();
  WalGeneration().Set(static_cast<int64_t>(commit.generation));
  return Status::OK();
}

Status Wal::TruncateTail() {
  if (failed_) {
    return Status::IOError("WAL is fail-stopped after an earlier error");
  }
  uint64_t size;
  FIX_ASSIGN_OR_RETURN(size, io_->Size());
  if (size == state_.valid_bytes) return Status::OK();
  FIX_RETURN_IF_ERROR(io_->Truncate(state_.valid_bytes));
  state_.torn_tail = false;
  return Status::OK();
}

Status Wal::Reset() {
  if (failed_) {
    return Status::IOError("WAL is fail-stopped after an earlier error");
  }
  FIX_RETURN_IF_ERROR(io_->Truncate(kWalHeaderSize));
  Status synced = io_->Sync();
  if (!synced.ok()) {
    failed_ = true;
    WalSyncFailures().Increment();
    return synced;
  }
  state_.valid_bytes = kWalHeaderSize;
  state_.records = 0;
  state_.torn_tail = false;
  state_.has_commit = false;
  return Status::OK();
}

Status Wal::Close() {
  if (io_ == nullptr || !io_->is_open()) return Status::OK();
  return io_->Close();
}

Result<WalScanResult> Wal::Inspect(const std::string& path) {
  FilePageIo io;
  Status opened = io.Open(path, /*create=*/false);
  if (!opened.ok()) {
    return Status::NotFound("no WAL at " + path);
  }
  Result<WalScanResult> scan = ScanIo(&io);
  Status closed = io.Close();
  (void)closed;
  return scan;
}

}  // namespace fix
