// RecordStore: an append-only heap file of length-prefixed records.
//
// Two roles in FIX (Figure 3/4):
//   * the *primary storage* keeping every document in encoded form —
//     unclustered index values point here and refinement performs a random
//     read per candidate;
//   * the *clustered store*, a second RecordStore written in feature-key
//     order at build time, so clustered refinement reads sequentially.
//
// Record framing: [magic u32][len u32][payload]. Offsets act as record ids.
//
// Thread-safety: Read is safe from any number of threads (positioned
// pread, atomic read counter). Append/Sync/Open/Close are writer-exclusive.

#ifndef FIX_STORAGE_RECORD_STORE_H_
#define FIX_STORAGE_RECORD_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace fix {

struct RecordId {
  uint64_t offset = 0;

  bool operator==(const RecordId&) const = default;
};

class RecordStore {
 public:
  RecordStore() = default;
  ~RecordStore();

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;
  RecordStore(RecordStore&& other) noexcept { *this = std::move(other); }
  RecordStore& operator=(RecordStore&& other) noexcept;

  [[nodiscard]] Status Open(const std::string& path, bool create);
  [[nodiscard]] Status Close();
  bool is_open() const { return fd_ >= 0; }

  /// Appends a record; returns its id.
  [[nodiscard]] Result<RecordId> Append(const std::string& payload);

  /// Reads the record at `id`.
  [[nodiscard]] Result<std::string> Read(RecordId id) const;

  [[nodiscard]] Status Sync();

  uint64_t size_bytes() const { return end_offset_; }
  uint64_t num_records() const { return num_records_; }

  /// Read counter, the harnesses' refinement-I/O metric. Relaxed atomic so
  /// concurrent Read calls don't race on the bookkeeping.
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  void ResetCounters() { reads_.store(0, std::memory_order_relaxed); }

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t end_offset_ = 0;
  uint64_t num_records_ = 0;
  mutable std::atomic<uint64_t> reads_{0};
};

}  // namespace fix

#endif  // FIX_STORAGE_RECORD_STORE_H_
