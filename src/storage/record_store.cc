#include "storage/record_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"
#include "storage/page_io.h"

namespace fix {

namespace {
constexpr uint32_t kRecordMagic = 0x46495852;  // "FIXR"

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}
}  // namespace

RecordStore::~RecordStore() {
  if (fd_ >= 0) {
    Status s = Close();
    if (!s.ok()) {
      FIX_LOG(Error) << "RecordStore destructor: close failed for " << path_
                     << ": " << s.ToString();
    }
  }
}

RecordStore& RecordStore::operator=(RecordStore&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    end_offset_ = other.end_offset_;
    num_records_ = other.num_records_;
    reads_.store(other.reads_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    other.fd_ = -1;
  }
  return *this;
}

Status RecordStore::Open(const std::string& path, bool create) {
  if (fd_ >= 0) return Status::InvalidArgument("RecordStore already open");
  int flags = O_RDWR;
  if (create) flags |= O_CREAT | O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return Status::IOError(Errno("open", path));
  path_ = path;
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Status::IOError(Errno("lseek", path));
  end_offset_ = static_cast<uint64_t>(size);
  // num_records_ is recovered lazily only when a fresh file is created; for
  // re-opened files callers track counts in their own metadata.
  return Status::OK();
}

Status RecordStore::Close() {
  if (fd_ < 0) return Status::OK();
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::IOError(Errno("close", path_));
  }
  fd_ = -1;
  return Status::OK();
}

Result<RecordId> RecordStore::Append(const std::string& payload) {
  if (fd_ < 0) return Status::InvalidArgument("RecordStore not open");
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("record too large");
  }
  std::string frame;
  frame.reserve(8 + payload.size());
  PutFixed32(&frame, kRecordMagic);
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  FIX_RETURN_IF_ERROR(
      PWriteFull(fd_, end_offset_, frame.data(), frame.size(), path_));
  RecordId id{end_offset_};
  end_offset_ += frame.size();
  ++num_records_;
  return id;
}

Result<std::string> RecordStore::Read(RecordId id) const {
  if (fd_ < 0) return Status::InvalidArgument("RecordStore not open");
  char header[8];
  FIX_RETURN_IF_ERROR(
      PReadFull(fd_, id.offset, header, sizeof(header), path_));
  if (DecodeFixed32(header) != kRecordMagic) {
    return Status::Corruption("bad record magic in " + path_);
  }
  uint32_t len = DecodeFixed32(header + 4);
  if (id.offset + 8 + len > end_offset_) {
    return Status::Corruption("record length past end of " + path_);
  }
  std::string payload(len, '\0');
  FIX_RETURN_IF_ERROR(
      PReadFull(fd_, id.offset + 8, payload.data(), len, path_));
  reads_.fetch_add(1, std::memory_order_relaxed);
  return payload;
}

Status RecordStore::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("RecordStore not open");
  if (::fsync(fd_) != 0) return Status::IOError(Errno("fsync", path_));
  return Status::OK();
}

}  // namespace fix
