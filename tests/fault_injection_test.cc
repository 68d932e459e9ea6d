// The storage fault-injection suite: every failure mode a disk can produce
// (bit rot, misdirected blocks, torn writes, transient and hard I/O errors,
// fsync failure, power loss mid-write) is injected underneath the checksum
// layer via FaultInjectionPageIo and must surface as a clean Status — and
// the database must recover by quarantining damaged indexes and answering
// from the full-scan baseline, never returning a wrong result.
//
// The CrashRecovery tests are the acceptance gate: they kill index builds
// and updates at 20+ distinct injected crash points, reopen the database,
// and assert that every query answer equals the navigational baseline and
// the surviving index is either scrub-clean or detected-and-degraded.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "core/corpus.h"
#include "core/database.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/persist.h"
#include "datagen/datasets.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/page_io.h"
#include "storage/record_store.h"
#include "storage/scrub.h"
#include "storage/wal.h"

namespace fix {
namespace {

// --- shared helpers ---------------------------------------------------------

/// Flips one bit of the file at `path` in place.
void FlipBitInFile(const std::string& path, uint64_t byte, int bit) {
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_LT(byte, contents->size());
  (*contents)[byte] = static_cast<char>((*contents)[byte] ^ (1u << bit));
  ASSERT_TRUE(WriteFile(path, *contents).ok());
}

/// Recomputes the CRC32C field of a raw disk block so a deliberately
/// mutated block still passes the checksum — used to reach the checks that
/// sit behind it (version, structure).
void RestampCrc(char* block) {
  uint32_t crc = Crc32c(block, 12);
  crc = Crc32c(block + 16, kDiskPageSize - 16, crc);
  EncodeFixed32(block + 12, crc);
}

/// Opens the page file at `path`, applies `edit` to page `id`'s payload,
/// and writes it back with a freshly stamped (valid) header. Simulates
/// damage the per-page checksum cannot see.
void EditPayload(const std::string& path, PageId id,
                 const std::function<void(char*)>& edit) {
  PageFile file;
  ASSERT_TRUE(file.Open(path, /*create=*/false).ok());
  std::vector<char> payload(kPageSize);
  ASSERT_TRUE(file.ReadPage(id, payload.data()).ok());
  edit(payload.data());
  ASSERT_TRUE(file.WritePage(id, payload.data()).ok());
  ASSERT_TRUE(file.Close().ok());
}

/// A PageFile over a FaultInjectionPageIo, with the injector handle exposed.
struct InjectedFile {
  std::unique_ptr<PageFile> file;
  FaultInjectionPageIo* io = nullptr;  // owned by `file`
};

InjectedFile MakeInjected(uint64_t seed = 0x5eed) {
  auto io = std::make_unique<FaultInjectionPageIo>(
      std::make_unique<FilePageIo>(), seed);
  FaultInjectionPageIo* raw = io.get();
  return {std::make_unique<PageFile>(std::move(io)), raw};
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/fix_fault_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Creates a page file with `n` pages of distinct recognizable payloads.
  void BuildPageFile(const std::string& path, PageId n) {
    PageFile file;
    ASSERT_TRUE(file.Open(path, /*create=*/true).ok());
    std::vector<char> payload(kPageSize);
    for (PageId i = 0; i < n; ++i) {
      PageId id = kInvalidPage;
      ASSERT_TRUE(file.AllocatePage(&id).ok());
      ASSERT_EQ(id, i);
      FillPayload(i, payload.data());
      ASSERT_TRUE(file.WritePage(id, payload.data()).ok());
    }
    ASSERT_TRUE(file.Sync().ok());
    ASSERT_TRUE(file.Close().ok());
  }

  static void FillPayload(PageId id, char* buf) {
    for (size_t i = 0; i < kPageSize; ++i) {
      buf[i] = static_cast<char>((id * 131 + i) & 0xff);
    }
  }

  std::string dir_;
};

// --- checksum primitives ----------------------------------------------------

TEST(Crc32cTest, KnownVectorAndChaining) {
  // The RFC 3720 check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Chained extents equal the CRC of the concatenation.
  EXPECT_EQ(Crc32c("6789", 4, Crc32c("12345", 5)), 0xE3069283u);
  // Sensitivity: one flipped bit changes the sum.
  EXPECT_NE(Crc32c("123456788", 9), 0xE3069283u);
}

// --- page-level detection ---------------------------------------------------

TEST_F(FaultInjectionTest, BitFlipInPayloadDetected) {
  const std::string path = dir_ + "/f.pf";
  BuildPageFile(path, 3);

  // Flip one payload bit of page 1 directly in the raw file.
  FlipBitInFile(path, 1 * kDiskPageSize + kPageHeaderSize + 1000, 3);

  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  std::vector<char> buf(kPageSize);
  Status read = file.ReadPage(1, buf.data());
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_NE(read.ToString().find("checksum"), std::string::npos)
      << read.ToString();
  EXPECT_EQ(file.checksum_failures(), 1u);
  // Undamaged neighbors still verify.
  EXPECT_TRUE(file.ReadPage(0, buf.data()).ok());
  EXPECT_TRUE(file.ReadPage(2, buf.data()).ok());
  ASSERT_TRUE(file.Close().ok());
}

TEST_F(FaultInjectionTest, BitFlipInHeaderDetected) {
  const std::string path = dir_ + "/f.pf";
  BuildPageFile(path, 2);
  // Magic field of page 1. (Page 0's magic doubles as the file-format
  // sniff, so rotting it makes the whole file unidentifiable — a different,
  // also-detected failure.)
  FlipBitInFile(path, kDiskPageSize, 0);

  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  std::vector<char> buf(kPageSize);
  Status read = file.ReadPage(1, buf.data());
  EXPECT_TRUE(read.IsCorruption());
  EXPECT_NE(read.ToString().find("magic"), std::string::npos)
      << read.ToString();
  ASSERT_TRUE(file.Close().ok());
}

TEST_F(FaultInjectionTest, MisdirectedBlockDetected) {
  const std::string path = dir_ + "/f.pf";
  BuildPageFile(path, 3);

  // Copy page 1's raw block (checksum and all) into slot 2: a misdirected
  // write. The block is self-consistent, so only the embedded id catches it.
  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  std::vector<char> block(kDiskPageSize);
  ASSERT_TRUE(file.ReadRawBlock(1, block.data()).ok());
  ASSERT_TRUE(file.WriteRawBlock(2, block.data()).ok());

  std::vector<char> buf(kPageSize);
  Status read = file.ReadPage(2, buf.data());
  EXPECT_TRUE(read.IsCorruption());
  EXPECT_NE(read.ToString().find("misdirected"), std::string::npos)
      << read.ToString();
  EXPECT_TRUE(file.ReadPage(1, buf.data()).ok());
  ASSERT_TRUE(file.Close().ok());
}

TEST_F(FaultInjectionTest, UnsupportedVersionDetected) {
  const std::string path = dir_ + "/f.pf";
  BuildPageFile(path, 1);

  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  std::vector<char> block(kDiskPageSize);
  ASSERT_TRUE(file.ReadRawBlock(0, block.data()).ok());
  EncodeFixed32(block.data() + 4, kPageFormatVersion + 7);
  RestampCrc(block.data());  // valid checksum: the version check must fire
  ASSERT_TRUE(file.WriteRawBlock(0, block.data()).ok());

  std::vector<char> buf(kPageSize);
  Status read = file.ReadPage(0, buf.data());
  EXPECT_TRUE(read.IsCorruption());
  EXPECT_NE(read.ToString().find("version"), std::string::npos)
      << read.ToString();
  ASSERT_TRUE(file.Close().ok());
}

// --- format versioning ------------------------------------------------------

TEST_F(FaultInjectionTest, LegacyV0FileUpgradedLosslessly) {
  const std::string path = dir_ + "/v0.pf";
  // A version-0 file: headerless, raw 4096-byte payloads.
  std::string raw;
  std::vector<char> payload(kPageSize);
  for (PageId i = 0; i < 5; ++i) {
    FillPayload(i, payload.data());
    raw.append(payload.data(), kPageSize);
  }
  ASSERT_TRUE(WriteFile(path, raw).ok());

  // The scrub path must refuse to touch (and thus upgrade) it.
  {
    PageFile ro;
    Status scrub_open = ro.OpenForScrub(path);
    EXPECT_TRUE(scrub_open.IsCorruption()) << scrub_open.ToString();
  }

  // A normal open upgrades in place; contents survive bit for bit.
  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  EXPECT_EQ(file.num_pages(), 5u);
  std::vector<char> expect(kPageSize), got(kPageSize);
  for (PageId i = 0; i < 5; ++i) {
    FillPayload(i, expect.data());
    ASSERT_TRUE(file.ReadPage(i, got.data()).ok());
    EXPECT_EQ(std::memcmp(expect.data(), got.data(), kPageSize), 0)
        << "page " << i;
  }
  ASSERT_TRUE(file.Close().ok());

  // The upgraded file is framed and scrub-clean.
  EXPECT_EQ(std::filesystem::file_size(path), 5 * kDiskPageSize);
  auto report = ScrubPageFile(path, {/*verify_structure=*/false});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(report->pages, 5u);
}

TEST_F(FaultInjectionTest, TornTrailingPageTruncatedOnOpen) {
  const std::string path = dir_ + "/torn.pf";
  BuildPageFile(path, 4);

  // Append a partial block: a torn final write after power loss.
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteFile(path, *contents + std::string(513, 'x')).ok());

  // Scrub refuses to repair.
  {
    PageFile ro;
    EXPECT_TRUE(ro.OpenForScrub(path).IsCorruption());
  }
  // A normal open truncates the tail; the complete pages survive.
  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  EXPECT_EQ(file.num_pages(), 4u);
  std::vector<char> buf(kPageSize);
  for (PageId i = 0; i < 4; ++i) {
    EXPECT_TRUE(file.ReadPage(i, buf.data()).ok());
  }
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(std::filesystem::file_size(path), 4 * kDiskPageSize);
}

// --- injected I/O faults ----------------------------------------------------

TEST_F(FaultInjectionTest, TransientFaultsAreRetried) {
  InjectedFile f = MakeInjected();
  ASSERT_TRUE(f.file->Open(dir_ + "/t.pf", true).ok());
  PageId id = kInvalidPage;
  ASSERT_TRUE(f.file->AllocatePage(&id).ok());

  std::vector<char> buf(kPageSize, 'a');
  f.io->FailNextWrites(2, /*transient=*/true);
  EXPECT_TRUE(f.file->WritePage(id, buf.data()).ok());
  EXPECT_GE(f.file->retries(), 2u);

  f.io->FailNextReads(3, /*transient=*/true);
  EXPECT_TRUE(f.file->ReadPage(id, buf.data()).ok());
  EXPECT_GE(f.file->retries(), 5u);
  ASSERT_TRUE(f.file->Close().ok());
}

TEST_F(FaultInjectionTest, TransientFaultExhaustionBecomesIOError) {
  InjectedFile f = MakeInjected();
  ASSERT_TRUE(f.file->Open(dir_ + "/t.pf", true).ok());
  PageId id = kInvalidPage;
  ASSERT_TRUE(f.file->AllocatePage(&id).ok());

  std::vector<char> buf(kPageSize, 'b');
  f.io->FailNextReads(100, /*transient=*/true);
  Status read = f.file->ReadPage(id, buf.data());
  EXPECT_TRUE(read.IsIOError()) << read.ToString();
  EXPECT_NE(read.ToString().find("transient fault persisted"),
            std::string::npos)
      << read.ToString();
  ASSERT_TRUE(f.file->Close().ok());
}

TEST_F(FaultInjectionTest, HardFaultsAreNotRetried) {
  InjectedFile f = MakeInjected();
  ASSERT_TRUE(f.file->Open(dir_ + "/t.pf", true).ok());
  PageId id = kInvalidPage;
  ASSERT_TRUE(f.file->AllocatePage(&id).ok());
  std::vector<char> buf(kPageSize, 'c');

  const uint64_t retries_before = f.file->retries();
  f.io->FailNextReads(1, /*transient=*/false);
  EXPECT_TRUE(f.file->ReadPage(id, buf.data()).IsIOError());
  f.io->FailNextWrites(1, /*transient=*/false);
  EXPECT_TRUE(f.file->WritePage(id, buf.data()).IsIOError());
  EXPECT_EQ(f.file->retries(), retries_before);  // hard EIO: no retry loop

  f.io->FailNextSyncs(1);
  EXPECT_TRUE(f.file->Sync().IsIOError());
  EXPECT_TRUE(f.file->Sync().ok());  // fault budget drained
  ASSERT_TRUE(f.file->Close().ok());
}

TEST_F(FaultInjectionTest, SilentTornWriteCaughtByChecksum) {
  InjectedFile f = MakeInjected(/*seed=*/77);
  ASSERT_TRUE(f.file->Open(dir_ + "/t.pf", true).ok());
  PageId id = kInvalidPage;
  ASSERT_TRUE(f.file->AllocatePage(&id).ok());
  std::vector<char> old_data(kPageSize, 'o'), new_data(kPageSize, 'n');
  ASSERT_TRUE(f.file->WritePage(id, old_data.data()).ok());

  // The device claims success but persists only a prefix. The write can
  // never round-trip: either the mixed block fails its checksum, or (tiny
  // prefix) the previous version survives intact — but the new payload must
  // never be returned as verified.
  f.io->TearNextWrite(/*silent=*/true);
  ASSERT_TRUE(f.file->WritePage(id, new_data.data()).ok());  // the lie

  std::vector<char> got(kPageSize);
  Status read = f.file->ReadPage(id, got.data());
  if (read.ok()) {
    EXPECT_EQ(std::memcmp(got.data(), old_data.data(), kPageSize), 0);
  } else {
    EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  }
  ASSERT_TRUE(f.file->Close().ok());
}

TEST_F(FaultInjectionTest, ReportedTornWriteReturnsError) {
  InjectedFile f = MakeInjected();
  ASSERT_TRUE(f.file->Open(dir_ + "/t.pf", true).ok());
  PageId id = kInvalidPage;
  ASSERT_TRUE(f.file->AllocatePage(&id).ok());
  std::vector<char> buf(kPageSize, 'd');
  f.io->TearNextWrite(/*silent=*/false);
  Status write = f.file->WritePage(id, buf.data());
  EXPECT_TRUE(write.IsIOError()) << write.ToString();
  ASSERT_TRUE(f.file->Close().ok());
}

TEST_F(FaultInjectionTest, CrashAfterWritesKillsDevice) {
  InjectedFile f = MakeInjected();
  ASSERT_TRUE(f.file->Open(dir_ + "/t.pf", true).ok());
  PageId id = kInvalidPage;
  ASSERT_TRUE(f.file->AllocatePage(&id).ok());
  std::vector<char> buf(kPageSize, 'e');
  ASSERT_TRUE(f.file->WritePage(id, buf.data()).ok());

  f.io->CrashAfterWrites(1);
  EXPECT_TRUE(f.file->WritePage(id, buf.data()).ok());  // last one through
  EXPECT_FALSE(f.io->crashed());
  EXPECT_TRUE(f.file->WritePage(id, buf.data()).IsIOError());  // trips
  EXPECT_TRUE(f.io->crashed());
  // Everything after the crash fails, including reads and syncs.
  EXPECT_TRUE(f.file->ReadPage(id, buf.data()).IsIOError());
  EXPECT_TRUE(f.file->Sync().IsIOError());
  ASSERT_TRUE(f.file->Close().ok());
}

TEST_F(FaultInjectionTest, BufferPoolSurvivesRepeatedFailedFetches) {
  const std::string path = dir_ + "/f.pf";
  BuildPageFile(path, 6);
  FlipBitInFile(path, 2 * kDiskPageSize + kPageHeaderSize + 10, 1);

  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  BufferPool pool(&file, /*capacity=*/8);
  // Regression: a failed Fetch must hand its frame back. With capacity 8,
  // leaking one frame per failure would exhaust the pool within 8 tries.
  for (int i = 0; i < 20; ++i) {
    auto fetched = pool.Fetch(2);
    ASSERT_FALSE(fetched.ok());
    EXPECT_TRUE(fetched.status().IsCorruption());
  }
  for (PageId id : {0u, 1u, 3u, 4u, 5u}) {
    auto fetched = pool.Fetch(id);
    EXPECT_TRUE(fetched.ok()) << "page " << id << ": " << fetched.status();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(file.Close().ok());
}

// --- record store -----------------------------------------------------------

TEST_F(FaultInjectionTest, RecordStoreDetectsBitRot) {
  const std::string path = dir_ + "/r.dat";
  RecordId id{};
  {
    RecordStore store;
    ASSERT_TRUE(store.Open(path, true).ok());
    auto appended = store.Append(std::string(100, 'p'));
    ASSERT_TRUE(appended.ok());
    id = *appended;
    ASSERT_TRUE(store.Sync().ok());
    ASSERT_TRUE(store.Close().ok());
  }
  // Corrupt the record magic.
  FlipBitInFile(path, id.offset, 0);
  {
    RecordStore store;
    ASSERT_TRUE(store.Open(path, false).ok());
    EXPECT_TRUE(store.Read(id).status().IsCorruption());
    ASSERT_TRUE(store.Close().ok());
  }
  // Restore the magic, blow up the length field instead.
  FlipBitInFile(path, id.offset, 0);
  FlipBitInFile(path, id.offset + 4, 7);  // length: 100 -> huge
  {
    RecordStore store;
    ASSERT_TRUE(store.Open(path, false).ok());
    EXPECT_TRUE(store.Read(id).status().IsCorruption());
    ASSERT_TRUE(store.Close().ok());
  }
}

// --- index meta codec -------------------------------------------------------

TEST(IndexMetaCodecTest, StorageFieldsRoundTripAndRejectTruncation) {
  IndexMeta meta;
  meta.storage_format = kPageFormatVersion;
  meta.indexed_docs = 42;
  std::string buf = EncodeIndexMeta(meta);

  auto restored = DecodeIndexMeta(buf);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->storage_format, kPageFormatVersion);
  EXPECT_EQ(restored->indexed_docs, 42u);

  // Truncating into the v2 tail is corruption, not silent acceptance.
  auto cut = DecodeIndexMeta(buf.substr(0, buf.size() - 1));
  EXPECT_TRUE(cut.status().IsCorruption()) << cut.status();

  // Version 0 and from-the-future versions are rejected up front.
  std::string v0 = buf;
  v0[4] = 0;  // varint version right after the 4-byte magic
  EXPECT_TRUE(DecodeIndexMeta(v0).status().IsCorruption());
  EXPECT_EQ(static_cast<uint32_t>(buf[4]), kIndexMetaVersion);
  std::string v8 = buf;
  v8[4] = 8;  // the version after the current one
  EXPECT_TRUE(DecodeIndexMeta(v8).status().IsCorruption());
  std::string v127 = buf;
  v127[4] = 127;
  EXPECT_TRUE(DecodeIndexMeta(v127).status().IsCorruption());
}

// --- B+-tree structural audit -----------------------------------------------

class BTreeAuditTest : public FaultInjectionTest {
 protected:
  /// Bulk-loads a two-level tree (meta + inner root + several packed
  /// leaves) with valid checksums throughout. Every page past the meta is
  /// reachable, so damage to any node is damage to the tree.
  void BuildTree(const std::string& path) {
    PageFile file;
    ASSERT_TRUE(file.Open(path, true).ok());
    BufferPool pool(&file, 64);
    auto tree = BTree::Create(&pool, /*key_size=*/8, /*value_size=*/8);
    ASSERT_TRUE(tree.ok());
    std::vector<std::pair<std::string, std::string>> entries;
    for (uint32_t i = 0; i < 2000; ++i) {
      char key[8];
      EncodeFixed32(key, 0);
      EncodeFixed32(key + 4, __builtin_bswap32(i));  // big-endian: memcmp order
      entries.emplace_back(std::string(key, sizeof key),
                           std::string(8, '\0'));
    }
    ASSERT_TRUE(tree->BulkLoad(entries).ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_EQ(tree->height(), 2u);
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(file.Close().ok());
  }

  /// First page (id >= 1) whose node-type byte equals `want`.
  PageId FindNode(const std::string& path, uint8_t want) {
    PageFile file;
    EXPECT_TRUE(file.Open(path, false).ok());
    PageId found = kInvalidPage;
    std::vector<char> buf(kPageSize);
    for (PageId id = 1; id < file.num_pages() && found == kInvalidPage;
         ++id) {
      EXPECT_TRUE(file.ReadPage(id, buf.data()).ok());
      if (static_cast<uint8_t>(buf[0]) == want) found = id;
    }
    EXPECT_TRUE(file.Close().ok());
    return found;
  }

  /// The audit must flag the file even though every page checksum is valid.
  void ExpectAuditViolation(const std::string& path,
                            const std::string& needle) {
    auto report = ScrubPageFile(path);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->ok_pages, report->pages);  // checksums all pass...
    ASSERT_FALSE(report->clean()) << "expected violation: " << needle;
    EXPECT_NE(report->violations[0].find(needle), std::string::npos)
        << report->violations[0];
  }

  /// BTree::VerifyStructure on the file, opened as a tree.
  Status VerifyTree(const std::string& path) {
    PageFile file;
    Status opened = file.Open(path, false);
    if (!opened.ok()) return opened;
    Status verified;
    {
      BufferPool pool(&file, 64);
      auto tree = BTree::Open(&pool);
      verified = tree.ok() ? tree->VerifyStructure() : tree.status();
    }
    EXPECT_TRUE(file.Close().ok());
    return verified;
  }

  /// Both audits flag the file as Corruption naming `needle`.
  void ExpectCorruption(const std::string& path, const std::string& needle) {
    ExpectAuditViolation(path, needle);
    Status verified = VerifyTree(path);
    EXPECT_TRUE(verified.IsCorruption()) << verified;
    EXPECT_NE(verified.ToString().find(needle), std::string::npos)
        << verified;
  }
};

TEST_F(BTreeAuditTest, CleanTreePassesScrub) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  auto report = ScrubPageFile(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->violations[0];
  EXPECT_GT(report->pages, 3u);
}

TEST_F(BTreeAuditTest, RejectsForeignMetaPage) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  EditPayload(path, 0, [](char* p) { EncodeFixed32(p, 0xdeadbeef); });
  ExpectAuditViolation(path, "not a FIX B+-tree");
}

TEST_F(BTreeAuditTest, RejectsImplausibleGeometry) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  // key_size field in the meta page blown up past any page capacity.
  EditPayload(path, 0, [](char* p) { EncodeFixed32(p + 4, 1u << 30); });
  ExpectAuditViolation(path, "implausible");
}

TEST_F(BTreeAuditTest, DetectsBadNodeType) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId leaf = FindNode(path, /*kLeaf=*/0);
  ASSERT_NE(leaf, kInvalidPage);
  EditPayload(path, leaf, [](char* p) { p[0] = 9; });
  ExpectAuditViolation(path, "bad node type");
}

TEST_F(BTreeAuditTest, DetectsOverflowingLeafCount) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId leaf = FindNode(path, 0);
  ASSERT_NE(leaf, kInvalidPage);
  EditPayload(path, leaf, [](char* p) {
    p[2] = static_cast<char>(0xff);  // count u16 -> 65535, past capacity
    p[3] = static_cast<char>(0xff);
  });
  ExpectAuditViolation(path, "leaf page");
}

TEST_F(BTreeAuditTest, DetectsKeysOutOfOrderInLeaf) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId leaf = FindNode(path, 0);
  ASSERT_NE(leaf, kInvalidPage);
  EditPayload(path, leaf, [](char* p) {
    // Swap the first two 16-byte (key, value) entries.
    char tmp[16];
    std::memcpy(tmp, p + 8, 16);
    std::memcpy(p + 8, p + 24, 16);
    std::memcpy(p + 24, tmp, 16);
  });
  ExpectAuditViolation(path, "out of order");
}

// Keys are unique, so a leaf that repeats one is damage. The tree is
// built with keys 0, 1, 2, ... in 16-byte (key, value) entries.
TEST_F(BTreeAuditTest, DetectsRepeatedKey) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId leaf = FindNode(path, 0);
  ASSERT_NE(leaf, kInvalidPage);
  // The first key copied over the second, within the leaf.
  EditPayload(path, leaf, [](char* p) { std::memcpy(p + 24, p + 8, 8); });
  ExpectCorruption(path, "repeated key in leaf page");

  // A leaf's first key set to the previous leaf's last key: each leaf is
  // in order, the repeat is across the boundary.
  const std::string path2 = dir_ + "/t2.bt";
  BuildTree(path2);
  PageId second = kInvalidPage;
  {
    PageFile file;
    ASSERT_TRUE(file.Open(path2, false).ok());
    std::vector<char> buf(kPageSize);
    const std::string zero_key(8, '\0');
    for (PageId id = 1; id < file.num_pages() && second == kInvalidPage;
         ++id) {
      ASSERT_TRUE(file.ReadPage(id, buf.data()).ok());
      if (buf[0] == 0 &&
          std::memcmp(buf.data() + 8, zero_key.data(), 8) != 0) {
        second = id;
      }
    }
    ASSERT_TRUE(file.Close().ok());
  }
  ASSERT_NE(second, kInvalidPage);
  EditPayload(path2, second, [](char* p) {
    const uint32_t first = __builtin_bswap32(DecodeFixed32(p + 12));
    EncodeFixed32(p + 12, __builtin_bswap32(first - 1));
  });
  ExpectCorruption(path2, "repeated key across leaves");
}

// Nothing removes entries, so an empty leaf below the root is damage.
TEST_F(BTreeAuditTest, DetectsEmptyNonRootLeaf) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId leaf = FindNode(path, 0);
  ASSERT_NE(leaf, kInvalidPage);
  EditPayload(path, leaf, [](char* p) { p[2] = p[3] = 0; });
  ExpectCorruption(path, "empty non-root leaf");
}

TEST_F(BTreeAuditTest, DetectsChildIdOutOfRange) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId inner = FindNode(path, /*kInner=*/1);
  ASSERT_NE(inner, kInvalidPage);
  EditPayload(path, inner,
              [](char* p) { EncodeFixed32(p + 4, 1u << 20); });
  ExpectAuditViolation(path, "out of range");
}

TEST_F(BTreeAuditTest, DetectsCycle) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  PageId inner = FindNode(path, 1);
  ASSERT_NE(inner, kInvalidPage);
  // Point the first child at the inner node itself.
  EditPayload(path, inner,
              [inner](char* p) { EncodeFixed32(p + 4, inner); });
  ExpectAuditViolation(path, "");  // cycle, depth, or type — any is a catch
}

TEST_F(BTreeAuditTest, DetectsKeysOutOfOrderAcrossLeaves) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  // Find a leaf other than the first (whose first key is the all-zero key),
  // so zeroing its first key puts it below the previous leaf's last key
  // while leaving the leaf itself in order.
  PageId leaf = kInvalidPage;
  {
    PageFile file;
    ASSERT_TRUE(file.Open(path, false).ok());
    std::vector<char> buf(kPageSize);
    const std::string zero_key(8, '\0');
    for (PageId id = 1; id < file.num_pages() && leaf == kInvalidPage;
         ++id) {
      ASSERT_TRUE(file.ReadPage(id, buf.data()).ok());
      if (buf[0] == 0 &&
          std::memcmp(buf.data() + 8, zero_key.data(), 8) != 0) {
        leaf = id;
      }
    }
    ASSERT_TRUE(file.Close().ok());
  }
  ASSERT_NE(leaf, kInvalidPage);
  EditPayload(path, leaf, [](char* p) { std::memset(p + 8, 0, 8); });
  ExpectAuditViolation(path, "out of order across");
}

TEST_F(BTreeAuditTest, DetectsEntryCountMismatch) {
  const std::string path = dir_ + "/t.bt";
  BuildTree(path);
  // Meta page entry count is at a fixed slot; nudge it by one. Layout:
  // magic, key_size, value_size, root, height, then the u64 entry count.
  EditPayload(path, 0, [](char* p) {
    EncodeFixed32(p + 20, DecodeFixed32(p + 20) + 1);
  });
  ExpectAuditViolation(path, "entry count mismatch");
}

// --- scrub acceptance: random single-bit corruption -------------------------

TEST_F(FaultInjectionTest, ScrubDetectsEveryRandomSingleBitFlip) {
  const std::string path = dir_ + "/big.pf";
  constexpr PageId kPages = 1000;
  BuildPageFile(path, kPages);

  ScrubOptions opts;
  opts.verify_structure = false;  // raw page file, not a B+-tree
  {
    auto report = ScrubPageFile(path, opts);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->clean());
    ASSERT_EQ(report->pages, kPages);
  }

  Rng rng(20260805);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t byte = rng.Uniform(uint64_t{kPages} * kDiskPageSize);
    const int bit = static_cast<int>(rng.Uniform(8));
    FlipBitInFile(path, byte, bit);
    auto report = ScrubPageFile(path, opts);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->clean())
        << "undetected flip at byte " << byte << " bit " << bit;
    EXPECT_EQ(report->ok_pages, kPages - 1);
    FlipBitInFile(path, byte, bit);  // heal for the next trial
  }
  auto report = ScrubPageFile(path, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
}

// --- database-level recovery ------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/fix_recov_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static IndexOptions TestIndexOptions() {
    IndexOptions options;
    options.depth_limit = 3;
    return options;
  }

  /// Populates `workdir` with a saved corpus (and optionally a built index).
  void MakeDatabase(const std::string& workdir, int num_docs,
                    bool build_index) {
    std::filesystem::create_directories(workdir);
    Database db(workdir);
    TcmdOptions gen;
    gen.seed = 7;
    gen.num_docs = num_docs;
    GenerateTcmd(db.corpus(), gen);
    ASSERT_TRUE(db.Save().ok());
    if (build_index) {
      auto built = db.BuildIndex("main", TestIndexOptions());
      ASSERT_TRUE(built.ok()) << built.status();
    }
  }

  /// Runs the recovery contract on a reopened database: every query answer
  /// must equal the navigational full-scan baseline, and the index must be
  /// either degraded (detected damage) or scrub-clean.
  void CheckRecoveredDatabase(const std::string& workdir) {
    auto db = Database::Open(workdir);
    ASSERT_TRUE(db.ok()) << db.status();
    for (const char* xpath : kQueries) {
      std::vector<NodeRef> got, want;
      auto stats = (*db)->Query("main", xpath, &got);
      ASSERT_TRUE(stats.ok()) << xpath << ": " << stats.status();
      auto compiled = (*db)->Compile(xpath);
      ASSERT_TRUE(compiled.ok());
      auto baseline =
          FullScanExecute((*db)->corpus(), *compiled, &want, /*total=*/0);
      ASSERT_TRUE(baseline.ok());
      EXPECT_EQ(Sorted(got), Sorted(want)) << xpath;
      EXPECT_EQ(stats->degraded, (*db)->IsDegraded("main")) << xpath;
    }
    if (!(*db)->IsDegraded("main")) {
      auto report = ScrubPageFile(workdir + "/main.fix");
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_TRUE(report->clean()) << report->violations[0];
    }
  }

  static std::vector<std::pair<uint32_t, NodeId>> Sorted(
      const std::vector<NodeRef>& refs) {
    std::vector<std::pair<uint32_t, NodeId>> out;
    out.reserve(refs.size());
    for (const NodeRef& r : refs) out.emplace_back(r.doc_id, r.node_id);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Forwards every call to a shared injector. The PageFile destroys the
  /// PageIo it was handed when it goes away (e.g. a crashed BuildIndex
  /// tearing down its index), so the test keeps the injector alive through
  /// a shared_ptr and hands the file this disposable view instead.
  class SharedPageIo : public PageIo {
   public:
    explicit SharedPageIo(std::shared_ptr<PageIo> base)
        : base_(std::move(base)) {}
    [[nodiscard]] Status Open(const std::string& path, bool create) override {
      return base_->Open(path, create);
    }
    [[nodiscard]] Status Close() override { return base_->Close(); }
    bool is_open() const override { return base_->is_open(); }
    const std::string& path() const override { return base_->path(); }
    [[nodiscard]] Result<uint64_t> Size() const override {
      return base_->Size();
    }
    [[nodiscard]] Status Truncate(uint64_t size) override {
      return base_->Truncate(size);
    }
    [[nodiscard]] Status Read(uint64_t offset, char* buf,
                              size_t len) override {
      return base_->Read(offset, buf, len);
    }
    [[nodiscard]] Status Write(uint64_t offset, const char* buf,
                               size_t len) override {
      return base_->Write(offset, buf, len);
    }
    [[nodiscard]] Status Sync() override { return base_->Sync(); }

   private:
    std::shared_ptr<PageIo> base_;
  };

  /// An OpenOptions whose page files crash after `budget` writes; the
  /// injector handle is stored into `*out` when the factory runs. The test
  /// co-owns the injector so it can still inspect crashed()/counters after
  /// the database has torn the page file down.
  static Database::OpenOptions CrashyOptions(
      uint64_t budget, std::shared_ptr<FaultInjectionPageIo>* out) {
    Database::OpenOptions options;
    options.page_io_factory = [budget, out]() {
      auto io = std::make_shared<FaultInjectionPageIo>(
          std::make_unique<FilePageIo>());
      io->CrashAfterWrites(budget);
      *out = io;
      return std::unique_ptr<PageIo>(new SharedPageIo(io));
    };
    return options;
  }

  /// Like CrashyOptions, but every page file the database opens (old index
  /// attach, side build, reopen) gets its own injector with the same
  /// budget; collecting them in `*all` lets a test sum the whole write
  /// schedule and later detect which one crashed.
  static Database::OpenOptions MultiCrashyOptions(
      uint64_t budget,
      std::vector<std::shared_ptr<FaultInjectionPageIo>>* all) {
    Database::OpenOptions options;
    options.page_io_factory = [budget, all]() {
      auto io = std::make_shared<FaultInjectionPageIo>(
          std::make_unique<FilePageIo>());
      io->CrashAfterWrites(budget);
      all->push_back(io);
      return std::unique_ptr<PageIo>(new SharedPageIo(io));
    };
    return options;
  }

  /// Like CrashyOptions, but arms the write-ahead-log backend instead of
  /// the page files: the data file stays healthy and only the log crashes.
  static Database::OpenOptions WalCrashyOptions(
      uint64_t budget, std::shared_ptr<FaultInjectionPageIo>* out) {
    Database::OpenOptions options;
    options.wal_io_factory = [budget, out]() {
      auto io = std::make_shared<FaultInjectionPageIo>(
          std::make_unique<FilePageIo>());
      io->CrashAfterWrites(budget);
      *out = io;
      return std::unique_ptr<PageIo>(new SharedPageIo(io));
    };
    return options;
  }

  /// Sorted query answers for every kQueries entry against `workdir` as it
  /// is on disk right now (opened fresh, no fault injection).
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> QueryAnswers(
      const std::string& workdir) {
    std::vector<std::vector<std::pair<uint32_t, NodeId>>> out;
    auto db = Database::Open(workdir);
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return out;
    for (const char* xpath : kQueries) {
      std::vector<NodeRef> got;
      auto stats = (*db)->Query("main", xpath, &got);
      EXPECT_TRUE(stats.ok()) << xpath << ": " << stats.status();
      out.push_back(Sorted(got));
    }
    return out;
  }

  static constexpr const char* kQueries[3] = {
      "/article[epilog]/prolog",
      "/article/prolog/authors",
      "/article/body/section",
  };

  std::string dir_;
};

TEST_F(RecoveryTest, CorruptIndexQuarantinedAtOpen) {
  MakeDatabase(dir_, /*num_docs=*/10, /*build_index=*/true);
  const std::string index_path = dir_ + "/main.fix";
  // Bit rot in the middle of the index file.
  FlipBitInFile(index_path, kDiskPageSize + kPageHeaderSize + 99, 5);

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();  // recovery never aborts the open
  EXPECT_TRUE((*db)->IsDegraded("main"));
  EXPECT_EQ((*db)->health().quarantined_indexes, 1u);
  EXPECT_GE((*db)->health().corruption_events, 1u);
  EXPECT_TRUE(std::filesystem::exists(index_path + ".quarantined"));
  EXPECT_FALSE(std::filesystem::exists(index_path));

  // Queries still answer, correctly, flagged degraded.
  std::vector<NodeRef> got, want;
  auto stats = (*db)->Query("main", kQueries[0], &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->degraded);
  EXPECT_FALSE(stats->used_index);
  auto compiled = (*db)->Compile(kQueries[0]);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE(FullScanExecute((*db)->corpus(), *compiled, &want, 0).ok());
  EXPECT_EQ(Sorted(got), Sorted(want));
  EXPECT_EQ((*db)->health().degraded_queries, 1u);
}

TEST_F(RecoveryTest, StaleIndexQuarantinedAtOpen) {
  MakeDatabase(dir_, 8, true);
  // Grow the corpus after the index was built — the on-disk state a crash
  // between corpus append and index update leaves behind.
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_FALSE((*db)->IsDegraded("main"));  // sanity: clean before growth
    ASSERT_TRUE((*db)->AddXml("<article><prolog/></article>").ok());
    ASSERT_TRUE((*db)->Save().ok());
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->IsDegraded("main"));
  std::vector<NodeRef> got;
  auto stats = (*db)->Query("main", "/article/prolog", &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->degraded);
  // The full scan sees the new document the index never covered.
  bool saw_new_doc = false;
  for (const NodeRef& r : got) saw_new_doc |= r.doc_id == 8;
  EXPECT_TRUE(saw_new_doc);
}

TEST_F(RecoveryTest, MidQueryCorruptionFallsBackToFullScan) {
  MakeDatabase(dir_, 10, true);
  const std::string index_path = dir_ + "/main.fix";
  // Rot every non-meta page so any lookup trips; skip attach verification
  // so the damage is only discovered mid-query.
  {
    PageFile file;
    ASSERT_TRUE(file.Open(index_path, false).ok());
    std::vector<char> block(kDiskPageSize);
    for (PageId id = 1; id < file.num_pages(); ++id) {
      ASSERT_TRUE(file.ReadRawBlock(id, block.data()).ok());
      block[kPageHeaderSize + 50] ^= 0x10;
      ASSERT_TRUE(file.WriteRawBlock(id, block.data()).ok());
    }
    ASSERT_TRUE(file.Close().ok());
  }
  Database::OpenOptions options;
  options.verify_on_attach = false;
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_FALSE((*db)->IsDegraded("main"));  // damage not yet discovered

  std::vector<NodeRef> got, want;
  auto stats = (*db)->Query("main", kQueries[1], &got);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->degraded);
  EXPECT_TRUE((*db)->IsDegraded("main"));
  EXPECT_GE((*db)->health().corruption_events, 1u);
  EXPECT_TRUE(std::filesystem::exists(index_path + ".quarantined"));

  auto compiled = (*db)->Compile(kQueries[1]);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE(FullScanExecute((*db)->corpus(), *compiled, &want, 0).ok());
  EXPECT_EQ(Sorted(got), Sorted(want));
}

TEST_F(RecoveryTest, RebuildIndexRestoresService) {
  MakeDatabase(dir_, 10, true);
  FlipBitInFile(dir_ + "/main.fix", kDiskPageSize + 123, 2);

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->IsDegraded("main"));

  auto rebuilt = (*db)->RebuildIndex("main", TestIndexOptions());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_FALSE((*db)->IsDegraded("main"));
  EXPECT_EQ((*db)->health().rebuilds, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/main.fix.quarantined"));

  std::vector<NodeRef> got, want;
  auto stats = (*db)->Query("main", kQueries[2], &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->degraded);
  EXPECT_TRUE(stats->used_index);
  auto compiled = (*db)->Compile(kQueries[2]);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE(FullScanExecute((*db)->corpus(), *compiled, &want, 0).ok());
  EXPECT_EQ(Sorted(got), Sorted(want));

  // The rebuilt index survives a fresh recovery cycle, clean.
  auto db2 = Database::Open(dir_);
  ASSERT_TRUE(db2.ok());
  EXPECT_FALSE((*db2)->IsDegraded("main"));
  auto report = ScrubPageFile(dir_ + "/main.fix");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
}

// The acceptance matrix: kill index construction and incremental update at
// 20+ distinct write counts, then reopen and hold the recovery contract.
TEST_F(RecoveryTest, CrashRecoveryMatrix) {
  const std::string corpus_template = dir_ + "/tmpl_corpus";
  const std::string full_template = dir_ + "/tmpl_full";
  // 48 documents: with 28-byte entries a 24-document build writes too few
  // pages to spread 20 distinct crash points over.
  MakeDatabase(corpus_template, /*num_docs=*/48, /*build_index=*/false);
  MakeDatabase(full_template, /*num_docs=*/48, /*build_index=*/true);

  // Measure the write counts of a clean build and a clean update so the
  // crash points can be spread across the whole write schedule.
  uint64_t build_writes = 0;
  {
    const std::string wd = dir_ + "/measure_build";
    std::filesystem::copy(corpus_template, wd,
                          std::filesystem::copy_options::recursive);
    std::shared_ptr<FaultInjectionPageIo> io;
    auto options = CrashyOptions(/*budget=*/UINT64_MAX / 2, &io);
    auto db = Database::Open(wd, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->BuildIndex("main", TestIndexOptions()).ok());
    ASSERT_NE(io, nullptr);
    build_writes = io->writes();
  }
  const std::string kNewDoc =
      "<article><prolog><title>t</title><authors><author><name>n</name>"
      "</author></authors></prolog><body><section><heading>h</heading>"
      "<p>p</p></section></body><epilog><references><a_id>r</a_id>"
      "</references></epilog></article>";
  uint64_t update_writes = 0;
  {
    const std::string wd = dir_ + "/measure_update";
    std::filesystem::copy(full_template, wd,
                          std::filesystem::copy_options::recursive);
    std::shared_ptr<FaultInjectionPageIo> io;
    auto options = CrashyOptions(UINT64_MAX / 2, &io);
    auto db = Database::Open(wd, options);
    ASSERT_TRUE(db.ok());
    ASSERT_FALSE((*db)->IsDegraded("main"));
    auto doc_id = (*db)->AddXml(kNewDoc);
    ASSERT_TRUE(doc_id.ok());
    const uint64_t before = io->writes();
    ASSERT_TRUE((*db)->index("main")->InsertDocument(*doc_id).ok());
    ASSERT_TRUE((*db)->Save().ok());
    update_writes = io->writes() - before;
  }
  ASSERT_GE(build_writes, 2u);
  ASSERT_GE(update_writes, 1u);

  // Crash points: every update write count, plus build write counts spread
  // over the whole schedule until the acceptance floor of 20 is met.
  std::set<uint64_t> update_points, build_points;
  for (uint64_t k = 0; k < update_writes && update_points.size() < 8; ++k) {
    update_points.insert(k);
  }
  const size_t build_quota =
      std::max<size_t>(20 - std::min<size_t>(update_points.size(), 19), 14);
  for (size_t i = 0; i < build_quota; ++i) {
    build_points.insert(i * build_writes / build_quota);
  }
  ASSERT_GE(build_points.size() + update_points.size(), 20u)
      << "corpus too small to yield 20 distinct crash points: "
      << build_writes << " build writes, " << update_writes
      << " update writes";

  int triggered_build = 0, triggered_update = 0;

  for (uint64_t k : build_points) {
    SCOPED_TRACE("build crash after " + std::to_string(k) + " writes");
    const std::string wd = dir_ + "/build_k" + std::to_string(k);
    std::filesystem::copy(corpus_template, wd,
                          std::filesystem::copy_options::recursive);
    {
      std::shared_ptr<FaultInjectionPageIo> io;
      auto options = CrashyOptions(k, &io);
      auto db = Database::Open(wd, options);
      ASSERT_TRUE(db.ok());
      auto built = (*db)->BuildIndex("main", TestIndexOptions());
      ASSERT_NE(io, nullptr);
      ASSERT_TRUE(io->crashed());  // k < build_writes: the crash must trip
      EXPECT_FALSE(built.ok());    // and the failure must not be swallowed
      ++triggered_build;
    }
    CheckRecoveredDatabase(wd);
  }

  for (uint64_t k : update_points) {
    SCOPED_TRACE("update crash after " + std::to_string(k) + " writes");
    const std::string wd = dir_ + "/update_k" + std::to_string(k);
    std::filesystem::copy(full_template, wd,
                          std::filesystem::copy_options::recursive);
    {
      std::shared_ptr<FaultInjectionPageIo> io;
      auto options = CrashyOptions(UINT64_MAX / 2, &io);
      auto db = Database::Open(wd, options);
      ASSERT_TRUE(db.ok());
      ASSERT_FALSE((*db)->IsDegraded("main"));
      auto doc_id = (*db)->AddXml(kNewDoc);
      ASSERT_TRUE(doc_id.ok());
      // Re-arm at the update's k-th write (attach already consumed reads
      // but no writes; arming here scopes the budget to the update path).
      io->CrashAfterWrites(k);
      Status inserted = (*db)->index("main")->InsertDocument(*doc_id);
      ASSERT_TRUE(io->crashed());
      EXPECT_FALSE(inserted.ok());
      ASSERT_TRUE((*db)->Save().ok());  // the corpus append itself survives
      ++triggered_update;
    }
    CheckRecoveredDatabase(wd);
  }

  EXPECT_GE(triggered_build + triggered_update, 20);
  EXPECT_GE(triggered_build, 1);
  EXPECT_GE(triggered_update, 1);
}

// --- WAL crash-recovery matrix ----------------------------------------------

constexpr const char* kWalNewDoc =
    "<article><prolog><title>t</title><authors><author><name>n</name>"
    "</author></authors></prolog><body><section><heading>h</heading>"
    "<p>p</p></section></body><epilog><references><a_id>r</a_id>"
    "</references></epilog></article>";

// The COW+WAL acceptance matrix: crash the data file at every write index
// of an InsertDocument commit, and crash the log itself at every one of its
// write indexes. After each crash the database is reopened and must hold
// the atomicity contract: if the WAL commit record reached the disk, replay
// adopts the post-write index with ZERO quarantines and full index service;
// if it did not, the pre-write index is quarantined as stale and the
// degraded full scan answers from the post-write corpus. Either way every
// answer is byte-identical to the never-crashed twin.
TEST_F(RecoveryTest, WalCrashRecoveryMatrix) {
  const std::string full_template = dir_ + "/tmpl_full";
  MakeDatabase(full_template, /*num_docs=*/24, /*build_index=*/true);

  // Never-crashed twin: the post-insert ground truth.
  const std::string twin = dir_ + "/twin";
  std::filesystem::copy(full_template, twin,
                        std::filesystem::copy_options::recursive);
  {
    auto db = Database::Open(twin);
    ASSERT_TRUE(db.ok()) << db.status();
    auto doc_id = (*db)->AddXml(kWalNewDoc);
    ASSERT_TRUE(doc_id.ok());
    ASSERT_TRUE((*db)->index("main")->InsertDocument(*doc_id).ok());
    ASSERT_TRUE((*db)->Save().ok());
  }
  const auto post = QueryAnswers(twin);
  ASSERT_EQ(post.size(), 3u);

  // Measure the insert's write schedule on both files.
  uint64_t data_writes = 0, wal_writes = 0;
  {
    const std::string wd = dir_ + "/measure";
    std::filesystem::copy(full_template, wd,
                          std::filesystem::copy_options::recursive);
    std::shared_ptr<FaultInjectionPageIo> data_io, wal_io;
    auto options = CrashyOptions(UINT64_MAX / 2, &data_io);
    options.wal_io_factory =
        WalCrashyOptions(UINT64_MAX / 2, &wal_io).wal_io_factory;
    auto db = Database::Open(wd, options);
    ASSERT_TRUE(db.ok());
    auto doc_id = (*db)->AddXml(kWalNewDoc);
    ASSERT_TRUE(doc_id.ok());
    const uint64_t d0 = data_io->writes(), w0 = wal_io->writes();
    ASSERT_TRUE((*db)->index("main")->InsertDocument(*doc_id).ok());
    data_writes = data_io->writes() - d0;
    wal_writes = wal_io->writes() - w0;
  }
  ASSERT_GE(data_writes, 2u);
  ASSERT_GE(wal_writes, 1u);

  // Crash points: every log write index exhaustively; the data-file
  // schedule either exhaustively (small) or spread, always including the
  // last two indexes — those land on the post-commit checkpoint and
  // exercise the zero-quarantine roll-forward side. A budget equal to the
  // whole schedule (the crash never trips) is the success boundary case.
  std::set<uint64_t> data_points, wal_points;
  for (uint64_t k = 0; k <= wal_writes; ++k) wal_points.insert(k);
  if (data_writes <= 14) {
    for (uint64_t k = 0; k <= data_writes; ++k) data_points.insert(k);
  } else {
    for (uint64_t i = 0; i < 10; ++i) {
      data_points.insert(i * data_writes / 10);
    }
    for (uint64_t k = data_writes - 2; k <= data_writes; ++k) {
      data_points.insert(k);
    }
  }

  int committed_runs = 0, aborted_runs = 0;
  auto run_point = [&](const std::string& wd, bool crash_wal, uint64_t k) {
    std::filesystem::copy(full_template, wd,
                          std::filesystem::copy_options::recursive);
    {
      std::shared_ptr<FaultInjectionPageIo> io;
      auto options = crash_wal ? WalCrashyOptions(UINT64_MAX / 2, &io)
                               : CrashyOptions(UINT64_MAX / 2, &io);
      auto db = Database::Open(wd, options);
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_FALSE((*db)->IsDegraded("main"));
      auto doc_id = (*db)->AddXml(kWalNewDoc);
      ASSERT_TRUE(doc_id.ok());
      io->CrashAfterWrites(k);  // re-arm: scope the budget to the insert
      Status inserted = (*db)->index("main")->InsertDocument(*doc_id);
      (void)inserted;  // success or failure — both are valid crash outcomes
      ASSERT_TRUE((*db)->Save().ok());  // the corpus append itself survives
    }
    // Decide the expected side from the disk state alone, the way recovery
    // will: a durable commit record covering the new document, or (when
    // the whole insert ran to completion and reset the log) a sidecar meta
    // already carrying the new coverage.
    bool committed = false;
    {
      auto scan = Wal::Inspect(wd + "/main.fix.wal");
      ASSERT_TRUE(scan.ok()) << scan.status();
      committed = scan->has_commit && scan->last_commit.indexed_docs == 25;
      if (!committed) {
        auto meta_buf = ReadFile(wd + "/main.fix.meta");
        ASSERT_TRUE(meta_buf.ok());
        auto meta = DecodeIndexMeta(*meta_buf);
        ASSERT_TRUE(meta.ok()) << meta.status();
        committed = meta->indexed_docs == 25;
      }
    }
    (committed ? committed_runs : aborted_runs) += 1;

    auto db = Database::Open(wd);
    ASSERT_TRUE(db.ok()) << db.status();
    if (committed) {
      // Committed side: replay must land the post-write index with zero
      // quarantines — no degraded window for an acknowledged-on-disk
      // commit.
      EXPECT_FALSE((*db)->IsDegraded("main"));
      EXPECT_EQ((*db)->health().quarantined_indexes, 0u);
    } else {
      // Aborted side: the index is pre-write but the corpus moved on, so
      // staleness quarantine + degraded full scan is the contract.
      EXPECT_TRUE((*db)->IsDegraded("main"));
      EXPECT_EQ((*db)->health().quarantined_indexes, 1u);
    }
    for (size_t i = 0; i < 3; ++i) {
      std::vector<NodeRef> got;
      auto stats = (*db)->Query("main", kQueries[i], &got);
      ASSERT_TRUE(stats.ok()) << kQueries[i] << ": " << stats.status();
      EXPECT_EQ(Sorted(got), post[i]) << kQueries[i];
      EXPECT_EQ(stats->degraded, !committed) << kQueries[i];
    }
    if (committed) {
      // The recovered index is structurally sound and the log was
      // checkpointed back to empty.
      auto report = ScrubPageFile(wd + "/main.fix");
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_TRUE(report->clean()) << report->violations[0];
      auto after = Wal::Inspect(wd + "/main.fix.wal");
      ASSERT_TRUE(after.ok()) << after.status();
      EXPECT_EQ(after->records, 0u);
      EXPECT_FALSE(after->torn_tail);
    }
  };

  for (uint64_t k : data_points) {
    SCOPED_TRACE("data-file crash after " + std::to_string(k) + " writes");
    run_point(dir_ + "/data_k" + std::to_string(k), /*crash_wal=*/false, k);
  }
  for (uint64_t k : wal_points) {
    SCOPED_TRACE("log crash after " + std::to_string(k) + " writes");
    run_point(dir_ + "/wal_k" + std::to_string(k), /*crash_wal=*/true, k);
  }
  EXPECT_GE(committed_runs, 2);
  EXPECT_GE(aborted_runs, 2);
}

// Crashing an online rebuild must leave the old index serving at full
// fidelity — the zero-degraded-window contract: the side-path build dies,
// its files are removed, and neither the live handle nor a later reopen
// sees any damage or quarantine.
TEST_F(RecoveryTest, RebuildCrashKeepsOldIndexServing) {
  const std::string tmpl = dir_ + "/tmpl";
  MakeDatabase(tmpl, /*num_docs=*/24, /*build_index=*/true);
  const auto baseline = QueryAnswers(tmpl);
  ASSERT_EQ(baseline.size(), 3u);

  auto multi_options = MultiCrashyOptions;
  uint64_t rebuild_writes = 0;
  {
    const std::string wd = dir_ + "/measure";
    std::filesystem::copy(tmpl, wd,
                          std::filesystem::copy_options::recursive);
    std::vector<std::shared_ptr<FaultInjectionPageIo>> ios;
    auto db = Database::Open(wd, multi_options(UINT64_MAX / 2, &ios));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->RebuildIndex("main", TestIndexOptions()).ok());
    for (const auto& io : ios) rebuild_writes += io->writes();
  }
  ASSERT_GE(rebuild_writes, 2u);

  std::set<uint64_t> points;
  for (uint64_t i = 0; i < 8; ++i) {
    points.insert(i * rebuild_writes / 8);
  }
  points.insert(rebuild_writes);  // success boundary: the crash never trips

  int crashed_runs = 0;
  for (uint64_t k : points) {
    SCOPED_TRACE("rebuild crash after " + std::to_string(k) + " writes");
    const std::string wd = dir_ + "/rebuild_k" + std::to_string(k);
    std::filesystem::copy(tmpl, wd,
                          std::filesystem::copy_options::recursive);
    {
      std::vector<std::shared_ptr<FaultInjectionPageIo>> ios;
      auto db = Database::Open(wd, multi_options(k, &ios));
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_FALSE((*db)->IsDegraded("main"));
      auto rebuilt = (*db)->RebuildIndex("main", TestIndexOptions());
      if (!rebuilt.ok()) {
        ++crashed_runs;
        // Old index untouched and still serving — no degraded window, no
        // quarantine, answers identical to before the attempt.
        EXPECT_FALSE((*db)->IsDegraded("main"));
        EXPECT_EQ((*db)->health().quarantined_indexes, 0u);
        EXPECT_EQ((*db)->health().rebuilds, 0u);
        ASSERT_NE((*db)->index("main"), nullptr);
      } else {
        EXPECT_EQ((*db)->health().rebuilds, 1u);
      }
      for (size_t i = 0; i < 3; ++i) {
        std::vector<NodeRef> got;
        auto stats = (*db)->Query("main", kQueries[i], &got);
        ASSERT_TRUE(stats.ok()) << kQueries[i] << ": " << stats.status();
        EXPECT_FALSE(stats->degraded);
        EXPECT_EQ(Sorted(got), baseline[i]) << kQueries[i];
      }
      // The failed side build cleans up after itself.
      if (!rebuilt.ok()) {
        EXPECT_FALSE(std::filesystem::exists(wd + "/main.fix.rebuild"));
      }
    }
    CheckRecoveredDatabase(wd);
  }
  EXPECT_GE(crashed_runs, 2);
}

// An index written before meta v7 (48-byte entries) is upgraded by a
// rebuild inside Database::Open. A crash at any write of that rebuild
// leaves the old files in place — the index answers by full scan, with no
// quarantine and no corruption event — and the next clean open upgrades
// it: answers correct, not degraded, meta v7.
TEST_F(RecoveryTest, RebuildUpgradesPreV7Index) {
  const std::string tmpl = dir_ + "/tmpl";
  MakeDatabase(tmpl, /*num_docs=*/24, /*build_index=*/true);
  const auto baseline = QueryAnswers(tmpl);
  ASSERT_EQ(baseline.size(), 3u);
  {
    // Age the index to v6: the v7 meta with the header version set to 6
    // and the key-sequence counter v1–v6 wrote after the options, and a
    // format-1 log.
    auto v7 = ReadFile(tmpl + "/main.fix.meta");
    ASSERT_TRUE(v7.ok());
    ASSERT_EQ(DecodeFixed32(v7->data() + 4), 7u);
    size_t pos = 8;
    uint32_t field32 = 0;
    uint64_t field64 = 0;
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(GetVarint32(*v7, &pos, &field32));
    pos += 8;  // epsilon
    ASSERT_TRUE(GetVarint64(*v7, &pos, &field64));
    ASSERT_TRUE(GetVarint64(*v7, &pos, &field64));
    std::string v6 = v7->substr(0, pos);
    PutVarint32(&v6, 4321);
    v6 += v7->substr(pos);
    EncodeFixed32(v6.data() + 4, 6);
    ASSERT_TRUE(WriteFile(tmpl + "/main.fix.meta", v6).ok());
    std::string wal(kWalHeaderSize, '\0');
    EncodeFixed32(wal.data(), kWalMagic);
    EncodeFixed32(wal.data() + 4, 1);
    EncodeFixed32(wal.data() + 8, 32);
    EncodeFixed32(wal.data() + 12, 16);
    EncodeFixed32(wal.data() + 28, Crc32c(wal.data(), 28));
    ASSERT_TRUE(WriteFile(tmpl + "/main.fix.wal", wal).ok());
  }
  auto meta_version = [](const std::string& workdir) {
    auto meta = ReadFile(workdir + "/main.fix.meta");
    EXPECT_TRUE(meta.ok());
    return meta.ok() ? DecodeFixed32(meta->data() + 4) : 0u;
  };

  uint64_t upgrade_writes = 0;
  {
    const std::string wd = dir_ + "/measure";
    std::filesystem::copy(tmpl, wd, std::filesystem::copy_options::recursive);
    std::vector<std::shared_ptr<FaultInjectionPageIo>> ios;
    auto db = Database::Open(wd, MultiCrashyOptions(UINT64_MAX / 2, &ios));
    ASSERT_TRUE(db.ok());
    ASSERT_FALSE((*db)->IsDegraded("main"));
    EXPECT_EQ((*db)->health().rebuilds, 1u);
    for (const auto& io : ios) upgrade_writes += io->writes();
  }
  ASSERT_GE(upgrade_writes, 2u);

  int crashed_runs = 0;
  for (uint64_t k = 0; k <= upgrade_writes; ++k) {
    SCOPED_TRACE("upgrade crash after " + std::to_string(k) + " writes");
    const std::string wd = dir_ + "/upgrade_k" + std::to_string(k);
    std::filesystem::copy(tmpl, wd, std::filesystem::copy_options::recursive);
    bool crashed = false;
    {
      std::vector<std::shared_ptr<FaultInjectionPageIo>> ios;
      auto db = Database::Open(wd, MultiCrashyOptions(k, &ios));
      ASSERT_TRUE(db.ok()) << db.status();
      crashed = (*db)->health().rebuilds == 0;
      crashed_runs += crashed;
      // A failed upgrade is not damage: nothing is renamed aside, and the
      // index serves by full scan until an open upgrades it.
      EXPECT_EQ((*db)->IsDegraded("main"), crashed);
      EXPECT_EQ((*db)->health().corruption_events, 0u);
      EXPECT_EQ((*db)->health().quarantined_indexes, 0u);
      for (size_t i = 0; i < 3; ++i) {
        std::vector<NodeRef> got;
        auto stats = (*db)->Query("main", kQueries[i], &got);
        ASSERT_TRUE(stats.ok()) << kQueries[i] << ": " << stats.status();
        EXPECT_EQ(stats->degraded, crashed);
        EXPECT_EQ(Sorted(got), baseline[i]) << kQueries[i];
      }
    }
    EXPECT_EQ(meta_version(wd), crashed ? 6u : kIndexMetaVersion);
    EXPECT_FALSE(std::filesystem::exists(wd + "/main.fix.rebuild"));
    {
      auto db = Database::Open(wd);
      ASSERT_TRUE(db.ok()) << db.status();
      EXPECT_FALSE((*db)->IsDegraded("main"));
      EXPECT_EQ((*db)->health().rebuilds, crashed ? 1u : 0u);
      EXPECT_EQ((*db)->health().corruption_events, 0u);
      for (size_t i = 0; i < 3; ++i) {
        std::vector<NodeRef> got;
        auto stats = (*db)->Query("main", kQueries[i], &got);
        ASSERT_TRUE(stats.ok()) << kQueries[i] << ": " << stats.status();
        EXPECT_FALSE(stats->degraded);
        EXPECT_EQ(Sorted(got), baseline[i]) << kQueries[i];
      }
    }
    EXPECT_EQ(meta_version(wd), kIndexMetaVersion);
    CheckRecoveredDatabase(wd);
  }
  EXPECT_EQ(crashed_runs, static_cast<int>(upgrade_writes));
}

// An fsync failure on the log is fail-stop: the insert reports failure (an
// unsynced commit is never acked), no later commit can sneak past the dead
// log, and after a crash the reopened database is consistent — the
// never-acked commit either fully applies (its bytes did reach the disk
// before the failed flush) or is discarded with the index quarantined as
// stale; it is never half-applied.
TEST_F(RecoveryTest, WalFsyncFailureIsFailStop) {
  const std::string wd = dir_ + "/db";
  MakeDatabase(wd, /*num_docs=*/24, /*build_index=*/true);

  std::shared_ptr<FaultInjectionPageIo> wal_io;
  auto options = WalCrashyOptions(UINT64_MAX / 2, &wal_io);
  {
    auto db = Database::Open(wd, options);
    ASSERT_TRUE(db.ok()) << db.status();
    FixIndex* index = (*db)->index("main");
    ASSERT_NE(index, nullptr);
    const uint64_t gen_before = index->generation();
    const uint64_t entries_before = index->num_entries();
    auto doc_id = (*db)->AddXml(kWalNewDoc);
    ASSERT_TRUE(doc_id.ok());

    wal_io->FailNextSyncs(1);
    Status inserted = index->InsertDocument(*doc_id);
    EXPECT_TRUE(inserted.IsIOError()) << inserted.ToString();
    EXPECT_TRUE(index->wal().failed());
    EXPECT_EQ(index->generation(), gen_before);      // never published
    EXPECT_EQ(index->num_entries(), entries_before); // readers see nothing

    // Fail-stop latch: the next commit cannot be acked either, even though
    // no new fault is armed — a log that lost one flush cannot promise
    // ordering for the next.
    Status again = index->InsertDocument(*doc_id);
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(index->generation(), gen_before);

    ASSERT_TRUE((*db)->Save().ok());
  }  // crash

  // The record's bytes may or may not have reached the disk before the
  // failed flush; both outcomes must reopen consistent. Classify from the
  // log like recovery does.
  auto scan = Wal::Inspect(wd + "/main.fix.wal");
  ASSERT_TRUE(scan.ok()) << scan.status();
  const bool landed = scan->has_commit && scan->last_commit.indexed_docs == 25;

  auto db = Database::Open(wd);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->IsDegraded("main"), !landed);
  EXPECT_EQ((*db)->health().quarantined_indexes, landed ? 0u : 1u);
  for (const char* xpath : kQueries) {
    std::vector<NodeRef> got, want;
    auto stats = (*db)->Query("main", xpath, &got);
    ASSERT_TRUE(stats.ok()) << xpath << ": " << stats.status();
    auto compiled = (*db)->Compile(xpath);
    ASSERT_TRUE(compiled.ok());
    ASSERT_TRUE(FullScanExecute((*db)->corpus(), *compiled, &want, 0).ok());
    EXPECT_EQ(Sorted(got), Sorted(want)) << xpath;
  }
}

// A torn tail in the log (a commit record half-written by power loss) must
// be detected and discarded on reopen, without disturbing the committed
// prefix: the index stays at its last durable state, no quarantine, and
// the reopened log is clean again.
TEST_F(RecoveryTest, WalTornTailDiscardedOnReopen) {
  const std::string wd = dir_ + "/db";
  MakeDatabase(wd, /*num_docs=*/24, /*build_index=*/true);
  {
    auto db = Database::Open(wd);
    ASSERT_TRUE(db.ok()) << db.status();
    auto doc_id = (*db)->AddXml(kWalNewDoc);
    ASSERT_TRUE(doc_id.ok());
    ASSERT_TRUE((*db)->index("main")->InsertDocument(*doc_id).ok());
    ASSERT_TRUE((*db)->Save().ok());
  }
  const auto post = QueryAnswers(wd);
  ASSERT_EQ(post.size(), 3u);

  // Half a record frame: a length field promising more bytes than exist.
  const std::string wal_path = wd + "/main.fix.wal";
  auto contents = ReadFile(wal_path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteFile(wal_path, *contents + std::string(13, '\xab')).ok());
  {
    auto scan = Wal::Inspect(wal_path);
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_TRUE(scan->torn_tail);
    EXPECT_EQ(scan->records, 0u);  // the tail is garbage, the prefix empty
  }

  auto db = Database::Open(wd);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_FALSE((*db)->IsDegraded("main"));
  EXPECT_EQ((*db)->health().quarantined_indexes, 0u);
  for (size_t i = 0; i < 3; ++i) {
    std::vector<NodeRef> got;
    auto stats = (*db)->Query("main", kQueries[i], &got);
    ASSERT_TRUE(stats.ok()) << kQueries[i] << ": " << stats.status();
    EXPECT_FALSE(stats->degraded);
    EXPECT_EQ(Sorted(got), post[i]) << kQueries[i];
  }
  auto after = Wal::Inspect(wal_path);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->torn_tail);
  EXPECT_EQ(after->records, 0u);
}

}  // namespace
}  // namespace fix
