// Unit tests for the storage substrate below the B+-tree: page file,
// buffer pool (caching, pinning, eviction, write-back), record store.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/record_store.h"

namespace fix {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_storage_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::string dir_;
};

// --- PageFile ---------------------------------------------------------------

TEST_F(StorageTest, PageFileAllocateWriteRead) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pages"), true).ok());
  PageId p0, p1;
  ASSERT_TRUE(file.AllocatePage(&p0).ok());
  ASSERT_TRUE(file.AllocatePage(&p1).ok());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(file.num_pages(), 2u);

  std::string buf(kPageSize, 'x');
  ASSERT_TRUE(file.WritePage(p1, buf.data()).ok());
  std::string read(kPageSize, 0);
  ASSERT_TRUE(file.ReadPage(p1, read.data()).ok());
  EXPECT_EQ(read, buf);
  // Allocation is metadata-only: a page that was never written has no valid
  // header yet, so reading it reports corruption rather than silent zeros.
  Status fresh = file.ReadPage(p0, read.data());
  EXPECT_TRUE(fresh.IsCorruption()) << fresh.ToString();
  ASSERT_TRUE(file.WritePage(p0, buf.data()).ok());
  ASSERT_TRUE(file.ReadPage(p0, read.data()).ok());
  EXPECT_EQ(read, buf);
}

TEST_F(StorageTest, PageFileReadPastEndFails) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pages"), true).ok());
  char buf[kPageSize];
  EXPECT_FALSE(file.ReadPage(0, buf).ok());
}

TEST_F(StorageTest, PageFileReopenRecoversPageCount) {
  {
    PageFile file;
    ASSERT_TRUE(file.Open(Path("pages"), true).ok());
    PageId id;
    ASSERT_TRUE(file.AllocatePage(&id).ok());
    ASSERT_TRUE(file.AllocatePage(&id).ok());
    ASSERT_TRUE(file.Sync().ok());
    ASSERT_TRUE(file.Close().ok());
  }
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pages"), false).ok());
  EXPECT_EQ(file.num_pages(), 2u);
}

TEST_F(StorageTest, PageFileCountsIo) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pages"), true).ok());
  PageId id;
  ASSERT_TRUE(file.AllocatePage(&id).ok());
  char buf[kPageSize] = {0};
  ASSERT_TRUE(file.WritePage(id, buf).ok());
  ASSERT_TRUE(file.ReadPage(id, buf).ok());
  ASSERT_TRUE(file.ReadPage(id, buf).ok());
  EXPECT_EQ(file.reads(), 2u);
  EXPECT_EQ(file.writes(), 1u);  // allocation is metadata-only, no write
}

// --- BufferPool -------------------------------------------------------------

TEST_F(StorageTest, BufferPoolCachesPages) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pool"), true).ok());
  BufferPool pool(&file, 8);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  PageId id = page->page_id();
  page->data()[0] = 'z';
  page->MarkDirty();
  page->Release();

  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[0], 'z');
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST_F(StorageTest, BufferPoolEvictsLruAndWritesBack) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pool"), true).ok());
  BufferPool pool(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 20; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<char>('a' + i);
    page->MarkDirty();
    ids.push_back(page->page_id());
  }
  EXPECT_GT(pool.evictions(), 0u);
  // Every page's content must survive eviction.
  for (int i = 0; i < 20; ++i) {
    auto page = pool.Fetch(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], static_cast<char>('a' + i)) << i;
  }
}

TEST_F(StorageTest, BufferPoolPinnedPagesNotEvicted) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pool"), true).ok());
  BufferPool pool(&file, 8);
  // Hold pins on 8 pages: the pool is saturated.
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 8; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    pinned.push_back(std::move(page).value());
  }
  // A ninth request must fail (every frame pinned).
  auto overflow = pool.New();
  EXPECT_FALSE(overflow.ok());
  // Releasing one pin unblocks allocation.
  pinned.pop_back();
  auto retry = pool.New();
  EXPECT_TRUE(retry.ok());
}

TEST_F(StorageTest, BufferPoolFlushAllPersists) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path("pool"), true).ok());
  PageId id;
  {
    BufferPool pool(&file, 8);
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
    std::memcpy(page->data(), "persisted", 9);
    page->MarkDirty();
    page->Release();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  char buf[kPageSize];
  ASSERT_TRUE(file.ReadPage(id, buf).ok());
  EXPECT_EQ(std::memcmp(buf, "persisted", 9), 0);
}

// --- RecordStore ------------------------------------------------------------

TEST_F(StorageTest, RecordStoreAppendRead) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Path("records"), true).ok());
  auto id1 = store.Append("hello");
  auto id2 = store.Append("world!");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  auto r1 = store.Read(*id1);
  auto r2 = store.Read(*id2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, "hello");
  EXPECT_EQ(*r2, "world!");
  EXPECT_EQ(store.num_records(), 2u);
  EXPECT_EQ(store.reads(), 2u);
}

TEST_F(StorageTest, RecordStoreEmptyPayload) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Path("records"), true).ok());
  auto id = store.Append("");
  ASSERT_TRUE(id.ok());
  auto r = store.Read(*id);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "");
}

TEST_F(StorageTest, RecordStoreBadOffsetDetected) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Path("records"), true).ok());
  ASSERT_TRUE(store.Append("data").ok());
  // Offset 2 lands mid-record: magic check must fail.
  EXPECT_FALSE(store.Read(RecordId{2}).ok());
}

}  // namespace
}  // namespace fix
