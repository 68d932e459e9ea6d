// B+-tree tests: basics, splits across multiple levels, refused repeated
// keys, range scans, persistence, and a randomized model test of inserts
// and refused re-inserts against std::set. Every write goes through a COW
// batch (or BulkLoad), the tree's only write paths.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "storage/btree.h"

namespace fix {
namespace {

constexpr uint32_t kKey = 8;
constexpr uint32_t kVal = 8;

std::string K(uint64_t v) {
  std::string out(kKey, '\0');
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (56 - 8 * i));
  return out;
}

std::string V(uint64_t v) { return K(v); }

/// The value stored under exactly `key` in the published generation, or
/// NotFound: a Seek plus an equality check.
Result<std::string> Lookup(BTree* tree, std::string_view key) {
  BTree::Iterator it;
  FIX_ASSIGN_OR_RETURN(it, tree->Seek(key));
  if (it.Valid() && it.key() == key) return std::string(it.value());
  return Status::NotFound("key not in B+-tree");
}

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_btree_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    ASSERT_TRUE(file_.Open(dir_ + "/tree", true).ok());
    pool_ = std::make_unique<BufferPool>(&file_, 64);
    auto tree = BTree::Create(pool_.get(), kKey, kVal);
    ASSERT_TRUE(tree.ok()) << tree.status();
    tree_ = std::make_unique<BTree>(std::move(tree).value());
  }
  void TearDown() override {
    tree_.reset();
    pool_.reset();
    (void)file_.Close();
    std::filesystem::remove_all(dir_);
  }

  /// Publishes the open COW batch (PrepareCommit + FinalizeCommit).
  void Commit() {
    auto commit = tree_->PrepareCommit();
    ASSERT_TRUE(commit.ok()) << commit.status();
    tree_->FinalizeCommit();
  }

  /// Inserts `entries`, in order, as one committed COW batch.
  void InsertBatch(
      const std::vector<std::pair<std::string, std::string>>& entries) {
    ASSERT_TRUE(tree_->BeginBatch().ok());
    for (const auto& [key, value] : entries) {
      ASSERT_TRUE(tree_->Insert(key, value).ok());
    }
    Commit();
  }

  Result<std::string> Lookup(std::string_view key) {
    return fix::Lookup(tree_.get(), key);
  }

  std::string dir_;
  PageFile file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree_->num_entries(), 0u);
  EXPECT_FALSE(Lookup(K(1)).ok());
  auto it = tree_->SeekFirst();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, InsertAndGet) {
  InsertBatch({{K(5), V(50)}, {K(3), V(30)}, {K(9), V(90)}});
  EXPECT_EQ(tree_->num_entries(), 3u);
  auto got = Lookup(K(3));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, V(30));
  EXPECT_FALSE(Lookup(K(4)).ok());
}

TEST_F(BTreeTest, SizeMismatchRejected) {
  EXPECT_FALSE(tree_->Insert("short", V(1)).ok());
  EXPECT_FALSE(tree_->Insert(K(1), "bad").ok());
  EXPECT_TRUE(tree_->Seek("x").status().IsInvalidArgument());
  // Well-sized writes outside a COW batch are refused too: the batch is
  // the only write path.
  EXPECT_TRUE(tree_->Insert(K(1), V(1)).IsInvalidArgument());
  EXPECT_EQ(tree_->num_entries(), 0u);
}

TEST_F(BTreeTest, OrderedIterationAfterManySplits) {
  const int n = 20000;  // forces multi-level splits with 8+8 byte entries
  Rng rng(11);
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    uint64_t k = rng.Next();
    entries.emplace_back(K(k), V(k ^ 0xff));
  }
  InsertBatch(entries);
  EXPECT_EQ(tree_->num_entries(), static_cast<uint64_t>(n));
  EXPECT_GT(tree_->height(), 1u);

  auto it = tree_->SeekFirst();
  ASSERT_TRUE(it.ok());
  std::string prev;
  int count = 0;
  while (it->Valid()) {
    std::string key(it->key());
    if (count > 0) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    ++count;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(count, n);
}

TEST_F(BTreeTest, SequentialInsertAscendingAndDescending) {
  std::vector<std::pair<std::string, std::string>> ascending, descending;
  for (int i = 0; i < 3000; ++i) ascending.emplace_back(K(i), V(i));
  for (int i = 9999; i >= 7000; --i) descending.emplace_back(K(i), V(i));
  InsertBatch(ascending);
  InsertBatch(descending);
  for (int i = 0; i < 3000; i += 97) {
    auto got = Lookup(K(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, V(i));
  }
  for (int i = 7000; i < 10000; i += 83) {
    ASSERT_TRUE(Lookup(K(i)).ok()) << i;
  }
}

TEST_F(BTreeTest, DuplicateKeyInsertRejected) {
  InsertBatch({{K(7), V(70)}, {K(42), V(420)}, {K(100), V(1000)}});
  const uint64_t gen = tree_->generation();

  // A key of the published tree, and one inserted earlier in the same
  // batch, are both refused; the batch keeps what it had and commits.
  ASSERT_TRUE(tree_->BeginBatch().ok());
  EXPECT_TRUE(tree_->Insert(K(42), V(1)).IsInvalidArgument());
  ASSERT_TRUE(tree_->Insert(K(50), V(500)).ok());
  EXPECT_TRUE(tree_->Insert(K(50), V(2)).IsInvalidArgument());
  Commit();
  EXPECT_EQ(tree_->generation(), gen + 1);
  EXPECT_EQ(tree_->num_entries(), 4u);
  EXPECT_EQ(*Lookup(K(42)), V(420));
  EXPECT_EQ(*Lookup(K(50)), V(500));
  ASSERT_TRUE(tree_->VerifyStructure().ok());

  // A batch whose only insert is refused aborts back to the published
  // tree.
  ASSERT_TRUE(tree_->BeginBatch().ok());
  EXPECT_TRUE(tree_->Insert(K(7), V(0)).IsInvalidArgument());
  tree_->AbortBatch();
  EXPECT_EQ(tree_->generation(), gen + 1);
  EXPECT_EQ(tree_->num_entries(), 4u);
  EXPECT_EQ(*Lookup(K(7)), V(70));
}

TEST_F(BTreeTest, SeekSemantics) {
  InsertBatch({{K(10), V(10)}, {K(20), V(20)}, {K(30), V(30)}});
  auto it = tree_->Seek(K(15));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), K(20));  // first key >= 15
  auto it2 = tree_->Seek(K(20));
  ASSERT_TRUE(it2.ok());
  EXPECT_EQ(it2->key(), K(20));  // exact
  auto it3 = tree_->Seek(K(31));
  ASSERT_TRUE(it3.ok());
  EXPECT_FALSE(it3->Valid());  // past the end
}

TEST_F(BTreeTest, PersistAndReopen) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 5000; ++i) entries.emplace_back(K(i * 3), V(i));
  InsertBatch(entries);
  ASSERT_TRUE(tree_->Flush().ok());
  tree_.reset();
  pool_.reset();
  ASSERT_TRUE(file_.Close().ok());

  PageFile file2;
  ASSERT_TRUE(file2.Open(dir_ + "/tree", false).ok());
  BufferPool pool2(&file2, 64);
  auto reopened = BTree::Open(&pool2);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->num_entries(), 5000u);
  for (int i = 0; i < 5000; i += 191) {
    auto got = fix::Lookup(&*reopened, K(i * 3));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, V(i));
  }
}

TEST_F(BTreeTest, OpenRejectsGarbageFile) {
  PageFile garbage;
  ASSERT_TRUE(garbage.Open(dir_ + "/garbage", true).ok());
  PageId id;
  ASSERT_TRUE(garbage.AllocatePage(&id).ok());
  BufferPool pool(&garbage, 16);
  EXPECT_FALSE(BTree::Open(&pool).ok());
}

// Randomized model test: the tree must agree with a std::set of its keys
// under inserts, refused re-inserts and lookups, committed 100 operations
// per COW batch. Lookups read the published generation, so they are
// checked right after their batch commits.
TEST_F(BTreeTest, ModelConformance) {
  Rng rng(77);
  std::set<std::string> model;
  constexpr int kOps = 30000;
  constexpr int kOpsPerBatch = 100;
  uint64_t refused = 0;
  for (int op = 0; op < kOps;) {
    ASSERT_TRUE(tree_->BeginBatch().ok());
    std::vector<uint64_t> lookups;
    for (int end = op + kOpsPerBatch; op < end; ++op) {
      // ~12,000 distinct keys reach the tree; a third of the inserts
      // repeat one.
      uint64_t k = rng.Uniform(20000);
      if (rng.Uniform(10) < 6) {
        Status inserted = tree_->Insert(K(k), V(k * 3));
        if (model.insert(K(k)).second) {
          ASSERT_TRUE(inserted.ok()) << inserted;
        } else {
          ASSERT_TRUE(inserted.IsInvalidArgument()) << inserted;
          ++refused;
        }
      } else {
        lookups.push_back(k);
      }
    }
    Commit();
    for (uint64_t k : lookups) {
      auto got = Lookup(K(k));
      ASSERT_EQ(got.ok(), model.count(K(k)) > 0) << k;
      if (got.ok()) {
        EXPECT_EQ(*got, V(k * 3));
      }
    }
  }
  EXPECT_GT(refused, 1000u);
  EXPECT_GE(tree_->height(), 2u);
  EXPECT_EQ(tree_->num_entries(), model.size());
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  // Full-scan equivalence.
  auto it = tree_->SeekFirst();
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  while (it->Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->key(), *mit);
    ++mit;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(mit, model.end());
}

// --- BulkLoad ---------------------------------------------------------------

/// Entries with capacity math available: with kKey = kVal = 8 a leaf holds
/// (kPageSize - 8) / 16 entries.
size_t LeafCap() { return (kPageSize - 8) / (kKey + kVal); }

std::vector<std::pair<std::string, std::string>> MakeEntries(size_t n) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back(K(i), V(i * 3 + 1));
  return out;
}

class BTreeBulkLoadTest : public BTreeTest {
 protected:
  /// Bulk-loads `entries` into the fixture tree and cross-checks it against
  /// a second tree filled by one COW batch: same count, same full scan,
  /// same point lookups, and both pass the structural audit.
  void LoadAndCompare(
      const std::vector<std::pair<std::string, std::string>>& entries) {
    ASSERT_TRUE(tree_->BulkLoad(entries).ok());
    ASSERT_TRUE(tree_->VerifyStructure().ok());
    EXPECT_EQ(tree_->num_entries(), entries.size());

    PageFile ref_file;
    ASSERT_TRUE(ref_file.Open(dir_ + "/ref", true).ok());
    {
      BufferPool ref_pool(&ref_file, 64);
      auto ref = BTree::Create(&ref_pool, kKey, kVal);
      ASSERT_TRUE(ref.ok());
      ASSERT_TRUE(ref->BeginBatch().ok());
      for (const auto& [k, v] : entries) {
        ASSERT_TRUE(ref->Insert(k, v).ok());
      }
      ASSERT_TRUE(ref->PrepareCommit().ok());
      ref->FinalizeCommit();
      ASSERT_TRUE(ref->VerifyStructure().ok());

      auto it = tree_->SeekFirst();
      auto rit = ref->SeekFirst();
      ASSERT_TRUE(it.ok());
      ASSERT_TRUE(rit.ok());
      while (rit->Valid()) {
        ASSERT_TRUE(it->Valid());
        EXPECT_EQ(it->key(), rit->key());
        EXPECT_EQ(it->value(), rit->value());
        ASSERT_TRUE(it->Next().ok());
        ASSERT_TRUE(rit->Next().ok());
      }
      EXPECT_FALSE(it->Valid());

      for (size_t i = 0; i < entries.size(); i += 7) {
        auto got = Lookup(entries[i].first);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, entries[i].second);
      }
    }
    ASSERT_TRUE(ref_file.Close().ok());
  }
};

TEST_F(BTreeBulkLoadTest, Empty) {
  ASSERT_TRUE(tree_->BulkLoad({}).ok());
  EXPECT_EQ(tree_->num_entries(), 0u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  // The tree stays usable for COW-batch inserts afterwards.
  InsertBatch({{K(1), V(1)}});
  EXPECT_TRUE(Lookup(K(1)).ok());
}

TEST_F(BTreeBulkLoadTest, SingleEntry) { LoadAndCompare(MakeEntries(1)); }

TEST_F(BTreeBulkLoadTest, ExactlyOneLeaf) {
  LoadAndCompare(MakeEntries(LeafCap()));
}

TEST_F(BTreeBulkLoadTest, OneLeafPlusOne) {
  LoadAndCompare(MakeEntries(LeafCap() + 1));
}

TEST_F(BTreeBulkLoadTest, MultiLevel) {
  // One entry more than a packed height-2 tree holds (341 children of
  // (kPageSize - 8) / 12 separators + 1), so full scans must climb two
  // levels to cross from one inner node's leaves to the next.
  LoadAndCompare(MakeEntries(LeafCap() * 341 + 1));
  EXPECT_EQ(tree_->height(), 3u);
}

TEST_F(BTreeBulkLoadTest, RejectsRepeatedKey) {
  std::vector<std::pair<std::string, std::string>> entries = {
      {K(0), V(0)}, {K(1), V(1)}, {K(1), V(2)}, {K(2), V(3)}};
  EXPECT_TRUE(tree_->BulkLoad(entries).IsInvalidArgument());
  // The input is checked before any page is written.
  EXPECT_EQ(tree_->num_entries(), 0u);
  LoadAndCompare(MakeEntries(3));
}

// Separator i is the first key of child i+1. A key equal to it must
// descend right, to the leaf that holds it, for Insert to see it there:
// descending left (lower bound) lands past the end of the left leaf, where
// the key is absent, and would store it twice.
TEST_F(BTreeBulkLoadTest, SeparatorKeyInsertRejected) {
  constexpr size_t kLeaves = 16;
  ASSERT_TRUE(tree_->BulkLoad(MakeEntries(kLeaves * LeafCap())).ok());
  ASSERT_EQ(tree_->height(), 2u);
  ASSERT_TRUE(tree_->BeginBatch().ok());
  for (size_t leaf = 1; leaf < kLeaves; ++leaf) {
    const size_t first = leaf * LeafCap();
    EXPECT_TRUE(tree_->Insert(K(first), V(0)).IsInvalidArgument()) << leaf;
    // The last key of the left leaf is refused too.
    EXPECT_TRUE(tree_->Insert(K(first - 1), V(0)).IsInvalidArgument())
        << leaf;
  }
  Commit();
  EXPECT_EQ(tree_->num_entries(), kLeaves * LeafCap());
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  auto got = Lookup(K(LeafCap()));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, V(LeafCap() * 3 + 1));
}

TEST_F(BTreeBulkLoadTest, RejectsUnsortedInput) {
  std::vector<std::pair<std::string, std::string>> entries = {{K(2), V(2)},
                                                              {K(1), V(1)}};
  EXPECT_FALSE(tree_->BulkLoad(entries).ok());
}

TEST_F(BTreeBulkLoadTest, RejectsWrongSizes) {
  EXPECT_FALSE(tree_->BulkLoad({{"short", V(1)}}).ok());
  EXPECT_FALSE(tree_->BulkLoad({{K(1), "tiny"}}).ok());
}

TEST_F(BTreeBulkLoadTest, RejectsNonEmptyTree) {
  InsertBatch({{K(1), V(1)}});
  EXPECT_FALSE(tree_->BulkLoad(MakeEntries(3)).ok());
}

TEST_F(BTreeBulkLoadTest, PersistsAcrossReopen) {
  auto entries = MakeEntries(5000);
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  tree_.reset();
  pool_.reset();
  ASSERT_TRUE(file_.Close().ok());

  ASSERT_TRUE(file_.Open(dir_ + "/tree", false).ok());
  pool_ = std::make_unique<BufferPool>(&file_, 64);
  auto reopened = BTree::Open(pool_.get());
  ASSERT_TRUE(reopened.ok());
  tree_ = std::make_unique<BTree>(std::move(reopened).value());
  EXPECT_EQ(tree_->num_entries(), entries.size());
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  auto got = Lookup(K(4321));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, V(4321 * 3 + 1));
}

// --- COW batches / generations ----------------------------------------------

class BTreeBatchTest : public BTreeTest {
 protected:
  /// Commits keys [lo, hi) as one COW batch and returns the commit record.
  WalCommit CommitRange(uint64_t lo, uint64_t hi) {
    EXPECT_TRUE(tree_->BeginBatch().ok());
    for (uint64_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(tree_->Insert(K(i), V(i)).ok());
    }
    auto commit = tree_->PrepareCommit();
    EXPECT_TRUE(commit.ok()) << commit.status();
    tree_->FinalizeCommit();
    return *commit;
  }
};

// Publication is FinalizeCommit alone: neither the COW inserts nor the
// durable flush in PrepareCommit may leak into what readers see.
TEST_F(BTreeBatchTest, CommitPublishesAtFinalizeNotBefore) {
  const WalCommit first = CommitRange(0, 100);
  EXPECT_EQ(tree_->num_entries(), 100u);
  const uint64_t gen1 = tree_->generation();
  EXPECT_EQ(first.generation, gen1);

  ASSERT_TRUE(tree_->BeginBatch().ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(tree_->Insert(K(i), V(i)).ok());
  }
  EXPECT_EQ(tree_->num_entries(), 100u);
  EXPECT_EQ(tree_->generation(), gen1);
  auto commit = tree_->PrepareCommit();
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(tree_->num_entries(), 100u);  // flushed, still unpublished
  EXPECT_EQ(tree_->generation(), gen1);
  EXPECT_EQ(commit->generation, gen1 + 1);
  EXPECT_EQ(commit->num_entries, 200u);

  tree_->FinalizeCommit();
  EXPECT_EQ(tree_->num_entries(), 200u);
  EXPECT_EQ(tree_->generation(), gen1 + 1);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  for (int i = 0; i < 200; i += 13) {
    EXPECT_TRUE(Lookup(K(i)).ok()) << i;
  }
}

// AbortBatch (default: the commit record provably never reached the log)
// restores the published generation exactly and recycles the batch's fresh
// pages, so an aborted batch costs no file growth when retried.
TEST_F(BTreeBatchTest, AbortRestoresPublishedStateAndRecyclesPages) {
  CommitRange(0, 100);
  const uint64_t gen1 = tree_->generation();

  // Abort before PrepareCommit: nothing was ever flushed.
  ASSERT_TRUE(tree_->BeginBatch().ok());
  ASSERT_TRUE(tree_->Insert(K(500), V(500)).ok());
  tree_->AbortBatch();
  EXPECT_EQ(tree_->generation(), gen1);
  EXPECT_EQ(tree_->num_entries(), 100u);
  EXPECT_FALSE(Lookup(K(500)).ok());

  // Abort after PrepareCommit: pages hit the disk, then the (hypothetical)
  // WAL append failed cleanly — state must roll back all the same.
  ASSERT_TRUE(tree_->BeginBatch().ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(tree_->Insert(K(i), V(i)).ok());
  }
  auto staged = tree_->PrepareCommit();
  ASSERT_TRUE(staged.ok()) << staged.status();
  tree_->AbortBatch();
  EXPECT_EQ(tree_->generation(), gen1);
  EXPECT_EQ(tree_->num_entries(), 100u);
  EXPECT_FALSE(Lookup(K(150)).ok());
  ASSERT_TRUE(tree_->VerifyStructure().ok());

  // Retrying the same batch reuses the aborted batch's recycled pages
  // instead of growing the file.
  const PageId before = file_.num_pages();
  CommitRange(100, 200);
  EXPECT_LE(file_.num_pages(), before + 2);
  EXPECT_EQ(tree_->num_entries(), 200u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
}

// The ambiguous-commit abort: PrepareCommit flushed, the WAL append FAILED
// but its record may still be durable (e.g. the write landed and only the
// fsync errored). AbortBatch(blank_pages=false) must leave the prepared
// generation's pages intact and unrecycled so a replay that finds the
// commit record can adopt it — this is the exact scenario behind the
// fail-stop latch in FixIndex::CommitBatch.
TEST_F(BTreeBatchTest, AbortPreservingPagesKeepsPreparedGenerationAdoptable) {
  CommitRange(0, 100);
  const uint64_t gen1 = tree_->generation();

  ASSERT_TRUE(tree_->BeginBatch().ok());
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(tree_->Insert(K(i), V(i)).ok());
  }
  auto commit = tree_->PrepareCommit();
  ASSERT_TRUE(commit.ok()) << commit.status();
  tree_->AbortBatch(/*blank_pages=*/false);

  // The tree itself serves generation N, as if the batch never happened.
  EXPECT_EQ(tree_->generation(), gen1);
  EXPECT_EQ(tree_->num_entries(), 100u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());

  // Replay's view: the commit record surfaced from the log after all, and
  // the pages it references must still be exactly what PrepareCommit wrote.
  ASSERT_TRUE(tree_->AdoptCommit(*commit).ok());
  EXPECT_EQ(tree_->generation(), commit->generation);
  EXPECT_EQ(tree_->num_entries(), 200u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  for (int i = 0; i < 200; i += 7) {
    auto got = Lookup(K(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, V(i));
  }
}

TEST_F(BTreeBatchTest, AdoptCommitRejectsOutOfRangeRecords) {
  CommitRange(0, 10);
  WalCommit bogus;
  bogus.generation = 99;
  bogus.root = file_.num_pages() + 100;  // beyond the file
  bogus.height = 1;
  bogus.num_entries = 10;
  EXPECT_FALSE(tree_->AdoptCommit(bogus).ok());
  bogus.root = 0;  // the meta page can never be a root
  EXPECT_FALSE(tree_->AdoptCommit(bogus).ok());
}

// Generation numbering survives Checkpoint + reopen: the meta page carries
// it, so a recovered tree keeps counting where the crashed one stopped
// (WAL records compare against it to decide roll-forward vs. no-op).
TEST_F(BTreeBatchTest, GenerationPersistsAcrossCheckpointAndReopen) {
  CommitRange(0, 100);
  CommitRange(100, 200);
  const uint64_t gen = tree_->generation();
  EXPECT_GE(gen, 2u);
  ASSERT_TRUE(tree_->Checkpoint().ok());
  tree_.reset();
  pool_.reset();
  ASSERT_TRUE(file_.Close().ok());

  ASSERT_TRUE(file_.Open(dir_ + "/tree", false).ok());
  pool_ = std::make_unique<BufferPool>(&file_, 64);
  auto reopened = BTree::Open(pool_.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  tree_ = std::make_unique<BTree>(std::move(reopened).value());
  EXPECT_EQ(tree_->generation(), gen);
  EXPECT_EQ(tree_->num_entries(), 200u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
}

// A one-entry commit copies its root-to-leaf path and nothing else: every
// subtree off the path — in particular every leaf left of the touched one —
// stays shared with the published generation. Here the last of 16 packed
// leaves splits, so the file may grow by the leaf copy, its split sibling
// and the root copy.
TEST_F(BTreeBatchTest, OneEntryCommitCopiesOnlyItsPath) {
  const size_t n = 16 * LeafCap();
  ASSERT_TRUE(tree_->BulkLoad(MakeEntries(n)).ok());
  ASSERT_EQ(tree_->height(), 2u);
  const PageId before = file_.num_pages();

  ASSERT_TRUE(tree_->BeginBatch().ok());
  ASSERT_TRUE(tree_->Insert(K(n), V(n)).ok());  // sorts after every key
  ASSERT_TRUE(tree_->PrepareCommit().ok());
  EXPECT_LE(file_.num_pages(), before + tree_->height() + 1);
  tree_->FinalizeCommit();

  EXPECT_EQ(tree_->num_entries(), n + 1);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  auto got = Lookup(K(n));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, V(n));
}

// Superseded pages are recycled once their generation is durable and
// unpinned: a long run of tiny commits must not grow the file linearly in
// the number of commits.
TEST_F(BTreeBatchTest, RetiredPagesAreRecycledAcrossCommits) {
  CommitRange(0, 100);
  const PageId before = file_.num_pages();
  constexpr int kCommits = 60;
  for (int i = 0; i < kCommits; ++i) {
    CommitRange(100 + i, 101 + i);  // one entry per commit
  }
  EXPECT_EQ(tree_->num_entries(), uint64_t{100 + kCommits});
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  // 160 8+8-byte entries fit in a page or two; without recycling each
  // commit would leak its COW'd path (≥ height pages per commit).
  EXPECT_LT(file_.num_pages(), before + kCommits / 2);
}

// --- empty values ------------------------------------------------------------
//
// Unclustered FIX indexes store 28-byte keys and no value at all. The tree
// must treat value_size 0 as a first-class geometry on every path: COW
// batches, cross-leaf seeks and iteration, bulk load, structural audit, and
// recovery from a WAL-carried commit.

constexpr uint32_t kWideKey = 28;

// A 28-byte memcmp-ordered key: `v` big-endian in the last 8 bytes.
std::string WideKey(uint64_t v) {
  std::string out(kWideKey, '\x5a');
  for (int i = 0; i < 8; ++i) {
    out[kWideKey - 8 + i] = static_cast<char>(v >> (56 - 8 * i));
  }
  return out;
}

class BTreeEmptyValueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_btree_empty_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    ASSERT_TRUE(file_.Open(dir_ + "/tree", true).ok());
    pool_ = std::make_unique<BufferPool>(&file_, 64);
    auto tree = BTree::Create(pool_.get(), kWideKey, /*value_size=*/0);
    ASSERT_TRUE(tree.ok()) << tree.status();
    tree_ = std::make_unique<BTree>(std::move(tree).value());
  }
  void TearDown() override {
    tree_.reset();
    pool_.reset();
    (void)file_.Close();
    std::filesystem::remove_all(dir_);
  }

  /// Keys in tree order, checking every value is empty on the way.
  std::vector<std::string> ScanKeys() {
    std::vector<std::string> keys;
    auto it = tree_->SeekFirst();
    EXPECT_TRUE(it.ok());
    if (!it.ok()) return keys;
    while (it->Valid()) {
      EXPECT_TRUE(it->value().empty());
      keys.emplace_back(it->key());
      EXPECT_TRUE(it->Next().ok());
    }
    return keys;
  }

  std::string dir_;
  PageFile file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeEmptyValueTest, CowBatchInsert) {
  constexpr uint64_t kN = 3000;  // ~20 leaves of 146 entries
  ASSERT_TRUE(tree_->BeginBatch().ok());
  for (uint64_t i = 0; i < kN; ++i) {
    // Interleaved order, so inserts land all over the tree. A default
    // string_view (null data) is an empty value too.
    ASSERT_TRUE(tree_->Insert(WideKey((i * 7919) % kN), std::string_view())
                    .ok());
  }
  ASSERT_TRUE(tree_->PrepareCommit().ok());
  tree_->FinalizeCommit();
  EXPECT_EQ(tree_->num_entries(), kN);
  EXPECT_GE(tree_->height(), 2u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());

  std::vector<std::string> want;
  for (uint64_t i = 0; i < kN; ++i) want.push_back(WideKey(i));
  EXPECT_EQ(ScanKeys(), want);
  auto got = Lookup(tree_.get(), WideKey(4));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->empty());
  EXPECT_TRUE(Lookup(tree_.get(), WideKey(kN)).status().IsNotFound());
  // A non-empty value is a size mismatch, and a present key is refused
  // with an empty value as with any other.
  ASSERT_TRUE(tree_->BeginBatch().ok());
  EXPECT_TRUE(tree_->Insert(WideKey(kN), "x").IsInvalidArgument());
  EXPECT_TRUE(tree_->Insert(WideKey(4), std::string_view())
                  .IsInvalidArgument());
  tree_->AbortBatch();
  EXPECT_EQ(tree_->num_entries(), kN);
}

TEST_F(BTreeEmptyValueTest, SeekAndIterateAcrossLeaves) {
  constexpr uint64_t kN = 2000;
  std::vector<std::pair<std::string, std::string>> entries;
  for (uint64_t i = 0; i < kN; ++i) entries.emplace_back(WideKey(2 * i), "");
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  for (uint64_t probe : {0ull, 1ull, 291ull, 292ull, 1999ull, 3998ull}) {
    SCOPED_TRACE(probe);
    auto it = tree_->Seek(WideKey(probe));
    ASSERT_TRUE(it.ok());
    uint64_t next = (probe + 1) / 2;  // first even key >= probe, halved
    while (it->Valid()) {
      EXPECT_EQ(std::string(it->key()), WideKey(2 * next));
      EXPECT_TRUE(it->value().empty());
      ++next;
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_EQ(next, kN);
  }
  auto past = tree_->Seek(WideKey(2 * kN));
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->Valid());
}

TEST_F(BTreeEmptyValueTest, BulkLoadAndVerifyStructure) {
  constexpr uint64_t kN = 25000;  // three levels of packed 28-byte keys
  std::vector<std::pair<std::string, std::string>> entries;
  std::vector<std::string> want;
  for (uint64_t i = 0; i < kN; ++i) {
    entries.emplace_back(WideKey(i), "");
    want.push_back(WideKey(i));
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_EQ(tree_->num_entries(), kN);
  EXPECT_EQ(tree_->height(), 3u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  EXPECT_EQ(ScanKeys(), want);
  // A packed leaf holds (page - 8) / 28 entries: value bytes cost nothing.
  const uint64_t leaves = (kN + (kPageSize - 8) / kWideKey - 1) /
                          ((kPageSize - 8) / kWideKey);
  EXPECT_LT(file_.num_pages(), leaves + leaves / 10 + 3);
  // A value of the wrong size is rejected up front.
  std::vector<std::pair<std::string, std::string>> bad = {{WideKey(0), "v"}};
  auto fresh_file = std::make_unique<PageFile>();
  ASSERT_TRUE(fresh_file->Open(dir_ + "/bad", true).ok());
  BufferPool bad_pool(fresh_file.get(), 8);
  auto bad_tree = BTree::Create(&bad_pool, kWideKey, 0);
  ASSERT_TRUE(bad_tree.ok());
  EXPECT_TRUE(bad_tree->BulkLoad(bad).IsInvalidArgument());
}

TEST_F(BTreeEmptyValueTest, ReopenRecoveredFromWalCommit) {
  auto wal = Wal::Create(dir_ + "/tree.wal", kWideKey, 0, nullptr);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(tree_->BeginBatch().ok());
  for (uint64_t i = 0; i < 800; ++i) {
    ASSERT_TRUE(tree_->Insert(WideKey(i), "").ok());
  }
  auto commit = tree_->PrepareCommit();
  ASSERT_TRUE(commit.ok()) << commit.status();
  commit->indexed_docs = 7;
  ASSERT_TRUE(wal->AppendCommit(*commit).ok());
  tree_->FinalizeCommit();
  // Crash before the checkpoint: the meta page still names the empty tree.
  tree_.reset();
  pool_.reset();
  ASSERT_TRUE(file_.Close().ok());
  ASSERT_TRUE(wal->Close().ok());

  auto reopened_wal = Wal::Open(dir_ + "/tree.wal", kWideKey, 0, nullptr);
  ASSERT_TRUE(reopened_wal.ok()) << reopened_wal.status();
  const WalScanResult& ws = reopened_wal->state();
  ASSERT_TRUE(ws.has_commit);
  EXPECT_EQ(ws.key_size, kWideKey);
  EXPECT_EQ(ws.value_size, 0u);
  EXPECT_EQ(ws.last_commit.indexed_docs, 7u);
  ASSERT_TRUE(file_.Open(dir_ + "/tree", false).ok());
  pool_ = std::make_unique<BufferPool>(&file_, 64);
  auto recovered =
      BTree::OpenRecovered(pool_.get(), ws.key_size, ws.value_size,
                           ws.last_commit);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  tree_ = std::make_unique<BTree>(std::move(recovered).value());
  EXPECT_EQ(tree_->value_size(), 0u);
  EXPECT_EQ(tree_->num_entries(), 800u);
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  std::vector<std::string> want;
  for (uint64_t i = 0; i < 800; ++i) want.push_back(WideKey(i));
  EXPECT_EQ(ScanKeys(), want);
}

}  // namespace
}  // namespace fix
