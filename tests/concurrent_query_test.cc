// Concurrent read-path tests: many threads querying one Database against
// single-threaded baselines, ShardedDatabase::ExecuteMany (one scatter
// thread per shard) against Database::Query on all four generated
// datasets, sharded BufferPool fetches, and the PlanCache. These carry the
// `concurrency` ctest label so CI runs them in both the Release and TSan
// trees (tools/ci.sh).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/sharded_database.h"
#include "datagen/datasets.h"
#include "query/plan_cache.h"
#include "query/xpath_parser.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace fix {
namespace {

class ConcurrentQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_conc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

void GenerateSmallXMark(Corpus* corpus) {
  XMarkOptions o;
  o.num_items = 80;
  o.num_people = 90;
  o.num_open_auctions = 90;
  o.num_closed_auctions = 80;
  o.num_categories = 40;
  GenerateXMark(corpus, o);
}

// Eight threads replay a mixed workload — covered lookups through the
// unclustered and clustered indexes plus an uncovered query that falls back
// to the full scan — and every execution must reproduce the single-threaded
// baseline exactly (same NodeRefs in the same order).
TEST_F(ConcurrentQueryTest, StressMixedWorkloadMatchesBaseline) {
  Database db(dir_);
  GenerateSmallXMark(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());

  IndexOptions unclustered;
  unclustered.depth_limit = 6;
  IndexOptions clustered = unclustered;
  clustered.clustered = true;
  IndexOptions shallow;
  shallow.depth_limit = 2;  // anything deeper is uncovered -> full scan
  ASSERT_TRUE(db.BuildIndex("u", unclustered, nullptr).ok());
  ASSERT_TRUE(db.BuildIndex("c", clustered, nullptr).ok());
  ASSERT_TRUE(db.BuildIndex("shallow", shallow, nullptr).ok());

  const std::vector<std::pair<std::string, std::string>> workload = {
      {"u", "//item/mailbox/mail"},
      {"u", "//closed_auction/annotation/description"},
      {"u", "//open_auction[seller]/annotation/description/text"},
      {"c", "//person/name"},
      {"c", "//item[name]/description"},
      {"shallow", "//item/mailbox/mail/text/emph"},
  };

  std::vector<std::vector<NodeRef>> baseline(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto stats = db.Query(workload[i].first, workload[i].second,
                          &baseline[i]);
    ASSERT_TRUE(stats.ok()) << workload[i].second << ": " << stats.status();
    if (workload[i].first == "shallow") {
      EXPECT_FALSE(stats->covered);
      EXPECT_FALSE(stats->used_index);
    }
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger starting offsets so threads hit different queries at once.
      for (int it = 0; it < kIterations; ++it) {
        for (size_t i = 0; i < workload.size(); ++i) {
          size_t w = (i + t) % workload.size();
          std::vector<NodeRef> results;
          auto stats = db.Query(workload[w].first, workload[w].second,
                                &results);
          if (!stats.ok()) {
            failures.fetch_add(1);
          } else if (results != baseline[w]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(db.plan_cache_stats().hits, 0u);
}

struct DatasetCase {
  const char* name;
  void (*generate)(Corpus*);
  int depth_limit;
  std::vector<const char*> xpaths;
};

void GenSmallTcmd(Corpus* c) {
  TcmdOptions o;
  o.num_docs = 60;
  GenerateTcmd(c, o);
}
void GenSmallDblp(Corpus* c) {
  DblpOptions o;
  o.num_publications = 400;
  GenerateDblp(c, o);
}
void GenSmallTreebank(Corpus* c) {
  TreebankOptions o;
  o.num_sentences = 150;
  GenerateTreebank(c, o);
}

// A query fans out only across shards: ShardedDatabase::ExecuteMany at 1
// shard (legs inline) and at 4 (one scatter thread per shard) must answer
// every query of every dataset family exactly as Database::Query over the
// unsharded corpus does.
TEST_F(ConcurrentQueryTest, ShardedExecuteManyMatchesQueryAcrossDatasets) {
  const DatasetCase cases[] = {
      {"tcmd", GenSmallTcmd, 0,
       {"/article/prolog/authors/author/name", "//author/contact/email",
        "/article/body/section/p"}},
      {"dblp", GenSmallDblp, 6,
       {"//inproceedings/title", "//article[number]/author",
        "//dblp/inproceedings/author"}},
      {"xmark", GenerateSmallXMark, 6,
       {"//item/mailbox/mail", "//closed_auction/annotation/description",
        "//person/name"}},
      {"treebank", GenSmallTreebank, 6,
       {"//EMPTY/S/VP", "//EMPTY/S[VP]/NP", "//S/NP/PP"}},
  };

  for (const DatasetCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::string subdir = dir_ + "/" + c.name;
    std::filesystem::create_directories(subdir);
    Database db(subdir);
    c.generate(db.corpus());
    ASSERT_TRUE(db.Finalize().ok());
    IndexOptions options;
    options.depth_limit = c.depth_limit;
    ASSERT_TRUE(db.BuildIndex("main", options, nullptr).ok());

    std::vector<std::string> xpaths(c.xpaths.begin(), c.xpaths.end());
    std::vector<std::vector<NodeRef>> sequential(xpaths.size());
    for (size_t i = 0; i < xpaths.size(); ++i) {
      ASSERT_TRUE(db.Query("main", xpaths[i], &sequential[i]).ok());
    }

    for (uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(shards);
      ShardedOptions sopts;
      sopts.shard_count = shards;
      sopts.index = options;
      const std::string sdir = subdir + "/shards" + std::to_string(shards);
      std::filesystem::create_directories(sdir);
      auto sdb = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
      ASSERT_TRUE(sdb.ok()) << sdb.status();
      ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());
      auto batch = (*sdb)->ExecuteMany("main", xpaths);
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_EQ(batch->size(), xpaths.size());
      for (size_t i = 0; i < xpaths.size(); ++i) {
        SCOPED_TRACE(xpaths[i]);
        ASSERT_TRUE((*batch)[i].status.ok()) << (*batch)[i].status;
        EXPECT_EQ((*batch)[i].results, sequential[i]);
        EXPECT_EQ((*batch)[i].stats.result_count, sequential[i].size());
      }
    }
  }
}

// A parse failure in one batch entry must not fail its batchmates, on any
// shard's scatter leg; an unknown index name must fail the whole batch.
TEST_F(ConcurrentQueryTest, ExecuteManyIsolatesPerQueryErrors) {
  std::filesystem::create_directories(dir_ + "/src");
  Database db(dir_ + "/src");
  ASSERT_TRUE(db.AddXml("<a><b><c/></b></a>").ok());
  ASSERT_TRUE(db.AddXml("<a><b><c/><c/></b></a>").ok());
  ASSERT_TRUE(db.Finalize().ok());

  ShardedOptions sopts;
  sopts.shard_count = 2;
  const std::string sdir = dir_ + "/sharded";
  std::filesystem::create_directories(sdir);
  auto sdb = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
  ASSERT_TRUE(sdb.ok()) << sdb.status();
  ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());

  auto outcomes =
      (*sdb)->ExecuteMany("main", {"//a/b", "not an xpath", "//b/c"});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), 3u);
  EXPECT_TRUE((*outcomes)[0].status.ok());
  EXPECT_EQ((*outcomes)[0].results.size(), 2u);
  EXPECT_EQ((*outcomes)[1].status.code(), StatusCode::kParseError);
  EXPECT_TRUE((*outcomes)[2].status.ok());
  EXPECT_EQ((*outcomes)[2].results.size(), 3u);

  EXPECT_FALSE((*sdb)->ExecuteMany("nope", {"//a"}).ok());
}

// The uncovered-query fallback must keep the lookup-phase stats it paid for
// (lookup_ms, entries scanned) instead of reporting a free full scan.
TEST_F(ConcurrentQueryTest, FullScanFallbackKeepsLookupStats) {
  Database db(dir_);
  GenerateSmallXMark(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());
  IndexOptions shallow;
  shallow.depth_limit = 2;
  ASSERT_TRUE(db.BuildIndex("shallow", shallow, nullptr).ok());

  std::vector<NodeRef> results;
  auto stats = db.Query("shallow", "//item/mailbox/mail/text/emph", &results);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->covered);
  EXPECT_FALSE(stats->used_index);
  EXPECT_GT(stats->lookup_ms, 0.0);
  EXPECT_GT(stats->result_count, 0u);
}

// Many threads fetching a disjoint-then-overlapping page set through a
// multi-shard pool must always observe the bytes that were written, and the
// atomic counters must balance.
TEST_F(ConcurrentQueryTest, BufferPoolConcurrentFetchesSeeCorrectBytes) {
  PageFile file;
  ASSERT_TRUE(file.Open(dir_ + "/pool.pages", true).ok());
  BufferPool pool(&file, /*capacity=*/64);
  EXPECT_GT(pool.num_shards(), 1u);

  constexpr int kPages = 200;
  std::vector<PageId> ids;
  ids.reserve(kPages);
  for (int i = 0; i < kPages; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    std::memcpy(page->data(), &i, sizeof(i));
    page->MarkDirty();
    ids.push_back(page->page_id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  constexpr int kThreads = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (int i = t; i < kPages; i += 2) {  // overlapping slices
          auto page = pool.Fetch(ids[i]);
          if (!page.ok()) {
            bad.fetch_add(1);
            continue;
          }
          int got = -1;
          std::memcpy(&got, page->data(), sizeof(got));
          if (got != i) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);

  // The threaded phase alone cannot guarantee a hit: with 200 pages cycling
  // through 64 frames, fully serialized threads hit LRU's worst case (every
  // fetch a miss). A pinned page cannot be evicted, so re-fetching it while
  // the first handle is live is a hit regardless of scheduling.
  auto pinned = pool.Fetch(ids[0]);
  ASSERT_TRUE(pinned.ok());
  auto again = pool.Fetch(ids[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(pool.hits(), 0u);
}

TEST_F(ConcurrentQueryTest, PlanCacheHitMissEviction) {
  PlanCache cache(/*shard_capacity=*/2);
  auto plan = ParseXPath("//a/b");
  ASSERT_TRUE(plan.ok());

  EXPECT_FALSE(cache.Lookup("//a/b").has_value());
  cache.Insert("//a/b", *plan);
  EXPECT_TRUE(cache.Lookup("//a/b").has_value());
  cache.Insert("//a/b", *plan);  // duplicate insert is a no-op
  EXPECT_EQ(cache.GetStats().entries, 1u);

  // Flood well past capacity: entries stay bounded, evictions happen.
  for (int i = 0; i < 100; ++i) {
    cache.Insert("//q" + std::to_string(i), *plan);
  }
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.entries, 2 * PlanCache::kNumShards);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST_F(ConcurrentQueryTest, PlanCacheConcurrentMixedUse) {
  PlanCache cache;
  auto plan = ParseXPath("//a/b");
  ASSERT_TRUE(plan.ok());

  constexpr int kThreads = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        std::string key = "//k" + std::to_string((i + t) % 32);
        if (auto hit = cache.Lookup(key)) {
          if (hit->steps.size() != plan->steps.size()) bad.fetch_add(1);
        } else {
          cache.Insert(key, *plan);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(cache.GetStats().entries, 32u);
}

std::string Key8(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", i);
  return std::string(buf, 8);
}

// Snapshot isolation at the B+-tree layer, deterministically: an iterator
// pinned on generation N must keep yielding exactly generation N's entries
// — byte-identical, in order — while the writer prepares, commits, and
// publishes generation N+1 underneath it. The second batch interleaves odd
// keys between the first batch's even keys so nearly every gen-N leaf is
// superseded by COW; the pinned snapshot is what keeps those retired pages
// from being recycled under the iterator.
TEST_F(ConcurrentQueryTest, BTreeIteratorPinsGenerationAcrossCommit) {
  PageFile file;
  ASSERT_TRUE(file.Open(dir_ + "/snap.pages", true).ok());
  BufferPool pool(&file, /*capacity=*/64);
  auto tree = BTree::Create(&pool, /*key_size=*/8, /*value_size=*/8);
  ASSERT_TRUE(tree.ok()) << tree.status();

  // 1,000 entries need at least four 255-entry leaves, so the pinned
  // iterator crosses leaf boundaries through generation 1's inner pages
  // after the writer has committed generation 2.
  constexpr int kPerBatch = 1000;
  ASSERT_TRUE(tree->BeginBatch().ok());
  for (int i = 0; i < kPerBatch; ++i) {  // generation 1: even keys
    ASSERT_TRUE(tree->Insert(Key8(2 * i), Key8(2 * i)).ok());
  }
  auto c1 = tree->PrepareCommit();
  ASSERT_TRUE(c1.ok()) << c1.status();
  tree->FinalizeCommit();
  const uint64_t gen1 = tree->generation();
  ASSERT_GE(tree->height(), 2u);

  // Pin generation 1 and consume a prefix before the writer moves on.
  auto pinned = tree->SeekFirst();
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  std::vector<std::string> seen;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pinned->Valid());
    seen.emplace_back(pinned->key());
    ASSERT_TRUE(pinned->Next().ok());
  }

  ASSERT_TRUE(tree->BeginBatch().ok());
  for (int i = 0; i < kPerBatch; ++i) {  // generation 2: odd keys between
    ASSERT_TRUE(tree->Insert(Key8(2 * i + 1), Key8(2 * i + 1)).ok());
  }
  auto c2 = tree->PrepareCommit();
  ASSERT_TRUE(c2.ok()) << c2.status();
  tree->FinalizeCommit();
  EXPECT_EQ(tree->generation(), gen1 + 1);
  EXPECT_EQ(tree->num_entries(), uint64_t{2 * kPerBatch});

  // The pinned iterator finishes its scan against generation 1: all even
  // keys, none of generation 2's odd keys, values intact.
  while (pinned->Valid()) {
    seen.emplace_back(pinned->key());
    EXPECT_EQ(pinned->value(), pinned->key());
    ASSERT_TRUE(pinned->Next().ok());
  }
  ASSERT_EQ(seen.size(), size_t{kPerBatch});
  for (int i = 0; i < kPerBatch; ++i) EXPECT_EQ(seen[i], Key8(2 * i));

  // A fresh iterator sees generation 2: both batches, interleaved.
  auto fresh = tree->SeekFirst();
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  int count = 0;
  while (fresh->Valid()) {
    EXPECT_EQ(fresh->key(), Key8(count));
    ++count;
    ASSERT_TRUE(fresh->Next().ok());
  }
  EXPECT_EQ(count, 2 * kPerBatch);
}

std::string SectionDoc(int i) {
  std::string doc = "<article><prolog><title>conc" + std::to_string(i) +
                    "</title><authors><author><name>writer</name>"
                    "<contact><email>w" + std::to_string(i) +
                    "@x</email></contact></author></authors></prolog><body>";
  for (int s = 0; s <= i; ++s) {
    doc += "<section><title>s</title><p>snapshot body text</p></section>";
  }
  doc += "</body><epilog><references><a_id>r</a_id></references>"
         "</epilog></article>";
  return doc;
}

// Snapshot isolation end to end: reader threads query at full index service
// while a single writer commits generations N+1..N+5 (one InsertDocument
// per new document). Every result a reader observes must be byte-identical
// to one of the six sequential index states — captured up front from a
// deterministic twin database — and the state a thread observes for a given
// query may only move forward, because published generations are monotonic.
// No fault injection here: this file runs under TSan (`concurrency` label),
// which is exactly the point — readers during commit must be race-free.
TEST_F(ConcurrentQueryTest, ReadersSeeOnlyCommittedGenerationsDuringInserts) {
  constexpr int kExtraDocs = 5;
  const std::vector<std::string> xpaths = {
      "/article/body/section/p", "/article/prolog/authors/author/name",
      "//author/contact/email"};
  const size_t kQ = xpaths.size();

  // Both databases are built identically: generated corpus, index over it,
  // then the extra documents appended to the corpus (before any reader
  // thread exists — corpus mutation is writer-exclusive) but not yet
  // indexed. Identical construction order means identical NodeRefs.
  std::vector<uint32_t> twin_ids, main_ids;
  auto setup = [&](const std::string& sub, std::vector<uint32_t>* ids) {
    std::string d = dir_ + "/" + sub;
    std::filesystem::create_directories(d);
    auto db = std::make_unique<Database>(d);
    TcmdOptions o;
    o.num_docs = 40;
    GenerateTcmd(db->corpus(), o);
    EXPECT_TRUE(db->Finalize().ok());
    auto built = db->BuildIndex("main", IndexOptions{}, nullptr);
    EXPECT_TRUE(built.ok()) << built.status();
    for (int i = 0; i < kExtraDocs; ++i) {
      auto id = db->AddXml(SectionDoc(i));
      EXPECT_TRUE(id.ok());
      ids->push_back(*id);
    }
    return db;
  };

  // Twin: insert sequentially, capturing the answer set of every state k
  // (= after k inserts). states[k][q] is the only thing a reader running
  // against the main database is ever allowed to see for query q.
  auto twin = setup("twin", &twin_ids);
  std::vector<std::vector<std::vector<NodeRef>>> states(
      kExtraDocs + 1, std::vector<std::vector<NodeRef>>(kQ));
  for (int k = 0; k <= kExtraDocs; ++k) {
    for (size_t q = 0; q < kQ; ++q) {
      auto stats = twin->Query("main", xpaths[q], &states[k][q]);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ASSERT_FALSE(stats->degraded);
    }
    if (k < kExtraDocs) {
      ASSERT_TRUE(
          twin->index("main")->InsertDocument(twin_ids[k]).ok());
    }
  }
  // The new documents must actually change the answers, or the isolation
  // check below would be vacuous.
  ASSERT_NE(states[0][0], states[kExtraDocs][0]);

  auto db = setup("main", &main_ids);
  ASSERT_EQ(main_ids, twin_ids);
  FixIndex* index = db->index("main");
  ASSERT_NE(index, nullptr);

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};   // query errors or degraded answers
  std::atomic<int> unmatched{0};  // result equal to no committed state
  std::atomic<int> regressed{0};  // observed state or generation went back
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::vector<int> last_state(kQ, 0);
      uint64_t last_gen = 0;
      // Keep reading until the writer is done, then one more full pass so
      // the final state is observed too.
      for (bool final_pass = false; !final_pass;) {
        final_pass = done.load();
        // generation()/num_entries() are the reader-safe stat surface; they
        // must be callable mid-commit (TSan guards this claim).
        uint64_t gen = index->generation();
        (void)index->num_entries();
        if (gen < last_gen) regressed.fetch_add(1);
        last_gen = gen;
        for (size_t q = 0; q < kQ; ++q) {
          std::vector<NodeRef> results;
          auto stats = db->Query("main", xpaths[q], &results);
          if (!stats.ok() || stats->degraded) {
            failures.fetch_add(1);
            continue;
          }
          int match = -1;
          for (int k = 0; k <= kExtraDocs; ++k) {
            if (results == states[k][q]) {
              match = k;
              break;
            }
          }
          if (match < 0) {
            unmatched.fetch_add(1);
          } else if (match < last_state[q]) {
            regressed.fetch_add(1);
          } else {
            last_state[q] = match;
          }
        }
      }
    });
  }

  for (int k = 0; k < kExtraDocs; ++k) {
    ASSERT_TRUE(index->InsertDocument(main_ids[k]).ok());
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(unmatched.load(), 0);
  EXPECT_EQ(regressed.load(), 0);
  EXPECT_EQ(index->generation(), twin->index("main")->generation());
  for (size_t q = 0; q < kQ; ++q) {
    std::vector<NodeRef> results;
    ASSERT_TRUE(db->Query("main", xpaths[q], &results).ok());
    EXPECT_EQ(results, states[kExtraDocs][q]) << xpaths[q];
  }
}

}  // namespace
}  // namespace fix
