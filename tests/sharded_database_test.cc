// ShardedDatabase tests: byte-identical scatter-gather parity against the
// unsharded path on all four datasets at 1/2/4/8 shards (both sound_probe
// settings), the shared plan cache, per-shard
// quarantine isolation, online rebalance, the sharded write path, and a
// concurrent scatter-gather stress. Carries the `concurrency` ctest label
// so CI runs it in the Release and TSan trees.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/fix_index.h"
#include "core/sharded_database.h"
#include "datagen/datasets.h"

namespace fix {
namespace {

class ShardedDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_shard_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Subdir(const std::string& name) {
    std::string d = dir_ + "/" + name;
    std::filesystem::create_directories(d);
    return d;
  }

  std::string dir_;
};

void GenTinyTcmd(Corpus* c) {
  TcmdOptions o;
  o.num_docs = 40;
  GenerateTcmd(c, o);
}
void GenTinyDblp(Corpus* c) {
  DblpOptions o;
  o.num_publications = 240;
  GenerateDblp(c, o);
}
void GenTinyXMark(Corpus* c) {
  XMarkOptions o;
  o.num_items = 50;
  o.num_people = 60;
  o.num_open_auctions = 50;
  o.num_closed_auctions = 40;
  o.num_categories = 25;
  GenerateXMark(c, o);
}
void GenTinyTreebank(Corpus* c) {
  TreebankOptions o;
  o.num_sentences = 100;
  GenerateTreebank(c, o);
}

struct DatasetCase {
  const char* name;
  void (*generate)(Corpus*);
  int depth_limit;
  std::vector<const char*> xpaths;
};

const DatasetCase kDatasets[] = {
    {"tcmd", GenTinyTcmd, 0,
     {"/article/prolog/authors/author/name", "//author/contact/email",
      "/article/body/section/p"}},
    {"dblp", GenTinyDblp, 6,
     {"//inproceedings/title", "//article[number]/author",
      "//dblp/inproceedings/author"}},
    {"xmark", GenTinyXMark, 6,
     {"//item/mailbox/mail", "//closed_auction/annotation/description",
      "//person/name"}},
    {"treebank", GenTinyTreebank, 6,
     {"//EMPTY/S/VP", "//EMPTY/S[VP]/NP", "//S/NP/PP"}},
};

// The acceptance matrix: every dataset, at 1/2/4/8 shards, under both
// sound_probe settings, must gather byte-identical results to the unsharded
// index over the same documents.
TEST_F(ShardedDatabaseTest, ParityMatrixAcrossDatasetsShardsSound) {
  for (const DatasetCase& c : kDatasets) {
    SCOPED_TRACE(c.name);
    for (bool sound : {false, true}) {
      SCOPED_TRACE(sound ? "sound_probe" : "paper_probe");
      Database db(Subdir(std::string(c.name) + (sound ? "_s" : "_p")));
      c.generate(db.corpus());
      ASSERT_TRUE(db.Finalize().ok());
      IndexOptions options;
      options.depth_limit = c.depth_limit;
      options.sound_probe = sound;
      ASSERT_TRUE(db.BuildIndex("main", options, nullptr).ok());

      for (uint32_t shards : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const std::string sdir = Subdir(std::string(c.name) +
                                        (sound ? "_s" : "_p") + "_n" +
                                        std::to_string(shards));
        ShardedOptions sopts;
        sopts.shard_count = shards;
        sopts.index = options;
        auto sdb = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
        ASSERT_TRUE(sdb.ok()) << sdb.status();
        ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());
        ASSERT_EQ((*sdb)->shard_count(), shards);

        for (const char* xpath : c.xpaths) {
          SCOPED_TRACE(xpath);
          std::vector<NodeRef> expect, got;
          auto base = db.Query("main", xpath, &expect);
          ASSERT_TRUE(base.ok()) << base.status();
          auto stats = (*sdb)->Query("main", xpath, &got);
          ASSERT_TRUE(stats.ok()) << stats.status();
          EXPECT_EQ(got, expect);
          EXPECT_EQ(stats->result_count, base->result_count);
          EXPECT_FALSE(stats->degraded);
          EXPECT_TRUE(stats->used_index);
          // Shards partition the entry space: the scattered index holds
          // exactly the entries the monolithic one does.
          EXPECT_EQ(stats->total_entries, base->total_entries);
        }
      }
    }
  }
}

// One XPath compiled once serves every scatter leg: the shared cache hits
// on repeats while the per-shard Database plan caches stay cold (scatter
// legs enter below Compile).
TEST_F(ShardedDatabaseTest, SharedPlanCacheServesAllShards) {
  Database db(Subdir("src"));
  GenTinyTcmd(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());

  ShardedOptions sopts;
  sopts.shard_count = 4;
  auto sdb = ShardedDatabase::Partition(*db.corpus(), Subdir("sharded"), sopts);
  ASSERT_TRUE(sdb.ok()) << sdb.status();
  ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());

  const std::vector<std::string> xpaths = {"//author/contact/email",
                                           "//author/contact/email",
                                           "/article/body/section/p"};
  for (int round = 0; round < 3; ++round) {
    auto outcomes = (*sdb)->ExecuteMany("main", xpaths);
    ASSERT_TRUE(outcomes.ok());
    for (const auto& out : *outcomes) ASSERT_TRUE(out.status.ok());
  }
  PlanCache::Stats stats = (*sdb)->plan_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  // At most two misses per distinct XPath, ever (the double-checked
  // lookup in Compile records the re-check under the lock as a miss too).
  EXPECT_LE(stats.misses, 4u);
  for (uint32_t s = 0; s < (*sdb)->shard_count(); ++s) {
    PlanCache::Stats shard_stats = (*sdb)->shard_db(s)->plan_cache_stats();
    EXPECT_EQ(shard_stats.hits + shard_stats.misses, 0u)
        << "shard " << s << " compiled on its own";
  }

  // Per-query error isolation mirrors Database::ExecuteMany: a bad XPath
  // fails only itself, an unknown index fails the whole batch.
  auto outcomes =
      (*sdb)->ExecuteMany("main", {"//author", "not an xpath", "//title"});
  ASSERT_TRUE(outcomes.ok());
  EXPECT_TRUE((*outcomes)[0].status.ok());
  EXPECT_EQ((*outcomes)[1].status.code(), StatusCode::kParseError);
  EXPECT_TRUE((*outcomes)[2].status.ok());
  EXPECT_FALSE((*sdb)->ExecuteMany("nope", {"//author"}).ok());
}

// Damage one shard's pages on disk: reopening quarantines that shard alone
// (its queries degrade to a full scan over its slice), the other shards
// keep serving indexed, and the gathered answers never change. Rebuilding
// restores full indexed service.
TEST_F(ShardedDatabaseTest, QuarantineIsolatesTheDamagedShard) {
  Database db(Subdir("src"));
  GenTinyDblp(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());

  const std::string sdir = Subdir("sharded");
  const std::vector<std::string> xpaths = {"//inproceedings/title",
                                           "//dblp/inproceedings/author"};
  std::vector<std::vector<NodeRef>> baseline(xpaths.size());
  {
    ShardedOptions sopts;
    sopts.shard_count = 4;
    auto sdb = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
    ASSERT_TRUE(sdb.ok()) << sdb.status();
    ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());
    for (size_t q = 0; q < xpaths.size(); ++q) {
      ASSERT_TRUE((*sdb)->Query("main", xpaths[q], &baseline[q]).ok());
      ASSERT_FALSE(baseline[q].empty());
    }
  }  // closed: all shard files released before we damage them

  // Zero a stretch of shard 1's page file, past the header.
  const std::string victim = sdir + "/gen-0/shard-0001/main.fix";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(8192);
    std::string garbage(4096, '\xee');
    f.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
    ASSERT_TRUE(f.good());
  }

  auto reopened = ShardedDatabase::Open(sdir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ShardedDatabase* sdb = reopened->get();
  std::vector<bool> degraded = sdb->DegradedShards("main");
  ASSERT_EQ(degraded.size(), 4u);
  EXPECT_TRUE(degraded[1]);
  EXPECT_FALSE(degraded[0]);
  EXPECT_FALSE(degraded[2]);
  EXPECT_FALSE(degraded[3]);
  EXPECT_TRUE(sdb->IsDegraded("main"));

  for (size_t q = 0; q < xpaths.size(); ++q) {
    SCOPED_TRACE(xpaths[q]);
    std::vector<NodeRef> results;
    auto stats = sdb->Query("main", xpaths[q], &results);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(results, baseline[q]);   // zero result corruption
    EXPECT_TRUE(stats->degraded);      // the damaged leg full-scanned
    EXPECT_FALSE(stats->used_index);   // merged AND over legs
  }

  // Inserts aimed at the quarantined shard still land: the commit is
  // skipped (full scan already covers the new document), others commit
  // through their healthy COW path. Route a document onto shard 1 by
  // walking global ids until the hash says so.
  uint32_t next = static_cast<uint32_t>(sdb->num_docs());
  while (ShardedDatabase::RouteDoc(next, 4) != 1) {
    auto id = sdb->InsertXml(
        "main", "<dblp><www><title>filler</title></www></dblp>");
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_EQ(*id, next);
    ++next;
  }
  auto onto_damaged = sdb->InsertXml(
      "main",
      "<dblp><inproceedings><author>QuarantinedShardAuthor</author>"
      "<title>injected</title></inproceedings></dblp>");
  ASSERT_TRUE(onto_damaged.ok()) << onto_damaged.status();
  std::vector<NodeRef> results;
  auto stats = sdb->Query("main", "//inproceedings/author", &results);
  ASSERT_TRUE(stats.ok());
  bool found = false;
  for (const NodeRef& r : results) found = found || r.doc_id == *onto_damaged;
  EXPECT_TRUE(found);

  // Recovery: a parallel rebuild clears the quarantine and answers match.
  ASSERT_TRUE(sdb->RebuildIndexes("main").ok());
  EXPECT_FALSE(sdb->IsDegraded("main"));
  for (size_t q = 0; q < xpaths.size(); ++q) {
    std::vector<NodeRef> after;
    auto st = sdb->Query("main", xpaths[q], &after);
    ASSERT_TRUE(st.ok());
    EXPECT_FALSE(st->degraded);
    EXPECT_TRUE(st->used_index);
  }
}

// Per-tenant shard overrides (sound_probe on one shard, λ₂ pruning on
// another) change per-shard cost profiles, never answers.
TEST_F(ShardedDatabaseTest, PerShardOptionOverridesKeepParity) {
  Database db(Subdir("src"));
  GenTinyXMark(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());
  IndexOptions base;
  base.depth_limit = 6;
  ASSERT_TRUE(db.BuildIndex("main", base, nullptr).ok());

  ShardedOptions sopts;
  sopts.shard_count = 4;
  sopts.index = base;
  sopts.shard_overrides[1].depth_limit = 6;
  sopts.shard_overrides[1].sound_probe = true;
  sopts.shard_overrides[2].depth_limit = 6;
  sopts.shard_overrides[2].use_lambda2 = true;
  auto sdb = ShardedDatabase::Partition(*db.corpus(), Subdir("sharded"), sopts);
  ASSERT_TRUE(sdb.ok()) << sdb.status();
  ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());

  for (const char* xpath : {"//item/mailbox/mail", "//person/name",
                            "//closed_auction/annotation/description"}) {
    SCOPED_TRACE(xpath);
    std::vector<NodeRef> expect, got;
    ASSERT_TRUE(db.Query("main", xpath, &expect).ok());
    ASSERT_TRUE((*sdb)->Query("main", xpath, &got).ok());
    EXPECT_EQ(got, expect);
  }
}

// Online rebalance: split 2 -> 4 shards and shrink 4 -> 3, with answers
// byte-identical before and after, the layout generation advancing, and
// the whole thing surviving a close/reopen (manifest + routing rederive).
TEST_F(ShardedDatabaseTest, RebalancePreservesAnswersAndSurvivesReopen) {
  Database db(Subdir("src"));
  GenTinyDblp(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());
  const std::string sdir = Subdir("sharded");
  const std::vector<std::string> xpaths = {"//inproceedings/title",
                                           "//article[number]/author"};

  ShardedOptions sopts;
  sopts.shard_count = 2;
  auto created = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
  ASSERT_TRUE(created.ok()) << created.status();
  ShardedDatabase* sdb = created->get();
  ASSERT_TRUE(sdb->BuildIndexes("main").ok());

  std::vector<std::vector<NodeRef>> baseline(xpaths.size());
  for (size_t q = 0; q < xpaths.size(); ++q) {
    ASSERT_TRUE(sdb->Query("main", xpaths[q], &baseline[q]).ok());
  }
  const uint64_t docs_before = sdb->num_docs();

  ASSERT_TRUE(sdb->Rebalance(4, "main").ok());
  EXPECT_EQ(sdb->shard_count(), 4u);
  EXPECT_EQ(sdb->layout_generation(), 1u);
  EXPECT_EQ(sdb->num_docs(), docs_before);
  for (size_t q = 0; q < xpaths.size(); ++q) {
    std::vector<NodeRef> got;
    ASSERT_TRUE(sdb->Query("main", xpaths[q], &got).ok());
    EXPECT_EQ(got, baseline[q]);
  }
  // The old generation's directories are retired.
  EXPECT_FALSE(std::filesystem::exists(sdir + "/gen-0"));

  ASSERT_TRUE(sdb->Rebalance(3, "main").ok());
  EXPECT_EQ(sdb->shard_count(), 3u);
  for (size_t q = 0; q < xpaths.size(); ++q) {
    std::vector<NodeRef> got;
    ASSERT_TRUE(sdb->Query("main", xpaths[q], &got).ok());
    EXPECT_EQ(got, baseline[q]);
  }

  // Writes after the rebalance, then a cold reopen. The inserted document
  // matches neither workload XPath, so the baselines must hold.
  auto id = sdb->InsertXml("main",
                           "<dblp><www><author>RebalancedAuthor</author>"
                           "<title>t</title></www></dblp>");
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, static_cast<uint32_t>(docs_before));
  (*created).reset();

  auto reopened = ShardedDatabase::Open(sdir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->shard_count(), 3u);
  EXPECT_EQ((*reopened)->num_docs(), docs_before + 1);
  EXPECT_FALSE((*reopened)->IsDegraded("main"));
  std::vector<NodeRef> got;
  ASSERT_TRUE((*reopened)->Query("main", xpaths[0], &got).ok());
  EXPECT_EQ(got, baseline[0]);
}

// Batched inserts commit per shard in parallel and report global ids in
// input order; a reopened database re-derives the same placement.
TEST_F(ShardedDatabaseTest, InsertManyCommitsShardsInParallel) {
  Database db(Subdir("src"));
  GenTinyTcmd(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());
  const std::string sdir = Subdir("sharded");
  ShardedOptions sopts;
  sopts.shard_count = 4;
  auto sdb = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
  ASSERT_TRUE(sdb.ok()) << sdb.status();
  ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());
  const uint64_t before = (*sdb)->num_docs();

  std::vector<std::string> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back("<article><prolog><title>batch" + std::to_string(i) +
                    "</title><authors><author><name>BatchedWriter</name>"
                    "</author></authors></prolog><body><section><title>s"
                    "</title><p>x</p></section></body><epilog><references>"
                    "<a_id>r</a_id></references></epilog></article>");
  }
  auto ids = (*sdb)->InsertMany("main", batch);
  ASSERT_TRUE(ids.ok()) << ids.status();
  ASSERT_EQ(ids->size(), batch.size());
  for (size_t i = 0; i < ids->size(); ++i) {
    EXPECT_EQ((*ids)[i], static_cast<uint32_t>(before + i));
  }

  std::vector<NodeRef> results;
  auto stats = (*sdb)->Query("main", "//author/name", &results);
  ASSERT_TRUE(stats.ok());
  size_t inserted_hits = 0;
  for (const NodeRef& r : results) {
    if (r.doc_id >= before) ++inserted_hits;
  }
  EXPECT_EQ(inserted_hits, batch.size());
  EXPECT_FALSE(stats->degraded);

  (*sdb).reset();
  auto reopened = ShardedDatabase::Open(sdir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->num_docs(), before + batch.size());
  std::vector<NodeRef> again;
  ASSERT_TRUE((*reopened)->Query("main", "//author/name", &again).ok());
  EXPECT_EQ(again, results);
}

// TSan target: concurrent scatter-gather readers against a single writer
// inserting documents. The inserted documents share no labels with the
// read workload, so every reader must reproduce its baseline exactly while
// corpus appends, per-shard saves, and COW index commits land underneath.
TEST_F(ShardedDatabaseTest, ConcurrentScatterGatherStress) {
  Database db(Subdir("src"));
  GenTinyXMark(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());
  IndexOptions base;
  base.depth_limit = 6;
  ShardedOptions sopts;
  sopts.shard_count = 4;
  sopts.index = base;
  auto created = ShardedDatabase::Partition(*db.corpus(), Subdir("sharded"),
                                            sopts);
  ASSERT_TRUE(created.ok()) << created.status();
  ShardedDatabase* sdb = created->get();
  ASSERT_TRUE(sdb->BuildIndexes("main").ok());

  const std::vector<std::string> xpaths = {
      "//item/mailbox/mail", "//person/name",
      "//closed_auction/annotation/description",
      "//open_auction[seller]/annotation/description/text"};
  std::vector<std::vector<NodeRef>> baseline(xpaths.size());
  for (size_t q = 0; q < xpaths.size(); ++q) {
    ASSERT_TRUE(sdb->Query("main", xpaths[q], &baseline[q]).ok());
  }

  constexpr int kReaders = 4;
  constexpr int kWriterDocs = 24;
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (bool final_pass = false; !final_pass;) {
        final_pass = done.load();
        for (size_t i = 0; i < xpaths.size(); ++i) {
          const size_t q = (i + t) % xpaths.size();
          std::vector<NodeRef> results;
          auto stats = sdb->Query("main", xpaths[q], &results);
          if (!stats.ok() || stats->degraded) {
            failures.fetch_add(1);
          } else if (results != baseline[q]) {
            mismatches.fetch_add(1);
          }
        }
        // Batch path under the same churn.
        auto outcomes = sdb->ExecuteMany("main", xpaths);
        if (!outcomes.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t q = 0; q < xpaths.size(); ++q) {
          if (!(*outcomes)[q].status.ok() ||
              (*outcomes)[q].results != baseline[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }

  for (int i = 0; i < kWriterDocs; ++i) {
    auto id = sdb->InsertXml("main", "<shardnoise><blob>stress doc " +
                                         std::to_string(i) +
                                         "</blob></shardnoise>");
    ASSERT_TRUE(id.ok()) << id.status();
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(sdb->plan_cache_stats().hits, 0u);

  // All writer documents are queryable afterwards, from every shard they
  // hashed onto.
  std::vector<NodeRef> blobs;
  ASSERT_TRUE(sdb->Query("main", "//shardnoise/blob", &blobs).ok());
  EXPECT_EQ(blobs.size(), static_cast<size_t>(kWriterDocs));
}

// Manifest validation: a torn or scribbled manifest must fail the open
// with Corruption, never misroute documents.
TEST_F(ShardedDatabaseTest, CorruptManifestFailsOpen) {
  Database db(Subdir("src"));
  GenTinyTcmd(db.corpus());
  ASSERT_TRUE(db.Finalize().ok());
  const std::string sdir = Subdir("sharded");
  ShardedOptions sopts;
  sopts.shard_count = 2;
  {
    auto sdb = ShardedDatabase::Partition(*db.corpus(), sdir, sopts);
    ASSERT_TRUE(sdb.ok()) << sdb.status();
  }
  EXPECT_TRUE(IsShardedLayout(sdir));
  EXPECT_FALSE(IsShardedLayout(dir_ + "/src"));

  auto layout = ReadShardLayout(sdir);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->shard_count, 2u);
  EXPECT_EQ(layout->shard_dirs.size(), 2u);

  {
    std::ofstream f(sdir + "/shards.manifest",
                    std::ios::binary | std::ios::trunc);
    f << "FXSHgarbage";
  }
  auto reopened = ShardedDatabase::Open(sdir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();

  EXPECT_FALSE(ShardedDatabase::Partition(*db.corpus(), sdir, sopts).ok())
      << "partitioning over an existing layout must be refused";
}

}  // namespace
}  // namespace fix
