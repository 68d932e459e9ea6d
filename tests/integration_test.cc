// Integration tests through the Database facade — the same flow the
// examples and a downstream user would run.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "core/database.h"
#include "core/fix_query.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"

namespace fix {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_db_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    db_ = std::make_unique<Database>(dir_);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, QuickstartFlow) {
  ASSERT_TRUE(db_->AddXml("<bib><book><title>A</title><author>X</author>"
                          "</book></bib>").ok());
  ASSERT_TRUE(db_->AddXml("<bib><article><title>B</title></article></bib>")
                  .ok());
  ASSERT_TRUE(db_->Finalize().ok());
  BuildStats stats;
  auto index = db_->BuildIndex("main", IndexOptions{}, &stats);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(stats.entries, 2u);

  std::vector<NodeRef> results;
  auto exec = db_->Query("main", "//book/title", &results);
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(exec->result_count, 1u);
}

TEST_F(DatabaseTest, MultipleIndexesCoexist) {
  ASSERT_TRUE(db_->AddXml("<a><b><c/></b></a>").ok());
  IndexOptions unclustered;
  IndexOptions clustered;
  clustered.clustered = true;
  ASSERT_TRUE(db_->BuildIndex("u", unclustered, nullptr).ok());
  ASSERT_TRUE(db_->BuildIndex("c", clustered, nullptr).ok());
  EXPECT_NE(db_->index("u"), nullptr);
  EXPECT_NE(db_->index("c"), nullptr);
  EXPECT_EQ(db_->index("missing"), nullptr);

  auto via_u = db_->Query("u", "//b/c");
  auto via_c = db_->Query("c", "//b/c");
  ASSERT_TRUE(via_u.ok());
  ASSERT_TRUE(via_c.ok());
  EXPECT_EQ(via_u->result_count, via_c->result_count);
}

TEST_F(DatabaseTest, AttachReopensPersistedIndex) {
  ASSERT_TRUE(db_->AddXml("<a><b/><c/></a>").ok());
  ASSERT_TRUE(db_->AddXml("<a><b/></a>").ok());
  ASSERT_TRUE(db_->corpus()->Save(dir_).ok());
  ASSERT_TRUE(db_->BuildIndex("main", IndexOptions{}, nullptr).ok());
  auto before = db_->Query("main", "/a[b]/c");
  ASSERT_TRUE(before.ok());

  // Simulate a new process: fresh Database over the same workdir.
  db_ = std::make_unique<Database>(dir_);
  auto corpus = Corpus::Load(dir_);
  ASSERT_TRUE(corpus.ok());
  *db_->corpus() = std::move(corpus).value();
  auto attached = db_->AttachIndex("main");
  ASSERT_TRUE(attached.ok()) << attached.status();
  auto after = db_->Query("main", "/a[b]/c");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result_count, before->result_count);
  EXPECT_EQ(after->candidates, before->candidates);
}

TEST_F(DatabaseTest, AttachMissingIndexFails) {
  ASSERT_TRUE(db_->AddXml("<a/>").ok());
  EXPECT_FALSE(db_->AttachIndex("ghost").ok());
}

TEST_F(DatabaseTest, QueryUnknownIndexFails) {
  ASSERT_TRUE(db_->AddXml("<a/>").ok());
  EXPECT_FALSE(db_->Query("nope", "//a").ok());
}

TEST_F(DatabaseTest, BadXPathSurfacesParseError) {
  ASSERT_TRUE(db_->AddXml("<a/>").ok());
  ASSERT_TRUE(db_->BuildIndex("main", IndexOptions{}, nullptr).ok());
  auto exec = db_->Query("main", "not an xpath");
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsParseError());
}

TEST_F(DatabaseTest, GeneratedWorkloadEndToEnd) {
  XMarkOptions options;
  options.num_items = 18;
  options.num_people = 18;
  options.num_open_auctions = 18;
  options.num_closed_auctions = 18;
  options.num_categories = 9;
  GenerateXMark(db_->corpus(), options);
  ASSERT_TRUE(db_->Finalize().ok());
  IndexOptions iopts;
  iopts.depth_limit = 6;
  BuildStats stats;
  ASSERT_TRUE(db_->BuildIndex("xmark", iopts, &stats).ok());
  EXPECT_GT(stats.entries, 1000u);

  auto exec = db_->Query("xmark", "//closed_auction/annotation/description");
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_GT(exec->result_count, 0u);
  EXPECT_GT(exec->pruning_power(), 0.5);  // structure-rich data prunes well
}

TEST_F(DatabaseTest, ValueIndexEndToEnd) {
  DblpOptions options;
  options.num_publications = 200;
  GenerateDblp(db_->corpus(), options);
  IndexOptions iopts;
  iopts.depth_limit = 6;
  iopts.value_beta = 10;
  ASSERT_TRUE(db_->BuildIndex("values", iopts, nullptr).ok());
  auto exec =
      db_->Query("values", "//proceedings[publisher=\"Springer\"][title]");
  ASSERT_TRUE(exec.ok()) << exec.status();
  // The generator makes Springer the most common publisher; matches exist.
  EXPECT_GT(exec->result_count, 0u);
}

// Database::Query returns the same vector as the full scan, in the same
// (doc, node) order, for every random query the paper probe's false
// negatives (finding F1) do not touch. Under the sound probe that is every
// query; under the paper probe a query F1 touches must lose results, never
// gain or reorder them.
TEST_F(DatabaseTest, QueryResultsInFullScanOrder) {
  struct Case {
    const char* name;
    void (*generate)(Corpus*);
    int depth_limit;
  };
  const Case cases[] = {
      {"tcmd",
       [](Corpus* c) {
         TcmdOptions o;
         o.num_docs = 60;
         GenerateTcmd(c, o);
       },
       0},
      {"dblp",
       [](Corpus* c) {
         DblpOptions o;
         o.num_publications = 300;
         GenerateDblp(c, o);
       },
       6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (bool sound : {false, true}) {
      SCOPED_TRACE(sound ? "sound_probe" : "paper_probe");
      const std::string sub = dir_ + "/" + c.name + (sound ? "_s" : "_p");
      std::filesystem::create_directories(sub);
      Database db(sub);
      c.generate(db.corpus());
      ASSERT_TRUE(db.Finalize().ok());
      IndexOptions options;
      options.depth_limit = c.depth_limit;
      options.sound_probe = sound;
      ASSERT_TRUE(db.BuildIndex("main", options, nullptr).ok());

      QueryGenOptions qopts;
      qopts.seed = 23;
      std::vector<TwigQuery> queries =
          GenerateRandomQueries(*db.corpus(), 40, qopts);
      qopts.seed = 24;
      qopts.rooted = true;
      for (TwigQuery& q : GenerateRandomQueries(*db.corpus(), 10, qopts)) {
        queries.push_back(std::move(q));
      }
      size_t compared = 0;
      for (const TwigQuery& q : queries) {
        const std::string xpath = q.ToString();
        SCOPED_TRACE(xpath);
        std::vector<NodeRef> scan, got;
        ASSERT_TRUE(FullScanExecute(db.corpus(), q, &scan, 0).ok());
        auto stats = db.Query("main", xpath, &got);
        ASSERT_TRUE(stats.ok()) << stats.status();
        EXPECT_EQ(stats->result_count, got.size());
        if (!sound && got.size() < scan.size()) {
          EXPECT_TRUE(std::includes(
              scan.begin(), scan.end(), got.begin(), got.end(),
              [](const NodeRef& a, const NodeRef& b) {
                return a.doc_id != b.doc_id ? a.doc_id < b.doc_id
                                            : a.node_id < b.node_id;
              }));
          continue;
        }
        EXPECT_EQ(got, scan);
        ++compared;
      }
      EXPECT_GE(compared, queries.size() * 9 / 10);
    }
  }
}

}  // namespace
}  // namespace fix
