// Tests for incremental index maintenance: InsertDocument on unclustered
// indexes — the update workload the paper's introduction holds against
// clustering indexes (Section 1: "updating as well as querying on the
// [F&B] structures could be expensive"). The index is insert-only.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/full_scan.h"
#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/metrics.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "core/persist.h"
#include "query/xpath_parser.h"
#include "xml/serializer.h"

namespace fix {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_update_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  TwigQuery Query(const std::string& text) {
    auto q = ParseXPath(text);
    EXPECT_TRUE(q.ok());
    TwigQuery query = std::move(q).value();
    query.ResolveLabels(corpus_.labels());
    return query;
  }

  std::string dir_;
  Corpus corpus_;
};

TEST_F(UpdateTest, InsertedDocumentBecomesQueryable) {
  ASSERT_TRUE(corpus_.AddXml("<a><b/></a>").ok());
  IndexOptions options;
  options.depth_limit = 3;
  options.path = dir_ + "/i.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_entries(), 2u);

  auto id = corpus_.AddXml("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(index->InsertDocument(*id, nullptr).ok());
  EXPECT_EQ(index->num_entries(), 6u);  // 2 + 4 elements

  FixQueryProcessor processor(&corpus_, &*index);
  std::vector<NodeRef> results;
  auto stats = processor.Execute(Query("//c/d"), &results);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, *id);
}

TEST_F(UpdateTest, InsertIntoClusteredRejected) {
  ASSERT_TRUE(corpus_.AddXml("<a><b/></a>").ok());
  IndexOptions options;
  options.clustered = true;
  options.path = dir_ + "/c.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  auto id = corpus_.AddXml("<a><c/></a>");
  ASSERT_TRUE(id.ok());
  auto status = index->InsertDocument(*id, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotSupported);
}

TEST_F(UpdateTest, InsertRejectsUnknownDoc) {
  ASSERT_TRUE(corpus_.AddXml("<a/>").ok());
  IndexOptions options;
  options.path = dir_ + "/u.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->InsertDocument(99, nullptr).ok());
}

// Every key ends in its element's (doc, node), so indexing a document
// twice would store its keys twice. The B+-tree refuses the first repeated
// key and the commit aborts: nothing is published.
TEST_F(UpdateTest, ReinsertingIndexedDocumentIsRefused) {
  ASSERT_TRUE(corpus_.AddXml("<a><b/><c/></a>").ok());
  ASSERT_TRUE(corpus_.AddXml("<a><b/></a>").ok());
  IndexOptions options;
  options.depth_limit = 2;
  options.path = dir_ + "/r.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  const uint64_t entries = index->num_entries();
  const uint64_t generation = index->generation();

  for (uint32_t d = 0; d < 2; ++d) {
    Status again = index->InsertDocument(d, nullptr);
    EXPECT_TRUE(again.IsInvalidArgument()) << d << ": " << again;
  }
  EXPECT_EQ(index->generation(), generation);
  EXPECT_EQ(index->num_entries(), entries);
  ASSERT_TRUE(index->Verify().ok());

  // The refusals left the index writable: a new document still commits.
  auto id = corpus_.AddXml("<a><b/><c/></a>");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(index->InsertDocument(*id, nullptr).ok());
  EXPECT_EQ(index->generation(), generation + 1);
  EXPECT_EQ(index->num_entries(), entries + 3);
  FixQueryProcessor processor(&corpus_, &*index);
  std::vector<NodeRef> results;
  auto stats = processor.Execute(Query("//a[b]/c"), &results);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc_id, 0u);
  EXPECT_EQ(results[1].doc_id, *id);
}

enum class Gen { kTcmd, kDblp, kXMark, kTreebank };

// A small corpus of `gen` as XML text, several documents long: TCMD is
// many documents already; the other generators make one document per
// call, so each seed adds one.
std::vector<std::string> CorpusXml(Gen gen) {
  Corpus source;
  switch (gen) {
    case Gen::kTcmd: {
      TcmdOptions o;
      o.num_docs = 30;
      GenerateTcmd(&source, o);
      break;
    }
    case Gen::kDblp:
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        DblpOptions o;
        o.seed = seed;
        o.num_publications = 12;
        GenerateDblp(&source, o);
      }
      break;
    case Gen::kXMark:
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        XMarkOptions o;
        o.seed = seed;
        o.num_items = 4;
        o.num_people = 4;
        o.num_open_auctions = 4;
        o.num_closed_auctions = 4;
        o.num_categories = 3;
        GenerateXMark(&source, o);
      }
      break;
    case Gen::kTreebank:
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        TreebankOptions o;
        o.seed = seed;
        o.num_sentences = 5;
        GenerateTreebank(&source, o);
      }
      break;
  }
  std::vector<std::string> xml;
  for (uint32_t d = 0; d < source.num_docs(); ++d) {
    xml.push_back(SerializeXml(source.doc(d), *source.labels()));
  }
  return xml;
}

void AddAll(Corpus* corpus, const std::vector<std::string>& xml,
            size_t count) {
  for (size_t d = 0; d < count; ++d) {
    ASSERT_TRUE(corpus->AddXml(xml[d]).ok());
  }
}

// Every entry of `index` as (key, value) bytes, in tree order.
std::vector<std::pair<std::string, std::string>> Entries(FixIndex* index) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = index->btree()->SeekFirst();
  EXPECT_TRUE(it.ok());
  if (!it.ok()) return out;
  while (it->Valid()) {
    out.emplace_back(std::string(it->key()), std::string(it->value()));
    EXPECT_TRUE(it->Next().ok());
  }
  return out;
}

// Property: a document indexed by InsertDocument gets exactly the entries a
// bulk build over the same corpus gives it, byte for byte, because both run
// the one entry pipeline. Per configuration: build over the first third of
// the corpus, then append the rest and insert each, so inserts intern label
// pairs the build never saw. The entries and the edge-weight tables must
// equal a bulk build's over the whole corpus. With value_beta > 0 the value
// buckets' labels are interned when an index is built, so a prefix corpus
// numbers them differently from a fresh one; that case compares with a
// bulk build over the grown corpus itself.
TEST_F(UpdateTest, IncrementalBuildEqualsBulkBuild) {
  struct Case {
    Gen gen;
    int depth_limit;
    uint32_t value_beta;
    const char* name;
  };
  const Case cases[] = {
      {Gen::kTcmd, 0, 0, "tcmd_l0"},          {Gen::kTcmd, 4, 0, "tcmd_l4"},
      {Gen::kDblp, 0, 0, "dblp_l0"},          {Gen::kDblp, 4, 0, "dblp_l4"},
      {Gen::kXMark, 0, 0, "xmark_l0"},        {Gen::kXMark, 4, 0, "xmark_l4"},
      {Gen::kTreebank, 0, 0, "treebank_l0"},  {Gen::kTreebank, 4, 0, "treebank_l4"},
      {Gen::kTcmd, 4, 10, "tcmd_l4_values"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<std::string> xml = CorpusXml(c.gen);
    ASSERT_GE(xml.size(), 4u);
    IndexOptions options;
    options.depth_limit = c.depth_limit;
    options.value_beta = c.value_beta;

    Corpus full;
    AddAll(&full, xml, xml.size());
    options.path = dir_ + "/bulk.fix";
    auto bulk = FixIndex::Build(&full, options, nullptr);
    ASSERT_TRUE(bulk.ok()) << bulk.status();
    const auto want = Entries(&*bulk);
    ASSERT_EQ(want.size(), bulk->num_entries());

    Corpus prefix;
    const size_t third = xml.size() / 3;
    AddAll(&prefix, xml, third);
    options.path = dir_ + "/prefix.fix";
    auto grown = FixIndex::Build(&prefix, options, nullptr);
    ASSERT_TRUE(grown.ok()) << grown.status();
    for (size_t d = third; d < xml.size(); ++d) {
      auto id = prefix.AddXml(xml[d]);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(grown->InsertDocument(*id, nullptr).ok());
    }
    if (c.value_beta > 0) {
      options.path = dir_ + "/rebuilt.fix";
      auto rebuilt = FixIndex::Build(&prefix, options, nullptr);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(Entries(&*grown), Entries(&*rebuilt));
      continue;
    }
    EXPECT_EQ(Entries(&*grown), want);
    auto bulk_meta = ReadFile(dir_ + "/bulk.fix.meta");
    auto grown_meta = ReadFile(dir_ + "/prefix.fix.meta");
    ASSERT_TRUE(bulk_meta.ok() && grown_meta.ok());
    auto bulk_decoded = DecodeIndexMeta(*bulk_meta);
    auto grown_decoded = DecodeIndexMeta(*grown_meta);
    ASSERT_TRUE(bulk_decoded.ok() && grown_decoded.ok());
    EXPECT_EQ(grown_decoded->edge_weights, bulk_decoded->edge_weights);
  }
}

}  // namespace
}  // namespace fix
