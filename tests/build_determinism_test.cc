// Build determinism: an index's bytes are a function of the corpus and
// the options that are persisted, never of the feature cache (on, off, or
// its budget) or of the run. Builds run on one thread, so the cache's hit,
// miss and eviction counters repeat exactly too. Also checks the
// bulk-loaded tree passes the structural audit and that the cache hits on
// repetitive data.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/persist.h"
#include "datagen/datasets.h"
#include "query/xpath_parser.h"

namespace fix {
namespace {

class BuildDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_determinism_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A corpus with heavy structural repetition (many near-identical small
  /// documents) plus one structure-rich document.
  static void FillCorpus(Corpus* corpus) {
    GenerateTcmd(corpus, TcmdOptions{.seed = 11, .num_docs = 60});
    GenerateXMark(corpus, XMarkOptions{.seed = 12,
                                       .num_items = 40,
                                       .num_people = 40,
                                       .num_open_auctions = 30,
                                       .num_closed_auctions = 20,
                                       .num_categories = 10});
  }

  std::string ReadAll(const std::string& path) {
    auto data = ReadFile(path);
    EXPECT_TRUE(data.ok()) << path << ": " << data.status();
    return data.ok() ? *data : std::string();
  }

  /// Builds one index and returns (stats, concatenated file bytes).
  std::pair<BuildStats, std::string> BuildOnce(Corpus* corpus,
                                               const std::string& tag,
                                               IndexOptions options) {
    options.path = dir_ + "/" + tag + ".fix";
    BuildStats stats;
    auto built = FixIndex::Build(corpus, options, &stats);
    EXPECT_TRUE(built.ok()) << built.status();
    if (built.ok()) {
      EXPECT_TRUE(built->Verify().ok());
    }
    std::string bytes = ReadAll(options.path) + ReadAll(options.path + ".meta");
    if (options.clustered) bytes += ReadAll(options.path + ".data");
    return {stats, std::move(bytes)};
  }

  std::string dir_;
};

TEST_F(BuildDeterminismTest, RepeatedBuildsIdenticalBytesAndCounters) {
  Corpus corpus;
  FillCorpus(&corpus);
  for (int depth_limit : {0, 4}) {
    SCOPED_TRACE(depth_limit);
    IndexOptions options;
    options.depth_limit = depth_limit;
    const std::string tag = "d" + std::to_string(depth_limit);
    auto [first, first_bytes] = BuildOnce(&corpus, tag + "_a", options);
    auto [second, second_bytes] = BuildOnce(&corpus, tag + "_b", options);
    ASSERT_EQ(first_bytes.size(), second_bytes.size());
    EXPECT_EQ(first_bytes, second_bytes);
    EXPECT_GT(first.entries, 0u);
    EXPECT_EQ(first.entries, second.entries);
    EXPECT_EQ(first.distinct_patterns, second.distinct_patterns);
    EXPECT_EQ(first.oversized_patterns, second.oversized_patterns);
    EXPECT_EQ(first.bisim_vertices, second.bisim_vertices);
    EXPECT_EQ(first.feature_cache_hits, second.feature_cache_hits);
    EXPECT_EQ(first.feature_cache_misses, second.feature_cache_misses);
    EXPECT_EQ(first.feature_cache_evictions, second.feature_cache_evictions);
    // One thread looks every pattern up once: no two lookups race to miss
    // on the same signature.
    EXPECT_EQ(first.feature_cache_hits + first.feature_cache_misses,
              first.distinct_patterns - first.oversized_patterns);
  }
}

TEST_F(BuildDeterminismTest, CacheOnOffByteIdentical) {
  Corpus corpus;
  FillCorpus(&corpus);
  IndexOptions cached;
  cached.depth_limit = 3;
  IndexOptions uncached = cached;
  uncached.feature_cache_mb = 0;
  auto [stats_on, bytes_on] = BuildOnce(&corpus, "cache_on", cached);
  auto [stats_off, bytes_off] = BuildOnce(&corpus, "cache_off", uncached);
  EXPECT_EQ(bytes_on, bytes_off);
  EXPECT_GT(stats_on.feature_cache_hits, 0u)
      << "repetitive corpus must produce cache hits";
  EXPECT_EQ(stats_off.feature_cache_hits, 0u);
  EXPECT_EQ(stats_off.feature_cache_misses, 0u);
  EXPECT_EQ(stats_on.feature_cache_hits + stats_on.feature_cache_misses,
            stats_on.distinct_patterns - stats_on.oversized_patterns);
}

TEST_F(BuildDeterminismTest, ClusteredBuildByteIdentical) {
  // The copy store is written in key order, so it repeats with the keys.
  Corpus corpus;
  GenerateTcmd(&corpus, TcmdOptions{.seed = 21, .num_docs = 50});
  IndexOptions options;
  options.depth_limit = 3;
  options.clustered = true;
  IndexOptions uncached = options;
  uncached.feature_cache_mb = 0;
  auto [stats1, bytes1] = BuildOnce(&corpus, "c1", options);
  auto [stats2, bytes2] = BuildOnce(&corpus, "c2", options);
  auto [stats3, bytes3] = BuildOnce(&corpus, "c3", uncached);
  EXPECT_EQ(bytes1, bytes2);
  EXPECT_EQ(bytes1, bytes3);
  EXPECT_GT(stats1.clustered_bytes, 0u);
}

TEST_F(BuildDeterminismTest, BuildsAnswerQueriesIdentically) {
  // End to end: indexes built with and without the feature cache return
  // the same result sets through the query processor's refinement.
  Corpus corpus;
  FillCorpus(&corpus);
  IndexOptions cached;
  cached.depth_limit = 4;
  IndexOptions uncached = cached;
  uncached.feature_cache_mb = 0;
  cached.path = dir_ + "/q_on.fix";
  uncached.path = dir_ + "/q_off.fix";
  auto on = FixIndex::Build(&corpus, cached, nullptr);
  auto off = FixIndex::Build(&corpus, uncached, nullptr);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  size_t total = 0;
  for (const char* xpath : {"/article/body/section", "//author/name",
                            "//item/name", "//parlist//listitem"}) {
    auto query = ParseXPath(xpath);
    ASSERT_TRUE(query.ok()) << xpath;
    query->ResolveLabels(corpus.labels());
    FixQueryProcessor p_on(&corpus, &*on);
    FixQueryProcessor p_off(&corpus, &*off);
    std::vector<NodeRef> r_on, r_off;
    auto s_on = p_on.Execute(*query, &r_on);
    auto s_off = p_off.Execute(*query, &r_off);
    ASSERT_TRUE(s_on.ok()) << xpath << ": " << s_on.status();
    ASSERT_TRUE(s_off.ok()) << xpath << ": " << s_off.status();
    total += r_on.size();
    ASSERT_EQ(r_on.size(), r_off.size()) << xpath;
    for (size_t i = 0; i < r_on.size(); ++i) {
      EXPECT_EQ(r_on[i].doc_id, r_off[i].doc_id) << xpath;
      EXPECT_EQ(r_on[i].node_id, r_off[i].node_id) << xpath;
    }
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace fix
