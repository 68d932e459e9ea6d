// Cross-module property tests, parameterized over data sets and index
// configurations. These are the load-bearing invariants of the paper:
//
//  P1 (no false negatives / Theorems 3+5): every index entry that produces
//     a result survives the index probe, for random data-sampled queries.
//  P2 (exactness after refinement): FIX results == full-scan results.
//  P3 (Theorem 4): depth-limited indexing creates exactly one entry per
//     element of documents deeper than the limit.
//  P4 (spectral symmetry): every indexed pattern has λ_min = -λ_max, which
//     is why the key stores λ_max alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "baseline/full_scan.h"
#include "core/corpus.h"
#include "core/feature.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/metrics.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "graph/bisim_builder.h"
#include "graph/bisim_traveler.h"
#include "spectral/edge_encoder.h"
#include "spectral/feature_cache.h"
#include "spectral/skew_matrix.h"
#include "spectral/spectrum.h"
#include "spectral/sym_eigen.h"
#include "xml/sax.h"

namespace fix {
namespace {

enum class DataSet { kTcmd, kDblp, kXMark, kTreebank };

struct Config {
  DataSet data;
  int depth_limit;
  bool clustered;
  bool use_lambda2;
  bool sound_probe;
  const char* name;
};

void Generate(DataSet data, Corpus* corpus) {
  switch (data) {
    case DataSet::kTcmd: {
      TcmdOptions o;
      o.num_docs = 60;
      GenerateTcmd(corpus, o);
      break;
    }
    case DataSet::kDblp: {
      DblpOptions o;
      o.num_publications = 350;
      GenerateDblp(corpus, o);
      break;
    }
    case DataSet::kXMark: {
      XMarkOptions o;
      o.num_items = 24;
      o.num_people = 24;
      o.num_open_auctions = 24;
      o.num_closed_auctions = 24;
      o.num_categories = 12;
      GenerateXMark(corpus, o);
      break;
    }
    case DataSet::kTreebank: {
      TreebankOptions o;
      o.num_sentences = 80;
      GenerateTreebank(corpus, o);
      break;
    }
  }
}

class PropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    // Include the test-case name: ctest runs the cases of one dataset as
    // separate parallel processes, and a shared directory would let one
    // case's TearDown delete another's live index files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string case_name = info->name();  // "TestName/param" for TEST_P
    std::replace(case_name.begin(), case_name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "/fix_prop_" + case_name;
    std::filesystem::create_directories(dir_);
    Generate(GetParam().data, &corpus_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  Corpus corpus_;
};

TEST_P(PropertyTest, NoFalseNegativesAndExactResults) {
  const Config& config = GetParam();
  IndexOptions options;
  options.depth_limit = config.depth_limit;
  options.clustered = config.clustered;
  options.use_lambda2 = config.use_lambda2;
  options.sound_probe = config.sound_probe;
  options.path = dir_ + "/prop.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok()) << index.status();

  QueryGenOptions qopts;
  qopts.seed = 1234;
  qopts.max_depth =
      config.depth_limit > 0 ? config.depth_limit : 4;
  auto queries = GenerateRandomQueries(corpus_, 30, qopts);
  ASSERT_GT(queries.size(), 5u);

  FixQueryProcessor processor(&corpus_, &*index);
  for (const auto& q : queries) {
    std::vector<NodeRef> via_index;
    auto stats = processor.Execute(q, &via_index);
    ASSERT_TRUE(stats.ok()) << q.ToString();
    ASSERT_TRUE(stats->covered) << q.ToString();

    // P1: producing candidates == ground-truth producers. A missing
    // producer would be a false negative.
    GroundTruth gt = ComputeGroundTruth(corpus_, q, config.depth_limit);
    EXPECT_EQ(stats->producing, gt.producers) << q.ToString();
    EXPECT_EQ(stats->total_entries, gt.entries) << q.ToString();
    EXPECT_GE(stats->candidates, gt.producers) << q.ToString();
    if (!config.clustered) {
      // Clustered refinement counts per-candidate bindings (copies cannot
      // be deduplicated globally); only the unclustered count is exact.
      EXPECT_EQ(stats->result_count, gt.results) << q.ToString();
    }

    // P2: exact result set (unclustered refinement reports refs).
    if (!config.clustered) {
      std::vector<NodeRef> via_scan;
      FullScan(corpus_, q, &via_scan);
      std::set<std::pair<uint32_t, uint32_t>> a, b;
      for (auto r : via_index) a.insert({r.doc_id, r.node_id});
      for (auto r : via_scan) b.insert({r.doc_id, r.node_id});
      EXPECT_EQ(a, b) << q.ToString();
    }
  }
}

TEST_P(PropertyTest, EntryCountMatchesTheorem4) {
  const Config& config = GetParam();
  IndexOptions options;
  options.depth_limit = config.depth_limit;
  options.clustered = config.clustered;
  options.path = dir_ + "/count.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  uint64_t expected = 0;
  for (uint32_t d = 0; d < corpus_.num_docs(); ++d) {
    const Document& doc = corpus_.doc(d);
    if (doc.root_element() == kInvalidNode) continue;
    if (config.depth_limit == 0) {
      expected += 1;  // whole-document unit
    } else {
      expected += doc.CountElements();  // one per element (Theorem 4)
    }
  }
  EXPECT_EQ(index->num_entries(), expected);
}

TEST_P(PropertyTest, IndexedKeysAreSymmetricRanges) {
  const Config& config = GetParam();
  IndexOptions options;
  options.depth_limit = config.depth_limit;
  options.path = dir_ + "/sym.fix";
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  auto it = index->btree()->SeekFirst();
  ASSERT_TRUE(it.ok());
  std::map<uint32_t, std::vector<NodeId>> finite_by_doc;
  uint64_t checked = 0;
  while (it->Valid()) {
    FeatureKey k = DecodeFeatureKey(it->key());
    EXPECT_GE(k.lambda_max, 0.0);
    EXPECT_GE(k.lambda_max, k.lambda2);
    if (std::isfinite(k.lambda_max)) {
      finite_by_doc[k.ref.doc_id].push_back(k.ref.node_id);
    }
    ++checked;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(checked, index->num_entries());

  // The key keeps λ_max only. Recompute each distinct indexed pattern and
  // check the symmetry that makes λ_min redundant: on its SkewEigPair, and
  // on the signed spectrum of the Hermitian iM (via the real embedding
  // [[0, -M], [M, 0]]), which must read the same negated and reversed.
  EdgeEncoder encoder;
  std::set<std::string> seen;
  for (const auto& [doc_id, nodes] : finite_by_doc) {
    std::map<NodeId, BisimVertexId> vertex_of;
    DocumentEventStream stream(&corpus_.doc(doc_id), doc_id,
                               index->value_hasher());
    BisimBuilder builder;
    auto graph = builder.Build(
        &stream, [&](BisimGraph*, BisimVertexId v, NodeRef ref, bool) {
          vertex_of[ref.node_id] = v;
          return Status::OK();
        });
    ASSERT_TRUE(graph.ok());
    for (NodeId node : nodes) {
      std::optional<BisimGraph> limited;
      if (config.depth_limit > 0) {
        auto built = BuildDepthLimitedPattern(*graph, vertex_of.at(node),
                                              config.depth_limit);
        ASSERT_TRUE(built.ok());
        limited = std::move(built).value();
      }
      const BisimGraph& pattern = limited.has_value() ? *limited : *graph;
      if (!seen.insert(CanonicalPatternSignature(pattern)).second) continue;
      const DenseMatrix m = BuildSkewMatrix(pattern, &encoder);
      auto pair = SkewEigPair(m);
      ASSERT_TRUE(pair.ok());
      EXPECT_DOUBLE_EQ(pair->lambda_min, -pair->lambda_max);
      if (m.n() > 24) continue;  // the O((2n)^3) reference stays small
      const size_t n = m.n();
      DenseMatrix big(2 * n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          big.at(i, n + j) = -m.at(i, j);
          big.at(n + i, j) = m.at(i, j);
        }
      }
      auto signed_eigs = SymmetricEigenvalues(big);
      ASSERT_TRUE(signed_eigs.ok());
      std::vector<double> e = std::move(signed_eigs).value();
      std::sort(e.begin(), e.end());
      for (size_t i = 0; i < e.size(); ++i) {
        EXPECT_NEAR(e[i], -e[e.size() - 1 - i], 1e-8);
      }
      EXPECT_NEAR(e.back(), pair->lambda_max, 1e-8);
    }
  }
  EXPECT_FALSE(seen.empty());
}

// Paper-mode (sound_probe=false) configurations are deterministic (fixed
// seeds) and pass on these data/query mixes; xmark_l6 in paper mode is the
// documented counterexample (see soundness_test.cc) and therefore runs the
// provably sound probe here.
INSTANTIATE_TEST_SUITE_P(
    AllDataSets, PropertyTest,
    ::testing::Values(
        Config{DataSet::kTcmd, 0, false, false, false, "tcmd_l0"},
        Config{DataSet::kTcmd, 0, true, false, false, "tcmd_l0_clustered"},
        Config{DataSet::kTcmd, 0, false, true, false, "tcmd_l0_lambda2"},
        Config{DataSet::kTcmd, 0, false, false, true, "tcmd_l0_sound"},
        Config{DataSet::kDblp, 4, false, false, false, "dblp_l4"},
        Config{DataSet::kDblp, 4, true, false, false, "dblp_l4_clustered"},
        Config{DataSet::kDblp, 4, false, false, true, "dblp_l4_sound"},
        Config{DataSet::kXMark, 4, false, false, false, "xmark_l4"},
        Config{DataSet::kXMark, 4, false, true, false, "xmark_l4_lambda2"},
        Config{DataSet::kXMark, 6, false, false, true, "xmark_l6_sound"},
        Config{DataSet::kXMark, 6, true, false, true,
               "xmark_l6_sound_clustered"},
        Config{DataSet::kTreebank, 4, false, false, false, "treebank_l4"},
        Config{DataSet::kTreebank, 4, true, false, false,
               "treebank_l4_clustered"},
        Config{DataSet::kTreebank, 6, false, false, true,
               "treebank_l6_sound"}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fix
