// Tests for FixIndex construction and lookup (Algorithms 1 and 2) on small
// hand-checkable corpora.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/corpus.h"
#include "core/feature.h"
#include "core/fix_index.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/compile.h"
#include "query/xpath_parser.h"
#include "spectral/edge_encoder.h"
#include "spectral/skew_matrix.h"
#include "spectral/spectrum.h"

namespace fix {
namespace {

class FixIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_index_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void AddXml(const std::string& xml) {
    auto id = corpus_.AddXml(xml);
    ASSERT_TRUE(id.ok()) << id.status();
  }

  TwigQuery Query(const std::string& text) {
    auto q = ParseXPath(text);
    EXPECT_TRUE(q.ok()) << q.status();
    TwigQuery query = std::move(q).value();
    query.ResolveLabels(corpus_.labels());
    return query;
  }

  IndexOptions Options(int depth_limit, bool clustered = false) {
    IndexOptions options;
    options.depth_limit = depth_limit;
    options.clustered = clustered;
    options.path = dir_ + "/test.fix";
    options.buffer_pool_pages = 64;
    return options;
  }

  std::string dir_;
  Corpus corpus_;
};

TEST_F(FixIndexTest, CollectionIndexOneEntryPerDocument) {
  AddXml("<a><b/></a>");
  AddXml("<a><c/></a>");
  AddXml("<x><y/></x>");
  BuildStats stats;
  auto index = FixIndex::Build(&corpus_, Options(0), &stats);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->num_entries(), 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.oversized_patterns, 0u);
  EXPECT_GT(stats.btree_bytes, 0u);
}

TEST_F(FixIndexTest, RootedLookupPrunesByLabelAndSpectrum) {
  AddXml("<a><b/><c/></a>");   // doc 0: matches /a[b]/c
  AddXml("<a><b/></a>");       // doc 1: has a,b but no c
  AddXml("<x><b/><c/></x>");   // doc 2: wrong root label
  auto index = FixIndex::Build(&corpus_, Options(0), nullptr);
  ASSERT_TRUE(index.ok());
  auto lookup = index->Lookup(Query("/a[b]/c"));
  ASSERT_TRUE(lookup.ok());
  ASSERT_TRUE(lookup->covered);
  // Doc 2 pruned by root label. Doc 1 pruned by eigenvalues (its pattern
  // a->b has a smaller spectral radius than the query pattern a->{b,c}).
  std::set<uint32_t> docs;
  for (const auto& c : lookup->candidates) docs.insert(c.key.ref.doc_id);
  EXPECT_TRUE(docs.count(0));
  EXPECT_FALSE(docs.count(2));
  EXPECT_FALSE(docs.count(1));
}

TEST_F(FixIndexTest, DescendantRootedLookupScansAllLabels) {
  AddXml("<r><a><b/></a></r>");
  AddXml("<s><a><b/></a></s>");
  AddXml("<t><c/></t>");
  auto index = FixIndex::Build(&corpus_, Options(0), nullptr);
  ASSERT_TRUE(index.ok());
  // //a/b matches below two differently-labelled roots: both documents
  // must be candidates (no false negatives).
  auto lookup = index->Lookup(Query("//a/b"));
  ASSERT_TRUE(lookup.ok());
  std::set<uint32_t> docs;
  for (const auto& c : lookup->candidates) docs.insert(c.key.ref.doc_id);
  EXPECT_TRUE(docs.count(0));
  EXPECT_TRUE(docs.count(1));
}

TEST_F(FixIndexTest, DepthLimitedOneEntryPerElement) {
  // Theorem 4: with a positive depth limit on a deeper document, exactly
  // one entry per element.
  AddXml("<a><b><c><d/></c></b><b><c/></b></a>");  // 6 elements, depth 4
  BuildStats stats;
  auto index = FixIndex::Build(&corpus_, Options(2), &stats);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->num_entries(), 6u);
}

TEST_F(FixIndexTest, DepthLimitedEnumeratesShallowDocsToo) {
  // Unlike Algorithm 1 as printed (see the deviation note in fix_index.cc),
  // a depth-limited index enumerates per element for every document, so
  // //-rooted queries can find matches inside shallow documents.
  AddXml("<a><b/></a>");                            // depth 2 <= limit
  AddXml("<a><b><c><d><e/></d></c></b></a>");       // depth 5 > limit
  auto index = FixIndex::Build(&corpus_, Options(3), nullptr);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_entries(), 7u);  // 2 + 5 elements
  // The shallow document's b is reachable through the probe.
  auto lookup = index->Lookup(Query("//b"));
  ASSERT_TRUE(lookup.ok());
  std::set<uint32_t> docs;
  for (const auto& c : lookup->candidates) docs.insert(c.key.ref.doc_id);
  EXPECT_TRUE(docs.count(0));
  EXPECT_TRUE(docs.count(1));
}

TEST_F(FixIndexTest, DepthLimitedCoverageCheck) {
  AddXml("<a><b><c><d/></c></b></a>");
  auto index = FixIndex::Build(&corpus_, Options(2), nullptr);
  ASSERT_TRUE(index.ok());
  auto covered = index->Lookup(Query("//b/c"));
  ASSERT_TRUE(covered.ok());
  EXPECT_TRUE(covered->covered);
  auto too_deep = index->Lookup(Query("//b/c/d"));
  ASSERT_TRUE(too_deep.ok());
  EXPECT_FALSE(too_deep->covered);
}

TEST_F(FixIndexTest, DepthLimitedCandidatesAreElements) {
  AddXml("<r><s><n/></s><s><m/></s><s><n/></s><t><n/></t></r>");
  auto index = FixIndex::Build(&corpus_, Options(2), nullptr);
  ASSERT_TRUE(index.ok());
  auto lookup = index->Lookup(Query("//s/n"));
  ASSERT_TRUE(lookup.ok());
  // Every candidate must carry the root-step label (t/n/m/r entries are
  // pruned by label). The two s[n] elements are guaranteed candidates (no
  // false negatives); s[m] may survive as a spectral false positive when
  // its edge weight exceeds the query's — refinement rejects it later.
  const Document& doc = corpus_.doc(0);
  size_t s_candidates = 0;
  for (const auto& c : lookup->candidates) {
    EXPECT_EQ(corpus_.labels()->Name(doc.label(c.key.ref.node_id)), "s");
    ++s_candidates;
  }
  EXPECT_GE(s_candidates, 2u);
  EXPECT_LE(s_candidates, 3u);
}

TEST_F(FixIndexTest, ClusteredIndexStoresSubtreeCopies) {
  AddXml("<a><b/><c/></a>");
  AddXml("<a><b/></a>");
  BuildStats stats;
  auto index = FixIndex::Build(&corpus_, Options(0, /*clustered=*/true),
                               &stats);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_GT(stats.clustered_bytes, 0u);
  auto lookup = index->Lookup(Query("/a[b]/c"));
  ASSERT_TRUE(lookup.ok());
  ASSERT_EQ(lookup->candidates.size(), 1u);
  // The clustered record must decode back to the matching document.
  auto record = index->clustered_store()->Read(
      RecordId{lookup->candidates[0].clustered_offset});
  ASSERT_TRUE(record.ok());
  EXPECT_FALSE(record->empty());
}

TEST_F(FixIndexTest, OversizedPatternsAlwaysCandidates) {
  AddXml("<a><b/><c/><d/><e/><f/><g/></a>");
  IndexOptions options = Options(0);
  options.max_pattern_vertices = 3;  // force the oversized path
  BuildStats stats;
  auto index = FixIndex::Build(&corpus_, options, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(stats.oversized_patterns, 1u);
  // Any probe with the right root label must return it as candidate.
  auto lookup = index->Lookup(Query("/a[b][c][d][e][f]/g"));
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->candidates.size(), 1u);
}

TEST_F(FixIndexTest, ValueIndexNeverLosesMatches) {
  AddXml("<p><pub>Springer</pub><t/></p>");
  AddXml("<p><pub>ACM</pub><t/></p>");
  AddXml("<p><t/></p>");  // no pub at all
  IndexOptions options = Options(0);
  options.value_beta = 64;
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  auto lookup = index->Lookup(Query("/p[pub=\"Springer\"]/t"));
  ASSERT_TRUE(lookup.ok());
  // Doc 0 must be a candidate (no false negative). Doc 1 may survive as a
  // spectral false positive (value buckets only shift edge weights), but
  // doc 2 — structurally missing pub — must be pruned: its pattern lacks
  // the pub edge entirely and its spectral radius is strictly smaller.
  std::set<uint32_t> docs;
  for (const auto& c : lookup->candidates) docs.insert(c.key.ref.doc_id);
  EXPECT_TRUE(docs.count(0));
  EXPECT_FALSE(docs.count(2));
}

TEST_F(FixIndexTest, Lambda2TightensPruning) {
  // Two documents with equal spectral radius but different second
  // eigenvalue would be distinguished only with use_lambda2. At minimum the
  // flag must not introduce false negatives.
  AddXml("<a><b/><b/><c><d/></c></a>");
  AddXml("<a><c><d/></c></a>");
  IndexOptions options = Options(0);
  options.use_lambda2 = true;
  auto index = FixIndex::Build(&corpus_, options, nullptr);
  ASSERT_TRUE(index.ok());
  auto lookup = index->Lookup(Query("/a/c/d"));
  ASSERT_TRUE(lookup.ok());
  std::set<uint32_t> docs;
  for (const auto& c : lookup->candidates) docs.insert(c.key.ref.doc_id);
  EXPECT_TRUE(docs.count(0));
  EXPECT_TRUE(docs.count(1));
}

TEST_F(FixIndexTest, QueryFeaturesSymmetricRange) {
  AddXml("<a><b/></a>");
  auto index = FixIndex::Build(&corpus_, Options(0), nullptr);
  ASSERT_TRUE(index.ok());
  auto key = index->QueryFeatures(Query("//a[b]"));
  ASSERT_TRUE(key.ok());
  EXPECT_GT(key->lambda_max, 0.0);
  // The key keeps λ_max only. The pair of the same pattern's matrix shows
  // why that loses nothing: anti-symmetric matrices have λ_min = -λ_max.
  auto pattern = QueryToBisimGraph(Query("//a[b]"), nullptr);
  ASSERT_TRUE(pattern.ok());
  EdgeEncoder encoder;  // interns (a, b) first, as the index did
  auto pair = SkewEigPair(BuildSkewMatrix(*pattern, &encoder));
  ASSERT_TRUE(pair.ok());
  EXPECT_DOUBLE_EQ(pair->lambda_min, -pair->lambda_max);
  EXPECT_DOUBLE_EQ(pair->lambda_max, key->lambda_max);
}

TEST_F(FixIndexTest, EntryIsKeyPlusClusteredOffset) {
  AddXml("<a><b/><c/></a>");
  auto plain = FixIndex::Build(&corpus_, Options(2), nullptr);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->btree()->key_size(), 28u);
  EXPECT_EQ(plain->btree()->value_size(), 0u);
  IndexOptions clustered_options = Options(0, /*clustered=*/true);
  clustered_options.path = dir_ + "/clustered.fix";
  auto clustered = FixIndex::Build(&corpus_, clustered_options, nullptr);
  ASSERT_TRUE(clustered.ok()) << clustered.status();
  EXPECT_EQ(clustered->btree()->key_size(), 28u);
  EXPECT_EQ(clustered->btree()->value_size(), 8u);
  // The key names the element: doc 0's three elements, in key order.
  std::set<NodeId> nodes;
  auto it = plain->btree()->SeekFirst();
  ASSERT_TRUE(it.ok());
  while (it->Valid()) {
    const FeatureKey key = DecodeFeatureKey(it->key());
    EXPECT_EQ(key.ref.doc_id, 0u);
    nodes.insert(key.ref.node_id);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(nodes.size(), 3u);
}

// Every indexed entry, in tree order: its key decoded and as stored, and
// its clustered offset.
struct IndexedEntry {
  FeatureKey key;
  std::string encoded;
  uint64_t clustered_offset = 0;
};

std::vector<IndexedEntry> ScanAll(FixIndex* index) {
  std::vector<IndexedEntry> rows;
  auto it = index->btree()->SeekFirst();
  EXPECT_TRUE(it.ok());
  if (!it.ok()) return rows;
  while (it->Valid()) {
    rows.push_back({DecodeFeatureKey(it->key()), std::string(it->key()),
                    DecodeIndexValue(it->value())});
    EXPECT_TRUE(it->Next().ok());
  }
  return rows;
}

// The containment filter of Algorithm 2, applied row by row: the entries a
// probe with features `probe` must return, in tree order. The paper's
// λ_min bound is the λ_max bound negated (λ_min = -λ_max on both sides),
// so λ_max carries the whole containment test.
std::vector<const IndexedEntry*> BruteForceProbe(
    const std::vector<IndexedEntry>& rows, const FeatureKey& probe,
    double eps, bool filter_l2, bool use_root_label) {
  const uint64_t min_lmax = OrderPreservingDouble(probe.lambda_max - eps);
  const uint64_t min_l2 = OrderPreservingDouble(probe.lambda2 - eps);
  std::vector<const IndexedEntry*> out;
  for (const IndexedEntry& row : rows) {
    if (use_root_label && row.key.root_label != probe.root_label) continue;
    if (OrderPreservingDouble(row.key.lambda_max) < min_lmax) continue;
    if (filter_l2 && OrderPreservingDouble(row.key.lambda2) < min_l2) {
      continue;
    }
    out.push_back(&row);
  }
  return out;
}

// Byte-exact fingerprint of one candidate: encoded key (which carries the
// node ref) and clustered offset.
std::string Fingerprint(const FeatureKey& key, uint64_t clustered_offset) {
  std::string out = EncodeFeatureKey(key);
  char buf[8];
  std::memcpy(buf, &clustered_offset, 8);
  out.append(buf, sizeof(buf));
  return out;
}

// The B+-tree probe against a brute-force containment filter over every
// indexed key, on random probes with λ₂ filtering on, under both
// sound_probe settings and both root-label modes. With ε = 0 the filter
// bounds sit exactly on the eigenvalues of entries whose pattern equals
// the query's, so an inclusivity bug (> where >= belongs) loses those
// boundary entries.
TEST_F(FixIndexTest, ExactBoundaryMatchesBruteForce) {
  XMarkOptions gen;
  gen.num_items = 24;
  gen.num_people = 24;
  gen.num_open_auctions = 24;
  gen.num_closed_auctions = 24;
  gen.num_categories = 12;
  GenerateXMark(&corpus_, gen);
  QueryGenOptions qopts;
  qopts.seed = 4244;
  qopts.max_depth = 4;
  auto queries = GenerateRandomQueries(corpus_, 120, qopts);
  ASSERT_FALSE(queries.empty());

  for (bool sound : {false, true}) {
    for (double eps : {0.0, 1e-6}) {
      SCOPED_TRACE(std::string(sound ? "sound" : "paper") +
                   " eps=" + std::to_string(eps));
      IndexOptions options = Options(4);
      options.use_lambda2 = true;
      options.sound_probe = sound;
      options.epsilon = eps;
      auto index = FixIndex::Build(&corpus_, options, nullptr);
      ASSERT_TRUE(index.ok()) << index.status();
      const std::vector<IndexedEntry> rows = ScanAll(&*index);
      ASSERT_GT(rows.size(), 100u);

      uint64_t on_boundary = 0;
      for (const TwigQuery& q : queries) {
        const TwigQuery part = DecomposeAtDescendantEdges(q)[0];
        auto probe = index->QueryFeatures(part);
        ASSERT_TRUE(probe.ok());
        const uint64_t min_lmax =
            OrderPreservingDouble(probe->lambda_max - eps);
        for (bool use_root_label : {true, false}) {
          std::vector<std::string> want;
          for (const IndexedEntry* row :
               BruteForceProbe(rows, *probe, eps, !sound, use_root_label)) {
            want.push_back(row->encoded);
            on_boundary +=
                OrderPreservingDouble(row->key.lambda_max) == min_lmax;
          }
          auto got = index->Probe(part, use_root_label);
          ASSERT_TRUE(got.ok());
          std::vector<std::string> got_keys;
          for (const FixIndex::Candidate& c : got->candidates) {
            got_keys.push_back(EncodeFeatureKey(c.key));
          }
          EXPECT_EQ(got_keys, want)
              << "root_label=" << use_root_label << " query=" << q.ToString();
        }
      }
      // The property is vacuous unless some entries sat on the bound.
      if (eps == 0.0) {
        EXPECT_GT(on_boundary, 0u);
      }
    }
  }
}

// Seeded random twig probes over every dataset generator, under both
// sound_probe settings and both root-label modes: the candidates the
// B+-tree probe returns are byte-identical — same keys, same node refs,
// same order — to the brute-force filter over the scanned tree.
TEST_F(FixIndexTest, RandomProbesMatchBruteForce) {
  enum class Gen { kTcmd, kDblp, kXMark, kTreebank };
  for (Gen g : {Gen::kTcmd, Gen::kDblp, Gen::kXMark, Gen::kTreebank}) {
    Corpus corpus;
    switch (g) {
      case Gen::kTcmd: {
        TcmdOptions o;
        o.num_docs = 60;
        GenerateTcmd(&corpus, o);
        break;
      }
      case Gen::kDblp: {
        DblpOptions o;
        o.num_publications = 120;
        GenerateDblp(&corpus, o);
        break;
      }
      case Gen::kXMark: {
        XMarkOptions o;
        o.num_items = 24;
        o.num_people = 24;
        o.num_open_auctions = 24;
        o.num_closed_auctions = 24;
        o.num_categories = 12;
        GenerateXMark(&corpus, o);
        break;
      }
      case Gen::kTreebank: {
        TreebankOptions o;
        o.num_sentences = 60;
        GenerateTreebank(&corpus, o);
        break;
      }
    }
    const int depth_limit = g == Gen::kTcmd ? 0 : 4;
    QueryGenOptions qopts;
    qopts.seed = 4242 + static_cast<uint64_t>(g);
    qopts.max_depth = depth_limit > 0 ? depth_limit : 5;
    qopts.rooted = g == Gen::kTcmd;
    auto queries = GenerateRandomQueries(corpus, 120, qopts);
    ASSERT_FALSE(queries.empty());

    for (bool sound : {false, true}) {
      SCOPED_TRACE("gen=" + std::to_string(static_cast<int>(g)) +
                   (sound ? " sound" : " paper"));
      IndexOptions options = Options(depth_limit);
      options.use_lambda2 = true;
      options.sound_probe = sound;
      options.path = dir_ + "/random_" + std::to_string(static_cast<int>(g)) +
                     (sound ? "_sound.fix" : "_paper.fix");
      auto index = FixIndex::Build(&corpus, options, nullptr);
      ASSERT_TRUE(index.ok()) << index.status();
      const std::vector<IndexedEntry> rows = ScanAll(&*index);
      ASSERT_FALSE(rows.empty());

      uint64_t nonempty = 0;
      for (const TwigQuery& q : queries) {
        const TwigQuery part = DecomposeAtDescendantEdges(q)[0];
        auto probe = index->QueryFeatures(part);
        ASSERT_TRUE(probe.ok());
        for (bool use_root_label : {true, false}) {
          std::string want;
          for (const IndexedEntry* row :
               BruteForceProbe(rows, *probe, options.epsilon, !sound,
                               use_root_label)) {
            want += Fingerprint(row->key, row->clustered_offset);
          }
          auto got = index->Probe(part, use_root_label);
          ASSERT_TRUE(got.ok());
          std::string got_bytes;
          for (const FixIndex::Candidate& c : got->candidates) {
            got_bytes += Fingerprint(c.key, c.clustered_offset);
          }
          ASSERT_EQ(got_bytes, want)
              << "root_label=" << use_root_label << " query=" << q.ToString();
          if (use_root_label) nonempty += !got->candidates.empty();
        }
      }
      // The property is vacuous if every probe came back empty.
      EXPECT_GT(nonempty, 0u);
    }
  }
}

TEST_F(FixIndexTest, BuildRequiresPath) {
  AddXml("<a/>");
  IndexOptions options;
  EXPECT_FALSE(FixIndex::Build(&corpus_, options, nullptr).ok());
}

}  // namespace
}  // namespace fix
