// FeatureCache tests: signature canonicality, hit/miss/eviction accounting,
// and bitwise equality of cached vs recomputed features over random
// patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "spectral/edge_encoder.h"
#include "spectral/feature_cache.h"
#include "spectral/skew_matrix.h"
#include "spectral/spectrum.h"

namespace fix {
namespace {

/// Random rooted DAG in bottom-up vertex order: vertex i may point at any
/// subset of [0, i), children sorted and deduplicated — the same shape
/// invariants BisimBuilder guarantees.
BisimGraph RandomPattern(Rng* rng, size_t max_vertices, uint32_t num_labels) {
  const size_t n = 1 + rng->Uniform(max_vertices);
  BisimGraph g;
  for (size_t i = 0; i < n; ++i) {
    BisimVertex v;
    v.label = static_cast<LabelId>(rng->Uniform(num_labels));
    if (i > 0) {
      const size_t fanout = rng->Uniform(3) + (i == n - 1 ? 1 : 0);
      for (size_t c = 0; c < fanout; ++c) {
        v.children.push_back(static_cast<BisimVertexId>(rng->Uniform(i)));
      }
      std::sort(v.children.begin(), v.children.end());
      v.children.erase(std::unique(v.children.begin(), v.children.end()),
                       v.children.end());
      int depth = 1;
      for (BisimVertexId c : v.children) {
        depth = std::max(depth, g.vertex(c).depth + 1);
      }
      v.depth = depth;
    }
    g.AddVertex(std::move(v));
  }
  g.set_root(static_cast<BisimVertexId>(n - 1));
  return g;
}

bool BitwiseEqual(const EigPair& a, const EigPair& b) {
  return std::memcmp(&a.lambda_max, &b.lambda_max, sizeof(double)) == 0 &&
         std::memcmp(&a.lambda_min, &b.lambda_min, sizeof(double)) == 0 &&
         std::memcmp(&a.lambda2, &b.lambda2, sizeof(double)) == 0;
}

TEST(CanonicalSignatureTest, IdenticalGraphsShareSignature) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    Rng a(1000 + i), b(1000 + i);
    BisimGraph g1 = RandomPattern(&a, 20, 5);
    BisimGraph g2 = RandomPattern(&b, 20, 5);
    EXPECT_EQ(CanonicalPatternSignature(g1), CanonicalPatternSignature(g2));
  }
}

BisimVertex MakeVertex(LabelId label, std::vector<BisimVertexId> children,
                       int depth) {
  BisimVertex v;
  v.label = label;
  v.children = std::move(children);
  v.depth = depth;
  return v;
}

TEST(CanonicalSignatureTest, DistinguishesLabelAndShape) {
  BisimGraph leaf_a;
  leaf_a.set_root(leaf_a.AddVertex(MakeVertex(1, {}, 1)));
  BisimGraph leaf_b;
  leaf_b.set_root(leaf_b.AddVertex(MakeVertex(2, {}, 1)));
  EXPECT_NE(CanonicalPatternSignature(leaf_a),
            CanonicalPatternSignature(leaf_b));

  // a(b) vs a(b, c): an extra distinct child must show up.
  BisimGraph one_child;
  {
    BisimVertexId c = one_child.AddVertex(MakeVertex(2, {}, 1));
    one_child.set_root(one_child.AddVertex(MakeVertex(1, {c}, 2)));
  }
  BisimGraph two_children;
  {
    BisimVertexId c1 = two_children.AddVertex(MakeVertex(2, {}, 1));
    BisimVertexId c2 = two_children.AddVertex(MakeVertex(3, {}, 1));
    two_children.set_root(two_children.AddVertex(MakeVertex(1, {c1, c2}, 2)));
  }
  EXPECT_NE(CanonicalPatternSignature(one_child),
            CanonicalPatternSignature(two_children));
}

TEST(FeatureCacheTest, LookupMissThenHit) {
  FeatureCache cache(1 << 20);
  CachedFeature out;
  EXPECT_FALSE(cache.Lookup("sig", &out));
  CachedFeature in;
  in.eigs = {1.5, -1.5, 0.5};
  in.solver_failed = false;
  cache.Insert("sig", in);
  ASSERT_TRUE(cache.Lookup("sig", &out));
  EXPECT_TRUE(BitwiseEqual(out.eigs, in.eigs));
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(FeatureCacheTest, SolverFailureBitRoundTrips) {
  FeatureCache cache(1 << 20);
  CachedFeature in;
  in.solver_failed = true;
  cache.Insert("bad", in);
  CachedFeature out;
  ASSERT_TRUE(cache.Lookup("bad", &out));
  EXPECT_TRUE(out.solver_failed);
}

TEST(FeatureCacheTest, EvictsUnderBudget) {
  // Tiny budget: inserting many entries must evict rather than grow.
  FeatureCache cache(16 * 1024);
  CachedFeature in;
  for (int i = 0; i < 4000; ++i) {
    cache.Insert("key-" + std::to_string(i), in);
  }
  FeatureCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  // One FIFO under one budget: exactly the newest entries survive, and
  // every other one was evicted.
  uint64_t survivors = 0;
  for (int i = 0; i < 4000; ++i) {
    CachedFeature out;
    if (cache.Lookup("key-" + std::to_string(i), &out)) {
      ++survivors;
    } else {
      EXPECT_EQ(survivors, 0u) << "key-" << i << " evicted after a newer one";
    }
  }
  EXPECT_GT(survivors, 0u);
  EXPECT_LT(survivors, 4000u);
  EXPECT_EQ(survivors + stats.evictions, 4000u);
}

TEST(FeatureCacheTest, OversizedEntryIsSkippedNotCached) {
  FeatureCache cache(64);  // below the cost of any one entry
  CachedFeature in;
  cache.Insert(std::string(4096, 'k'), in);
  CachedFeature out;
  EXPECT_FALSE(cache.Lookup(std::string(4096, 'k'), &out));
}

TEST(FeatureCacheTest, CachedMatchesRecomputedOver1kRandomPatterns) {
  // ~300 distinct shapes sampled 1000 times with repetition: every hit must
  // return bit-for-bit what a fresh solve against the same frozen encoder
  // produces — the property BuildPipeline's determinism rests on.
  Rng rng(42);
  std::vector<BisimGraph> shapes;
  shapes.reserve(300);
  for (int i = 0; i < 300; ++i) {
    Rng shape_rng(5000 + rng.Uniform(120));  // duplicates by construction
    shapes.push_back(RandomPattern(&shape_rng, 12, 4));
  }
  // Freeze the encoder over every shape up front (phase B of the pipeline).
  EdgeEncoder encoder;
  for (const BisimGraph& g : shapes) InternPatternWeights(g, &encoder);

  FeatureCache cache(8 << 20);
  uint64_t hits_checked = 0;
  for (int probe = 0; probe < 1000; ++probe) {
    const BisimGraph& g = shapes[rng.Uniform(shapes.size())];
    DenseMatrix m = BuildSkewMatrixFrozen(g, encoder);
    auto fresh = SkewSpectrum(m);
    ASSERT_TRUE(fresh.ok());
    EigPair want = EigPairFromSpectrum(*fresh);

    std::string sig = CanonicalPatternSignature(g);
    CachedFeature cached;
    if (cache.Lookup(sig, &cached)) {
      EXPECT_TRUE(BitwiseEqual(cached.eigs, want))
          << "cache hit diverged from recomputation at probe " << probe;
      ++hits_checked;
    } else {
      CachedFeature store;
      store.eigs = want;
      cache.Insert(sig, store);
    }
  }
  EXPECT_GT(hits_checked, 500u);  // repetition guarantees plenty of hits
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, hits_checked);
  EXPECT_EQ(stats.hits + stats.misses, 1000u);
}

}  // namespace
}  // namespace fix
