// Tests for the feature-key codec: the memcmp order of the 28-byte encoded
// key must equal the semantic (label, λ_max, λ₂, doc, node) order — the
// whole range-scan design rests on this — plus round trips including
// infinities (the oversized-pattern sentinel) and the index-value codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/feature.h"

namespace fix {
namespace {

FeatureKey Make(LabelId label, double lmax, double l2, NodeRef ref) {
  FeatureKey k;
  k.root_label = label;
  k.lambda_max = lmax;
  k.lambda2 = l2;
  k.ref = ref;
  return k;
}

TEST(FeatureKeyTest, RoundTrip) {
  FeatureKey k = Make(42, 3.14159, 1.25, {7, 0x01020304});
  const std::string encoded = EncodeFeatureKey(k);
  EXPECT_EQ(encoded.size(), 28u);
  EXPECT_EQ(kFeatureKeySize, 28u);
  FeatureKey d = DecodeFeatureKey(encoded);
  EXPECT_EQ(d.root_label, 42u);
  EXPECT_DOUBLE_EQ(d.lambda_max, 3.14159);
  EXPECT_DOUBLE_EQ(d.lambda2, 1.25);
  EXPECT_EQ(d.ref.doc_id, 7u);
  EXPECT_EQ(d.ref.node_id, 0x01020304u);
  EXPECT_EQ(EncodeFeatureKey(d), encoded);
}

TEST(FeatureKeyTest, OversizedSentinelRoundTrip) {
  FeatureKey k = FeatureKey::Oversized(9);
  k.ref = {3, 4};
  FeatureKey d = DecodeFeatureKey(EncodeFeatureKey(k));
  EXPECT_EQ(d.root_label, 9u);
  EXPECT_EQ(d.lambda_max, std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.lambda2, std::numeric_limits<double>::infinity());
  // The sentinel sorts after every finite key of the same label — it must
  // survive any λ_max >= x seek — and before every key of the next label.
  for (const FeatureKey& finite :
       {Make(9, 1e300, 1e300, {UINT32_MAX, UINT32_MAX}),
        Make(9, std::numeric_limits<double>::max(),
             std::numeric_limits<double>::infinity(), {UINT32_MAX, 0})}) {
    EXPECT_GT(EncodeFeatureKey(k), EncodeFeatureKey(finite));
  }
  EXPECT_LT(EncodeFeatureKey(k), EncodeFeatureKey(Make(10, 0, 0, {0, 0})));
}

TEST(FeatureKeyTest, EncodedOrderEqualsSemanticOrder) {
  Rng rng(4242);
  // Few distinct values per field, so pairs often tie on the leading
  // fields and the order falls through to the trailing ones.
  auto pick = [&rng](uint64_t n) { return rng.Uniform(n); };
  std::vector<FeatureKey> keys;
  for (int i = 0; i < 4000; ++i) {
    keys.push_back(Make(static_cast<LabelId>(pick(3)),
                        static_cast<double>(pick(4)) * 1.5,
                        static_cast<double>(pick(3)) * 0.25,
                        {static_cast<uint32_t>(pick(3) * 300),
                         static_cast<uint32_t>(pick(4) * 70000)}));
  }
  auto semantic_less = [](const FeatureKey& a, const FeatureKey& b) {
    if (a.root_label != b.root_label) return a.root_label < b.root_label;
    if (a.lambda_max != b.lambda_max) return a.lambda_max < b.lambda_max;
    if (a.lambda2 != b.lambda2) return a.lambda2 < b.lambda2;
    if (a.ref.doc_id != b.ref.doc_id) return a.ref.doc_id < b.ref.doc_id;
    return a.ref.node_id < b.ref.node_id;
  };
  uint64_t ties_past_lambda = 0;
  for (size_t i = 0; i + 1 < keys.size(); i += 2) {
    const FeatureKey& a = keys[i];
    const FeatureKey& b = keys[i + 1];
    EXPECT_EQ(semantic_less(a, b), EncodeFeatureKey(a) < EncodeFeatureKey(b));
    EXPECT_EQ(semantic_less(b, a), EncodeFeatureKey(b) < EncodeFeatureKey(a));
    ties_past_lambda += a.root_label == b.root_label &&
                        a.lambda_max == b.lambda_max && a.lambda2 == b.lambda2;
  }
  EXPECT_GT(ties_past_lambda, 50u);  // the (doc, node) suffix was exercised
}

TEST(FeatureKeyTest, LabelIsThePrimaryDimension) {
  // A huge lambda under a small label still sorts before a tiny lambda
  // under a bigger label.
  FeatureKey small_label = Make(1, 1e12, 1e12, {9, 9});
  FeatureKey big_label = Make(2, 1e-12, 0, {0, 0});
  EXPECT_LT(EncodeFeatureKey(small_label), EncodeFeatureKey(big_label));
}

TEST(FeatureKeyTest, NodeRefDisambiguatesEqualFeatures) {
  // Theorem 4: one entry per element, so (doc, node) makes keys unique.
  FeatureKey a = Make(3, 2.5, 1.0, {10, 200});
  FeatureKey b = Make(3, 2.5, 1.0, {10, 201});
  FeatureKey c = Make(3, 2.5, 1.0, {11, 0});
  std::string ea = EncodeFeatureKey(a), eb = EncodeFeatureKey(b),
              ec = EncodeFeatureKey(c);
  EXPECT_LT(ea, eb);
  EXPECT_LT(eb, ec);
}

TEST(IndexValueTest, RoundTripBothVariants) {
  // Unclustered entries carry no value at all.
  EXPECT_EQ(IndexValueSize(/*clustered=*/false), 0u);
  const std::string none = EncodeIndexValue(/*clustered=*/false, 0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(DecodeIndexValue(none), 0u);

  const uint64_t offset = (1ULL << 45) + 17;
  const std::string clustered = EncodeIndexValue(/*clustered=*/true, offset);
  EXPECT_EQ(clustered.size(), IndexValueSize(/*clustered=*/true));
  EXPECT_EQ(clustered.size(), 8u);
  EXPECT_EQ(DecodeIndexValue(clustered), offset);
}

}  // namespace
}  // namespace fix
