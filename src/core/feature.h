// FeatureKey: the paper's index key — {root label, λ_max, λ_min}
// (Section 3.4) — stored as root label and λ_max, plus the optional λ₂
// extension feature and the indexed element's (doc, node) reference.
//
// Encoded layout (28 bytes, memcmp-ordered):
//   [root_label BE u32][ord(λ_max) BE u64][ord(λ₂) BE u64]
//   [doc BE u32][node BE u32]
// where ord() is the order-preserving IEEE-754→u64 map. The primary sort is
// (label, λ_max), which is what the containment probe scans on: a query
// range [λ_min(q), λ_max(q)] is contained in every indexed range with the
// same root label and λ_max ≥ λ_max(q) − ε (Theorem 3; ε absorbs
// eigensolver round-off, Section 3.3).
//
// λ_min is not stored: the matrices are real anti-symmetric, so every
// spectrum is symmetric about 0 and λ_min = −λ_max (spectral/spectrum.h).
// The paper's second containment test, λ_min ≤ λ_min(q) + ε, is then the
// λ_max test negated, and carries no information of its own. The (doc,
// node) suffix makes keys unique — one entry per element (Theorem 4) — so
// no separate uniquifier is kept.

#ifndef FIX_CORE_FEATURE_H_
#define FIX_CORE_FEATURE_H_

#include <cstdint>
#include <limits>
#include <string>

#include "common/bytes.h"
#include "xml/document.h"
#include "xml/label_table.h"

namespace fix {

inline constexpr uint32_t kFeatureKeySize = 28;

struct FeatureKey {
  LabelId root_label = kInvalidLabel;
  double lambda_max = 0;
  double lambda2 = 0;  ///< second-largest eigenvalue magnitude (extension)
  NodeRef ref;         ///< the indexed element in primary storage

  /// The artificial "always a candidate" key for oversized patterns
  /// (Section 6.1): range [-inf, +inf] contains every query range.
  static FeatureKey Oversized(LabelId root_label) {
    FeatureKey k;
    k.root_label = root_label;
    k.lambda_max = std::numeric_limits<double>::infinity();
    k.lambda2 = std::numeric_limits<double>::infinity();
    return k;
  }
};

inline std::string EncodeFeatureKey(const FeatureKey& key) {
  std::string out(kFeatureKeySize, '\0');
  EncodeBigEndian32(out.data(), key.root_label);
  EncodeBigEndian64(out.data() + 4, OrderPreservingDouble(key.lambda_max));
  EncodeBigEndian64(out.data() + 12, OrderPreservingDouble(key.lambda2));
  EncodeBigEndian32(out.data() + 20, key.ref.doc_id);
  EncodeBigEndian32(out.data() + 24, key.ref.node_id);
  return out;
}

inline FeatureKey DecodeFeatureKey(std::string_view buf) {
  FeatureKey key;
  key.root_label = DecodeBigEndian32(buf.data());
  key.lambda_max = OrderPreservingToDouble(DecodeBigEndian64(buf.data() + 4));
  key.lambda2 = OrderPreservingToDouble(DecodeBigEndian64(buf.data() + 12));
  key.ref = NodeRef{DecodeBigEndian32(buf.data() + 20),
                    DecodeBigEndian32(buf.data() + 24)};
  return key;
}

/// Index entry value: clustered indexes store the record offset of the
/// subtree copy in the clustered store (8 bytes); unclustered entries have
/// no value at all — the key already names the element.
inline constexpr uint32_t IndexValueSize(bool clustered) {
  return clustered ? 8 : 0;
}

inline std::string EncodeIndexValue(bool clustered, uint64_t clustered_offset) {
  std::string out(IndexValueSize(clustered), '\0');
  if (clustered) EncodeFixed64(out.data(), clustered_offset);
  return out;
}

/// The clustered offset of an encoded value; 0 for an unclustered entry.
inline uint64_t DecodeIndexValue(std::string_view buf) {
  return buf.empty() ? 0 : DecodeFixed64(buf.data());
}

}  // namespace fix

#endif  // FIX_CORE_FEATURE_H_
