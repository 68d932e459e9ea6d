// FeatureCache: a bounded memo of spectral features keyed by the canonical
// signature of a pattern's bisimulation graph.
//
// Downward bisimulation makes structurally identical subtrees collapse to
// identical pattern graphs, and the same depth-L patterns recur massively
// across elements and documents (the paper's own motivation for bisimulation
// in Section 4). Construction therefore memoizes (pattern shape) → EigPair
// so only the first occurrence of a shape pays the O(n³) eigensolve.
//
// Soundness: the full serialized signature is the map key, so a hash
// collision can never alias two different shapes onto one cached result.
// The signature is canonical because both sources of pattern graphs number
// vertices in first-close order of a fixed traversal: the builder's
// document graph at depth 0, and the BisimTraveler → BisimBuilder round
// trip of a depth-limited pattern otherwise. Isomorphic patterns therefore
// serialize to identical byte strings.
//
// Not thread-safe: one Build owns one cache and runs on one thread, so
// there is one map, one FIFO list and one byte budget. Evicting under that
// budget never affects build output — a miss recomputes the same bits a hit
// would have returned (the edge-weight encoding is frozen before solving) —
// and with one thread the hit, miss and eviction counters are a function of
// the corpus and the budget alone.

#ifndef FIX_SPECTRAL_FEATURE_CACHE_H_
#define FIX_SPECTRAL_FEATURE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "graph/bisim_graph.h"

namespace fix {

/// Canonical byte-string signature of a pattern graph: vertex count, root,
/// and per-vertex (label, children) in vertex-id order. Two pattern graphs
/// get equal signatures iff they are identical as numbered graphs, which
/// for traveler-rebuilt patterns means structurally identical shapes.
std::string CanonicalPatternSignature(const BisimGraph& graph);

/// Cached solve result. `solver_failed` records that the eigensolver did
/// not converge for this shape (the pattern was indexed with the artificial
/// always-a-candidate range); replaying it on a hit keeps the
/// oversized-pattern counter deterministic.
struct CachedFeature {
  EigPair eigs;
  bool solver_failed = false;
};

struct FeatureCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

class FeatureCache {
 public:
  /// `budget_bytes` bounds the total (approximate) memory of cached
  /// entries.
  explicit FeatureCache(size_t budget_bytes);

  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;

  /// Returns true and fills `*out` when `key` is cached.
  bool Lookup(std::string_view key, CachedFeature* out);

  /// Inserts (key, value) for a key that just missed, evicting the oldest
  /// entries while the cache exceeds its budget. An entry that alone costs
  /// more than the budget is not cached.
  void Insert(std::string_view key, const CachedFeature& value);

  FeatureCacheStats Stats() const { return stats_; }

 private:
  struct Entry {
    std::string key;
    CachedFeature value;
  };
  static size_t EntryBytes(std::string_view key);

  size_t budget_;
  size_t bytes_ = 0;
  // front = newest, evict from the back
  std::list<Entry> entries_;
  // Keys view into the owning list entry, so each key is stored once.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  FeatureCacheStats stats_;
};

}  // namespace fix

#endif  // FIX_SPECTRAL_FEATURE_CACHE_H_
