// Tuning knobs for FIX index construction and querying.

#ifndef FIX_CORE_INDEX_OPTIONS_H_
#define FIX_CORE_INDEX_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace fix {

class PageIo;

struct IndexOptions {
  /// Subpattern depth limit L of Algorithm 1. 0 indexes each document as a
  /// single unit (the collection-of-small-documents mode); a positive L
  /// enumerates one depth-L subpattern per element of documents deeper
  /// than L (Theorem 4) and covers twig queries of depth <= L.
  int depth_limit = 0;

  /// Clustered (subtree copies in key order) vs unclustered (pointers into
  /// primary storage). Section 4.1.
  bool clustered = false;

  /// Value-hash domain size β (Section 4.6). 0 disables value indexing.
  uint32_t value_beta = 0;

  /// Include λ₂ (second-largest eigenvalue magnitude) in the pruning test —
  /// the "more features" extension of Section 8. The key layout always
  /// reserves the slot; this flag controls whether queries filter on it.
  bool use_lambda2 = false;

  /// Guards for eigenvalue extraction: a subpattern whose bisimulation
  /// graph exceeds this many vertices (or whose tree expansion exceeds
  /// max_expanded_nodes) is indexed with the artificial [-inf, +inf] range
  /// instead (Section 6.1) — always a candidate, never a false negative.
  size_t max_pattern_vertices = 400;
  uint64_t max_expanded_nodes = 200000;

  /// Round-off slack ε for the containment test (Section 3.3 discusses why
  /// eigenvalue keys must tolerate numerical error).
  double epsilon = 1e-6;

  /// REPRODUCTION FINDING. The paper's probe (λ_max of the query pattern)
  /// is NOT sound in general: Theorem 3 covers *induced* subgraphs, but a
  /// twig match only guarantees a homomorphic image — possibly quotiented
  /// (repeated query labels merging) and non-induced (extra data edges) —
  /// and σ_max of a skew-symmetric matrix is not monotone under edge
  /// addition. On recursive data (XMark parlist chains, Treebank) this
  /// produces real false negatives; see tests/soundness_test.cc for a
  /// concrete counterexample.
  ///
  /// sound_probe = false reproduces the paper exactly. sound_probe = true
  /// probes with the largest single edge weight of the query pattern
  /// instead: every 2-vertex induced subgraph IS covered by Theorem 3 and
  /// edges survive quotients, so this bound is provably free of false
  /// negatives, at the cost of pruning power.
  bool sound_probe = false;

  /// Buffer-pool frames for the index B+-tree.
  size_t buffer_pool_pages = 4096;

  /// Byte budget (in MiB) of the spectral feature cache that memoizes
  /// EigPair results across structurally identical patterns during Build.
  /// 0 disables the cache. Cache behavior never changes the built index,
  /// only how often the eigensolver runs. Construction-time only; not
  /// persisted in the meta sidecar.
  uint32_t feature_cache_mb = 64;

  /// Index file path. The clustered store (if any) lives at path + ".data".
  std::string path;

  /// Backend factory for the index page file. Unset => a plain file
  /// (FilePageIo). Tests set this to wrap the file in a
  /// FaultInjectionPageIo, placing injected faults underneath the page
  /// checksums. Not persisted in the index meta sidecar.
  std::function<std::unique_ptr<PageIo>()> page_io_factory;

  /// Backend factory for the write-ahead log (path + ".wal"), separate from
  /// page_io_factory so tests can inject faults into the log and the data
  /// file independently (a shared factory would also hand one test fault
  /// budget to two files). Unset => a plain file. Not persisted in the
  /// index meta sidecar.
  std::function<std::unique_ptr<PageIo>()> wal_io_factory;
};

/// Construction-time statistics (Table 1 columns and diagnostics).
struct BuildStats {
  double construction_seconds = 0;
  uint64_t entries = 0;            ///< B+-tree entries inserted
  uint64_t oversized_patterns = 0; ///< patterns given the artificial range
  uint64_t distinct_patterns = 0;  ///< distinct (vertex) patterns seen
  uint64_t btree_bytes = 0;
  uint64_t clustered_bytes = 0;    ///< clustered copy store size (0 if none)
  uint64_t bisim_vertices = 0;     ///< total bisimulation vertices built
  uint64_t bisim_edges = 0;
  int max_document_depth = 0;
  /// Spectral feature cache counters for this build (see
  /// IndexOptions::feature_cache_mb). hits + misses = eigensolver-eligible
  /// pattern lookups; each hit skipped one O(n³) solve.
  uint64_t feature_cache_hits = 0;
  uint64_t feature_cache_misses = 0;
  uint64_t feature_cache_evictions = 0;
};

}  // namespace fix

#endif  // FIX_CORE_INDEX_OPTIONS_H_
