// FixQueryProcessor: Algorithm 2 end to end — index lookup (pruning phase)
// followed by navigational refinement of every candidate, with the
// implementation-independent counters of Section 6.2 collected along the
// way.

#ifndef FIX_CORE_FIX_QUERY_H_
#define FIX_CORE_FIX_QUERY_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/corpus.h"
#include "core/fix_index.h"
#include "query/twig_query.h"

namespace fix {

struct ExecStats {
  uint64_t total_entries = 0;   ///< ent: all index entries
  uint64_t candidates = 0;      ///< cdt: entries surviving the index probe
  uint64_t producing = 0;       ///< rst: candidates yielding >= 1 result
  uint64_t result_count = 0;    ///< result-step bindings (deduplicated when
                                ///< evaluation runs on primary documents)
  bool covered = true;          ///< query depth within the index limit
  bool used_index = true;       ///< false on full-scan fallback
  bool degraded = false;        ///< full scan forced by index corruption
                                ///< (quarantine), not by query depth
  double lookup_ms = 0;         ///< pruning phase wall time
  double refine_ms = 0;         ///< refinement phase wall time
  uint64_t entries_scanned = 0; ///< B+-tree entries touched
  uint64_t nodes_visited = 0;   ///< matcher work during refinement
  uint64_t random_reads = 0;    ///< primary-storage pointer dereferences
  uint64_t sequential_bytes = 0;///< clustered-store bytes read

  double selectivity() const {
    return total_entries == 0
               ? 0
               : 1.0 - static_cast<double>(producing) / total_entries;
  }
  double pruning_power() const {
    return total_entries == 0
               ? 0
               : 1.0 - static_cast<double>(candidates) / total_entries;
  }
  double false_positive_ratio() const {
    return candidates == 0
               ? 0
               : 1.0 - static_cast<double>(producing) / candidates;
  }
};

/// Folds one finished execution's ExecStats into the process-wide
/// MetricsRegistry (fix.query.* counters and latency histograms; see
/// docs/OBSERVABILITY.md). Called automatically by FixQueryProcessor and
/// FullScanExecute; exposed so alternative drivers can keep the registry
/// honest.
void RecordExecStats(const ExecStats& stats);

/// Evaluates `query` with the navigational matcher over every document —
/// the always-correct baseline path. Shared by FixQueryProcessor (queries
/// the index does not cover) and Database (graceful degradation when an
/// index is quarantined as corrupt). `total_entries` is only bookkeeping
/// for the pruning-power stats; pass 0 when no index exists.
///
/// `pool` (optional) fans the per-document matching out over a ThreadPool;
/// results and stats are merged in document order, so the output is
/// byte-identical to the sequential scan. `seed` (optional) carries
/// lookup-side stats (lookup_ms, entries_scanned) measured before the
/// caller decided to fall back — without it uncovered queries would report
/// zero lookup cost.
[[nodiscard]] Result<ExecStats> FullScanExecute(Corpus* corpus,
                                                const TwigQuery& query,
                                                std::vector<NodeRef>* results,
                                                uint64_t total_entries,
                                                ThreadPool* pool = nullptr,
                                                const ExecStats* seed = nullptr);

/// Thread-safety: distinct FixQueryProcessor instances over the same
/// (corpus, index) pair may Execute concurrently — the processor itself is
/// stateless between calls, and the index's concurrent-read contract
/// (fix_index.h) covers the shared state. A single instance must not be
/// shared across threads only because Execute is not reentrant with respect
/// to the caller's `results` vector.
class FixQueryProcessor {
 public:
  /// `pool` (optional, caller-owned, may be null) parallelizes candidate
  /// refinement across per-document work units. With a null or single-thread
  /// pool the exact sequential code path runs; with N threads the merged
  /// results are byte-identical to the sequential order (candidate groups
  /// are disjoint per document and merged in ascending doc id).
  FixQueryProcessor(Corpus* corpus, FixIndex* index, ThreadPool* pool = nullptr)
      : corpus_(corpus), index_(index), pool_(pool) {}

  /// Runs the full query. `results` (optional) receives the deduplicated
  /// result-step bindings; it is filled only when refinement runs against
  /// primary documents (unclustered or whole-document candidates) — for
  /// clustered subtree copies only counts are meaningful. Results come out
  /// in (doc, node) order, as the full scan's do. Refinement walks Lookup's
  /// per-document candidate runs in place. Whole-document (depth 0)
  /// unclustered candidates go through the full scan's per-document
  /// Evaluate loop; depth-limited unclustered refinement is one matcher
  /// pass per document over all of its candidates
  /// (TwigMatcher::EvaluateFrom), which still attributes the per-entry
  /// `rst` the Section 6.2 metrics need; clustered refinement matches each
  /// candidate's copy on its own.
  [[nodiscard]] Result<ExecStats> Execute(const TwigQuery& query,
                            std::vector<NodeRef>* results = nullptr);

 private:
  /// Refinement output of one per-document candidate group.
  struct GroupOutcome {
    Status status;
    std::vector<NodeRef> results;
    uint64_t nodes_visited = 0;
    uint64_t producing = 0;
    uint64_t result_count = 0;
    uint64_t random_reads = 0;
    uint64_t sequential_bytes = 0;
    uint64_t contexts = 0;  ///< TwigMatcher::PassStats, summed
    uint64_t frontier = 0;
  };

  [[nodiscard]] Status RefineCandidates(const TwigQuery& query,
                          const std::vector<FixIndex::Candidate>& candidates,
                          ExecStats* stats, std::vector<NodeRef>* results);

  /// Refines the candidate run candidates[begin, end) — all of one
  /// document — of a clustered or depth-limited index into `out`. Runs on
  /// pool workers; touches only read-shared index state and `out`.
  void RefineDocGroup(const TwigQuery& query,
                      const std::vector<FixIndex::Candidate>& candidates,
                      size_t begin, size_t end, bool rooted,
                      GroupOutcome* out);

  [[nodiscard]] Result<ExecStats> FullScan(const TwigQuery& query,
                             std::vector<NodeRef>* results,
                             const ExecStats* seed);

  Corpus* corpus_;
  FixIndex* index_;
  ThreadPool* pool_;
};

}  // namespace fix

#endif  // FIX_CORE_FIX_QUERY_H_
