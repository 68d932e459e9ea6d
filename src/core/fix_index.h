// FixIndex: the paper's contribution — a feature-based index over twig
// patterns (Sections 4 and 5).
//
// Construction (Algorithm 1): every indexable unit (a whole small document,
// or the depth-L subpattern of each element of a large document) is reduced
// to its bisimulation graph, translated to an anti-symmetric matrix, and
// its eigenvalue features {root label, λ_max, λ_min} become the B+-tree
// key — stored as (label, λ_max, λ₂, doc, node), 28 bytes, since λ_min is
// always −λ_max (feature.h). Unclustered entries have no value: the key
// names the element in primary storage. Clustered entries store the offset
// of a subtree copy, and the copies are laid out in key order. Build and
// InsertDocument turn documents into entries through one pipeline
// (IndexDocuments), one document at a time on the calling thread, so an
// inserted document gets exactly the entries a bulk build over the same
// corpus gives it. The index is insert-only: every key ends in the
// element's (doc, node) and is unique, so nothing is ever removed and a
// document indexed twice is refused.
//
// Lookup (Algorithm 2): the query's twig pattern gets the same treatment;
// every indexed entry whose root label matches and whose eigenvalue range
// contains the query's is a candidate (Theorem 3 guarantees no false
// negatives; Theorem 5 guarantees completeness of the enumeration).

#ifndef FIX_CORE_FIX_INDEX_H_
#define FIX_CORE_FIX_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "common/result.h"
#include "core/corpus.h"
#include "core/feature.h"
#include "core/histogram.h"
#include "core/index_options.h"
#include "core/persist.h"
#include "query/twig_query.h"
#include "spectral/edge_encoder.h"
#include "spectral/feature_cache.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/record_store.h"
#include "xml/value_hash.h"

namespace fix {

/// The FIX index proper: spectral feature keys in a disk-resident B+-tree.
///
/// Thread-safety: the read path — Lookup, Probe, QueryFeatures, and the
/// const accessors — is safe from any number of threads once the index is
/// built or opened. Reads go through the lock-striped BufferPool and the
/// B+-tree's snapshot contract (btree.h): every lookup pins the published
/// generation and scans only its immutable pages, so a SINGLE writer
/// (InsertDocument, never two at once) may run concurrently with any
/// number of readers — commits are built copy-on-write and become visible
/// atomically, and readers never stall on the writer. The one mutable
/// piece shared by both sides, the edge-weight encoder, is serialized by
/// an internal mutex (an unseen pair can never match indexed data, so
/// interleaved interning cannot change any result set). Build and EstimateCandidates (which lazily builds the costing
/// histogram) remain writer-exclusive: they must not overlap with each
/// other, with the single writer, or with reads. Build runs on the
/// calling thread. See docs/ARCHITECTURE.md, "Concurrent reads" and "Write
/// path: COW generations + WAL".
///
/// Observability: construction records fix.build.* and lookup records
/// fix.index.probe* in the process-wide MetricsRegistry, and both emit
/// trace spans ("index.build", "index.probe") when tracing is enabled.
class FixIndex {
 public:
  /// One index hit awaiting refinement. key.ref names the element in
  /// primary storage.
  struct Candidate {
    FeatureKey key;
    uint64_t clustered_offset;  ///< clustered: record id in the copy store
  };

  struct LookupResult {
    /// Lookup's candidates are grouped by document, in ascending doc id
    /// (each document's in B+-tree key order), on every branch, so
    /// refinement walks per-document runs without sorting. Probe's come
    /// in key order.
    std::vector<Candidate> candidates;
    /// B+-tree entries touched by the range scan(s) (logical index I/O).
    uint64_t entries_scanned = 0;
    /// False when the query is deeper than the index covers; the caller
    /// must fall back to a full scan (Algorithm 2 step 1).
    bool covered = true;
  };

  /// Builds the index over `corpus` per `options`. `stats` may be null.
  /// Alongside the B+-tree file at options.path, a metadata sidecar
  /// (options + edge-weight encoding) is written to options.path + ".meta"
  /// so the index can be reopened.
  ///
  /// @pre `corpus` is non-null and outlives the returned index.
  /// @pre options.path names a writable location; an existing file there
  ///      is truncated.
  /// @post on success the B+-tree and meta sidecar are flushed to disk and
  ///       the index is immediately queryable.
  /// @return the opened index, or InvalidArgument (bad options), IOError
  ///         (storage), or Internal (eigensolver) on failure.
  [[nodiscard]] static Result<FixIndex> Build(Corpus* corpus, const IndexOptions& options,
                                BuildStats* stats);

  /// Reopens an index previously built at `path` over the same corpus
  /// (typically one restored with Corpus::Load). The persisted options and
  /// edge-weight encoding are restored exactly; queries probe the on-disk
  /// B+-tree without any rebuild. `page_io_factory` / `wal_io_factory`
  /// (optional) override the page-file and WAL backends, mirroring the
  /// IndexOptions fields of the same names — they are parameters here
  /// because factories are never persisted in the meta.
  ///
  /// Crash recovery happens here: the WAL at path + ".wal" is scanned, a
  /// committed generation newer than the data file's meta page is rolled
  /// forward (adopting the committed root, entry count and document
  /// coverage), torn tails are discarded, pages unreachable
  /// from the adopted root are recycled (restamped as blank pages if the
  /// crash left them torn), and the log is reset once the recovered state
  /// has been checkpointed into the data file and sidecar. A kd-tree file
  /// left by an index written before meta v5 (kLegacyKdTreeSuffix) is
  /// unlinked.
  ///
  /// An index whose meta predates v7 holds 48-byte entries this binary
  /// does not read; Open refuses it with NotSupported before it reads the
  /// log or any page. Database::Open answers that by rebuilding the index
  /// with the options the old meta recorded.
  ///
  /// @pre `corpus` is non-null and is the corpus the index was built over.
  /// @return the reopened index, or NotSupported (pre-v7 meta), NotFound
  ///         (missing file), Corruption (checksum or meta damage), or
  ///         IOError on failure.
  [[nodiscard]] static Result<FixIndex> Open(
      Corpus* corpus, const std::string& path,
      const std::function<std::unique_ptr<PageIo>()>& page_io_factory =
          nullptr,
      const std::function<std::unique_ptr<PageIo>()>& wal_io_factory =
          nullptr);

  FixIndex(FixIndex&&) = default;
  FixIndex& operator=(FixIndex&&) = default;

  /// Full Algorithm 2 lookup: decomposes at interior //-edges, probes the
  /// B+-tree per usable sub-twig, and (for whole-document indexes)
  /// intersects candidate documents across sub-twigs in a doc-id bitmap.
  /// The candidates come out grouped by ascending doc id (LookupResult).
  ///
  /// @pre `query` has had ResolveLabels run against this index's corpus.
  /// @return the candidate set (covered == false signals the caller must
  ///         full-scan), or Corruption/IOError if a probe page read fails.
  [[nodiscard]] Result<LookupResult> Lookup(const TwigQuery& query);

  /// Probes with a single pure twig (no decomposition). Exposed for tests
  /// and the metrics harnesses.
  ///
  /// `use_root_label` selects whether the root-label feature participates
  /// in pruning. It is sound whenever indexed units are rooted at elements
  /// carrying the pattern's root label: always for depth-limited indexes
  /// (one entry per element), and for whole-document indexes only when the
  /// query is rooted (/a/...) so the pattern root must be the document's
  /// root element. Lookup() picks the sound setting automatically.
  ///
  /// @pre `subtwig` is a pure twig (no interior //-edges) with resolved
  ///      labels.
  /// @return candidates of the single range scan, in key order, or
  ///         Corruption/IOError.
  [[nodiscard]] Result<LookupResult> Probe(const TwigQuery& subtwig,
                             bool use_root_label = true);

  /// Computes the probe features of a pure twig query (pattern → matrix →
  /// eigenvalues). Exposed for diagnostics.
  ///
  /// @return the feature key, or Internal if the eigensolver fails to
  ///         converge on the query pattern.
  [[nodiscard]] Result<FeatureKey> QueryFeatures(const TwigQuery& subtwig);

  /// Estimates the candidate count of a query without touching candidates,
  /// via per-label equi-depth histograms over λ_max (Section 5's costing
  /// aid). The histogram is built lazily on first use and invalidated by
  /// InsertDocument.
  ///
  /// @return the estimate (0 for uncovered queries), or Corruption/IOError
  ///         if the lazy histogram build's tree scan fails.
  [[nodiscard]] Result<uint64_t> EstimateCandidates(const TwigQuery& query);

  /// Incrementally indexes a document that was appended to the corpus
  /// after Build (unclustered indexes only: clustered layouts require the
  /// key-ordered copy store to be rebuilt, the update cost the paper's
  /// introduction charges against clustering indexes). The entries come
  /// from Build's own pipeline, run inline over this one document, so they
  /// are byte-identical to the ones a bulk build would have written.
  ///
  /// Crash-safe and atomic: the new entries are built copy-on-write as
  /// B+-tree generation N+1, made durable by a single fsync'd WAL commit
  /// record, and only then published. A crash at any point leaves the index
  /// recoverable to exactly generation N (no commit record) or exactly
  /// generation N+1 (commit record replayed by Open) — never a torn state.
  /// Concurrent readers keep serving generation N until the publish.
  ///
  /// @pre doc_id is a valid corpus document not yet indexed.
  /// @post on success the commit is checkpointed: the data file's meta page
  ///       and the sidecar carry the new generation (indexed_docs advances)
  ///       and the WAL is reset.
  /// @return OK, NotSupported for clustered indexes, InvalidArgument for a
  ///         doc_id outside the corpus or for a document already indexed
  ///         (its keys are in the tree; the batch aborts and the generation
  ///         does not move), or the first storage/solver error.
  ///         A WAL append/fsync failure aborts the whole batch (fail-stop:
  ///         an unsynced commit is never acked) and surfaces as IOError so
  ///         Database routes the index into quarantine.
  [[nodiscard]] Status InsertDocument(uint32_t doc_id, BuildStats* stats = nullptr);

  /// Integrity audit of the on-disk index: full B+-tree structural walk
  /// (every page read passes through the checksum layer on the way).
  ///
  /// @return OK, or Corruption describing the first violation found.
  [[nodiscard]] Status Verify() { return btree_->VerifyStructure(); }

  uint64_t num_entries() const { return btree_->num_entries(); }
  const IndexOptions& options() const { return options_; }
  Corpus* corpus() { return corpus_; }
  const ValueHasher* value_hasher() const { return value_hasher_.get(); }
  RecordStore* clustered_store() { return &clustered_; }
  BTree* btree() { return btree_.get(); }
  PageFile* page_file() { return file_.get(); }
  /// Documents covered at the last successful meta write
  /// (kIndexedDocsUnknown for indexes persisted by pre-v2 metas).
  uint32_t indexed_docs() const { return indexed_docs_; }
  /// The B+-tree generation currently published to readers.
  uint64_t generation() const { return btree_->generation(); }
  /// The write-ahead log (diagnostics: fixctl, tests).
  const Wal& wal() const { return wal_; }

  /// On-disk footprint: B+-tree bytes (+ clustered copy store bytes).
  uint64_t BTreeBytes() const { return btree_->SizeBytes(); }
  uint64_t ClusteredBytes() const {
    return clustered_.is_open() ? clustered_.size_bytes() : 0;
  }

 private:
  FixIndex(Corpus* corpus, IndexOptions options)
      : corpus_(corpus), options_(std::move(options)) {}

  // --- entry pipeline (Build and InsertDocument; see DESIGN.md) -----------

  /// One closing element awaiting entry emission (pipeline stage D).
  struct CloseEvent {
    BisimVertexId vertex = kInvalidVertex;
    NodeRef ref;
  };

  /// Feature computation for one distinct pattern of one document.
  struct PatternWork {
    BisimVertexId vertex = kInvalidVertex;  ///< vertex in the document graph
    /// Depth-limited pattern graph; unset when the whole document graph is
    /// the pattern (depth_limit == 0) or the pattern is oversized.
    std::optional<BisimGraph> pattern;
    std::string signature;  ///< cache key; empty when oversized
    bool oversized = false;
    bool solver_failed = false;
    EigPair eigs;
  };

  /// Per-document pipeline state, filled by PrepareDocument.
  struct DocWork {
    BisimGraph graph;
    std::vector<CloseEvent> closes;      ///< in close (document) order
    std::vector<PatternWork> patterns;   ///< distinct, in first-close order
    int depth = 0;
    size_t vertices = 0;
    size_t edges = 0;
  };

  /// The one way documents become index entries: runs the pipeline stages
  /// A–D (prepare, intern, solve, emit) over each document of [begin, end)
  /// in order, appending one encoded key per indexed element to `keys`.
  /// `cache` may be null. Stage B and stage C's matrix build hold
  /// encoder_mu_, because readers intern query pairs while an insert runs.
  [[nodiscard]] Status IndexDocuments(uint32_t begin, uint32_t end,
                                      FeatureCache* cache, BuildStats* stats,
                                      std::vector<std::string>* keys);

  /// Build's half: IndexDocuments over the whole corpus with a feature
  /// cache, then one sort and a bulk load of the B+-tree (and, for
  /// clustered indexes, the copy store).
  [[nodiscard]] Status BuildPipeline(BuildStats* stats);

  /// Pipeline stage A: parse, bisimulate, collect close events, and
  /// prepare each distinct pattern (expansion bound, depth-limited pattern
  /// graph, canonical signature).
  [[nodiscard]] Status PrepareDocument(uint32_t doc_id, DocWork* out) const;

  /// Pipeline stage C: feature-cache lookup, or a skew-matrix eigensolve
  /// against the frozen edge encoder on a miss (the matrix is built under
  /// encoder_mu_).
  void SolvePattern(const BisimGraph& doc_graph, PatternWork* work,
                    FeatureCache* cache) const;

  /// Writes the metadata sidecar (options + encoder + coverage).
  [[nodiscard]] Status WriteMeta() const;

  /// All entries carrying `label` (the wildcard degradation path).
  [[nodiscard]] Result<LookupResult> LabelOnlyScan(LabelId label);

  /// The single write path: applies `inserts` inside one COW batch and
  /// drives the commit protocol — PrepareCommit (flush + data fsync), WAL
  /// append (fsync'd; failure aborts the batch), publish, checkpoint, meta
  /// rewrite, WAL reset. A key already in the tree aborts the batch with
  /// InvalidArgument. On success indexed_docs_ is `new_indexed_docs`.
  /// Inserted keys carry no value: only unclustered indexes take inserts.
  [[nodiscard]] Status CommitBatch(const std::vector<std::string>& inserts,
                                   uint32_t new_indexed_docs);

  /// The B+-tree probe body (range scan + per-row filters) for an already
  /// solved query feature key.
  [[nodiscard]] Result<LookupResult> ProbeBTree(const FeatureKey& probe,
                                                bool use_root_label);

  /// Recovery sweep: walks the tree from the (possibly just-adopted) root,
  /// restamps unreachable pages whose blocks fail verification (torn relics
  /// of an uncommitted generation) as blank pages, and hands every
  /// unreachable page to the B+-tree's reuse list.
  [[nodiscard]] Status ReclaimUnreachable();

  Corpus* corpus_;
  IndexOptions options_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> btree_;
  /// Write-ahead log at path + ".wal"; owned exclusively by the writer.
  Wal wal_;
  RecordStore clustered_;
  std::unique_ptr<ValueHasher> value_hasher_;
  // `encoder_` is deliberately NOT FIX_GUARDED_BY(*encoder_mu_): Open
  // imports it before the index is shared. Every access once readers may
  // exist — query-time interning, IndexDocuments' stages B and C, and
  // WriteMeta's export — holds the mutex.
  EdgeEncoder encoder_;
  /// Serializes access to encoder_ (see the class comment).
  /// Heap-allocated because FixIndex keeps its defaulted move operations.
  // LOCK-ORDER: 8 FixIndex::encoder_mu_
  std::unique_ptr<Mutex> encoder_mu_ = std::make_unique<Mutex>();
  std::unique_ptr<FeatureHistogram> histogram_;  // lazy; see EstimateCandidates
  uint32_t indexed_docs_ = 0;  // see indexed_docs()
};

}  // namespace fix

#endif  // FIX_CORE_FIX_INDEX_H_
