#include "core/fix_index.h"

#include <algorithm>
#include <limits>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/timer.h"
#include "common/trace.h"
#include "graph/bisim_builder.h"
#include "graph/bisim_traveler.h"
#include "query/compile.h"
#include "spectral/feature_cache.h"
#include "spectral/skew_matrix.h"
#include "spectral/spectrum.h"
#include "xml/serializer.h"

namespace fix {

namespace {

EigPair OversizedPair() {
  EigPair p;
  p.lambda_max = std::numeric_limits<double>::infinity();
  p.lambda_min = -std::numeric_limits<double>::infinity();
  p.lambda2 = std::numeric_limits<double>::infinity();
  return p;
}

FeatureKey MakeKey(LabelId label, const EigPair& eigs, NodeRef ref = {}) {
  FeatureKey key;
  key.root_label = label;
  key.lambda_max = eigs.lambda_max;
  key.lambda2 = eigs.lambda2;
  key.ref = ref;
  return key;
}

// Registry fold of one finished bulk build (docs/OBSERVABILITY.md).
void RecordBuildStats(const BuildStats& stats) {
  MetricsRegistry& r = MetricsRegistry::Instance();
  static Counter* builds = r.FindOrCreateCounter(
      "fix.build.count", "ops", "bulk index builds completed");
  static Counter* entries = r.FindOrCreateCounter(
      "fix.build.entries.total", "entries", "index entries emitted by builds");
  static Counter* oversized = r.FindOrCreateCounter(
      "fix.build.oversized.total", "patterns",
      "patterns degraded to the always-candidate range");
  static Counter* distinct = r.FindOrCreateCounter(
      "fix.build.distinct_patterns.total", "patterns",
      "distinct depth-limited patterns solved");
  static Counter* vertices = r.FindOrCreateCounter(
      "fix.build.bisim_vertices.total", "vertices",
      "bisimulation-graph vertices built");
  static Counter* edges = r.FindOrCreateCounter(
      "fix.build.bisim_edges.total", "edges",
      "bisimulation-graph edges built");
  static Histogram* duration = r.FindOrCreateHistogram(
      "fix.build.construction_us", "us", "bulk build wall time");
  builds->Increment();
  entries->Add(stats.entries);
  oversized->Add(stats.oversized_patterns);
  distinct->Add(stats.distinct_patterns);
  vertices->Add(stats.bisim_vertices);
  edges->Add(stats.bisim_edges);
  duration->Record(
      static_cast<uint64_t>(stats.construction_seconds * 1e6));
}

/// One bit per doc id: the documents a whole-document lookup keeps.
using DocBitmap = std::vector<uint64_t>;

bool HasDoc(const DocBitmap& bits, uint32_t doc) {
  const size_t word = doc / 64;
  return word < bits.size() && ((bits[word] >> (doc % 64)) & 1) != 0;
}

/// Marks the documents of `candidates`. The bitmap is sized from the
/// largest doc id among them, never from the corpus, which inserts grow
/// while readers run.
DocBitmap MarkDocs(const std::vector<FixIndex::Candidate>& candidates) {
  uint32_t max_doc = 0;
  for (const FixIndex::Candidate& c : candidates) {
    max_doc = std::max(max_doc, c.key.ref.doc_id);
  }
  DocBitmap bits(candidates.empty() ? 0 : max_doc / 64 + 1, 0);
  for (const FixIndex::Candidate& c : candidates) {
    bits[c.key.ref.doc_id / 64] |= uint64_t{1} << (c.key.ref.doc_id % 64);
  }
  return bits;
}

/// `candidates` grouped by document in ascending doc id, each document's
/// in scan order: a counting sort over doc ids, O(candidates + max doc
/// id), with no comparisons. With `keep`, only the documents it marks stay.
std::vector<FixIndex::Candidate> GroupByDocument(
    const std::vector<FixIndex::Candidate>& candidates,
    const DocBitmap* keep) {
  auto kept = [keep](uint32_t doc) {
    return keep == nullptr || HasDoc(*keep, doc);
  };
  uint32_t max_doc = 0;
  for (const FixIndex::Candidate& c : candidates) {
    if (kept(c.key.ref.doc_id)) max_doc = std::max(max_doc, c.key.ref.doc_id);
  }
  // start[d] is where document d's run begins once the counts are summed.
  std::vector<uint32_t> start(static_cast<size_t>(max_doc) + 2, 0);
  for (const FixIndex::Candidate& c : candidates) {
    if (kept(c.key.ref.doc_id)) ++start[c.key.ref.doc_id + 1];
  }
  for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  std::vector<FixIndex::Candidate> grouped(start.back());
  for (const FixIndex::Candidate& c : candidates) {
    if (kept(c.key.ref.doc_id)) grouped[start[c.key.ref.doc_id]++] = c;
  }
  return grouped;
}

}  // namespace

Result<FixIndex> FixIndex::Build(Corpus* corpus, const IndexOptions& options,
                                 BuildStats* stats) {
  if (options.path.empty()) {
    return Status::InvalidArgument("IndexOptions.path must be set");
  }
  TraceSpan span("index.build");
  Timer timer;
  // Collect stats even when the caller passed none, so the registry fold
  // below always sees the real numbers.
  BuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  FixIndex index(corpus, options);
  index.file_ = options.page_io_factory != nullptr
                    ? std::make_unique<PageFile>(options.page_io_factory())
                    : std::make_unique<PageFile>();
  FIX_RETURN_IF_ERROR(index.file_->Open(options.path, /*create=*/true));
  index.pool_ = std::make_unique<BufferPool>(index.file_.get(),
                                             options.buffer_pool_pages);
  {
    auto tree = BTree::Create(index.pool_.get(), kFeatureKeySize,
                              IndexValueSize(options.clustered));
    if (!tree.ok()) return tree.status();
    index.btree_ = std::make_unique<BTree>(std::move(tree).value());
  }
  if (options.clustered) {
    FIX_RETURN_IF_ERROR(
        index.clustered_.Open(options.path + ".data", /*create=*/true));
  }
  if (options.value_beta > 0) {
    index.value_hasher_ =
        std::make_unique<ValueHasher>(corpus->labels(), options.value_beta);
  }

  {
    // A fresh (empty) log rides along from the start so the first
    // incremental update has somewhere to commit.
    auto wal = Wal::Create(options.path + ".wal", kFeatureKeySize,
                           IndexValueSize(options.clustered),
                           options.wal_io_factory);
    if (!wal.ok()) return wal.status();
    index.wal_ = std::move(wal).value();
  }

  // CONSTRUCT-INDEX over the collection: the prepare / intern / solve /
  // emit pipeline, one document at a time, then a sorted bulk load (see
  // DESIGN.md, "Entry pipeline").
  FIX_RETURN_IF_ERROR(index.BuildPipeline(stats));
  FIX_RETURN_IF_ERROR(index.btree_->Flush());
  // The page file is deliberately not fsynced here: a bulk build is a
  // rebuildable artifact, and a power loss racing one at worst tears pages
  // that the checksums catch on reopen — the index quarantines and service
  // degrades to full scan, never to a wrong answer. Incremental updates
  // (small, and feeding the staleness check) do sync before their meta
  // write.
  index.indexed_docs_ = corpus->num_docs();
  FIX_RETURN_IF_ERROR(index.WriteMeta());

  stats->construction_seconds = timer.ElapsedSeconds();
  stats->entries = index.btree_->num_entries();
  stats->btree_bytes = index.BTreeBytes();
  stats->clustered_bytes = index.ClusteredBytes();
  RecordBuildStats(*stats);
  span.AddAttr("entries", stats->entries);
  return index;
}

Status FixIndex::PrepareDocument(uint32_t doc_id, DocWork* out) const {
  const Document& doc = corpus_->doc(doc_id);
  NodeId root_elem = doc.root_element();
  if (root_elem == kInvalidNode) return Status::OK();  // no entries
  out->depth = doc.Depth(root_elem);
  // DEVIATION FROM ALGORITHM 1 (documented in DESIGN.md, finding F2): the
  // paper indexes documents shallower than L as single whole-document
  // units even inside a depth-limited index, which makes //-rooted queries
  // unsound — whole-document entries carry the document root's label, so
  // shallow documents become invisible to a probe keyed on the pattern
  // root's label. A depth-limited index therefore enumerates one
  // subpattern per element for EVERY document (patterns of documents
  // shallower than L are simply never truncated), which is what
  // Theorem 5's completeness argument actually needs.
  const int limit = options_.depth_limit;

  DocumentEventStream stream(&doc, doc_id, value_hasher_.get());
  BisimBuilder builder;
  std::unordered_set<BisimVertexId> seen;
  BisimBuilder::CloseCallback on_close =
      [&](BisimGraph* graph, BisimVertexId vertex, NodeRef ref,
          bool is_root) -> Status {
    if (limit == 0 && !is_root) return Status::OK();
    out->closes.push_back(CloseEvent{vertex, ref});
    if (!seen.insert(vertex).second) return Status::OK();  // memoized later

    PatternWork work;
    work.vertex = vertex;
    if (limit == 0) {
      // Whole-document pattern; the root closes last, so the graph is
      // complete here. The signature reads the graph in place.
      if (graph->num_vertices() > options_.max_pattern_vertices) {
        work.oversized = true;
      } else {
        work.signature = CanonicalPatternSignature(*graph);
      }
    } else {
      uint64_t expanded = ExpandedPatternSize(*graph, vertex, limit,
                                              options_.max_expanded_nodes);
      if (expanded >= options_.max_expanded_nodes) {
        work.oversized = true;
      } else {
        BisimGraph pattern;
        FIX_ASSIGN_OR_RETURN(pattern,
                             BuildDepthLimitedPattern(*graph, vertex, limit));
        if (pattern.num_vertices() > options_.max_pattern_vertices) {
          work.oversized = true;
        } else {
          work.signature = CanonicalPatternSignature(pattern);
          work.pattern = std::move(pattern);
        }
      }
    }
    out->patterns.push_back(std::move(work));
    return Status::OK();
  };
  FIX_ASSIGN_OR_RETURN(out->graph, builder.Build(&stream, on_close));
  out->vertices = out->graph.num_vertices();
  out->edges = out->graph.num_edges();
  return Status::OK();
}

void FixIndex::SolvePattern(const BisimGraph& doc_graph, PatternWork* work,
                            FeatureCache* cache) const {
  if (work->oversized) {
    work->eigs = OversizedPair();
    return;
  }
  const BisimGraph& pattern =
      work->pattern.has_value() ? *work->pattern : doc_graph;
  if (cache != nullptr) {
    CachedFeature hit;
    if (cache->Lookup(work->signature, &hit)) {
      work->eigs = hit.eigs;
      work->solver_failed = hit.solver_failed;
      return;
    }
  }
  DenseMatrix m(0);
  {
    // Readers intern query pairs into encoder_ while an insert runs this
    // stage; the eigensolve below stays outside the lock.
    MutexLock lock(*encoder_mu_);
    m = BuildSkewMatrixFrozen(pattern, encoder_);
  }
  auto sigmas = SkewSpectrum(m);
  CachedFeature computed;
  if (sigmas.ok()) {
    computed.eigs = EigPairFromSpectrum(*sigmas);
  } else {
    // Eigensolver failure: the Section 6.1 always-a-candidate range, as
    // for oversized patterns. The failure bit rides along in the cache so
    // replayed hits count toward oversized_patterns exactly like the first
    // computation.
    computed.eigs = OversizedPair();
    computed.solver_failed = true;
  }
  work->eigs = computed.eigs;
  work->solver_failed = computed.solver_failed;
  if (cache != nullptr) cache->Insert(work->signature, computed);
}

Status FixIndex::IndexDocuments(uint32_t begin, uint32_t end,
                                FeatureCache* cache, BuildStats* stats,
                                std::vector<std::string>* keys) {
  for (uint32_t doc_id = begin; doc_id < end; ++doc_id) {
    // Stage A: parse, bisimulate, prepare distinct patterns.
    DocWork w;
    FIX_RETURN_IF_ERROR(PrepareDocument(doc_id, &w));

    // Stage B: intern edge weights in pattern order, so the encoder's
    // content — weight ids feed the matrices and the persisted meta — is
    // the same whether the document arrives in a Build or an
    // InsertDocument, which is what makes their entries equal. Interning
    // covers every non-oversized distinct pattern, cache hit or not.
    {
      MutexLock lock(*encoder_mu_);
      for (PatternWork& p : w.patterns) {
        if (p.oversized) continue;
        InternPatternWeights(p.pattern.has_value() ? *p.pattern : w.graph,
                             &encoder_);
      }
    }

    // Stage C: feature-cache lookup or frozen eigensolve.
    for (PatternWork& p : w.patterns) SolvePattern(w.graph, &p, cache);

    // Stage D: stats, per-vertex feature memo, and one key per closing
    // element.
    if (stats != nullptr) {
      stats->max_document_depth = std::max(stats->max_document_depth, w.depth);
      stats->bisim_vertices += w.vertices;
      stats->bisim_edges += w.edges;
      stats->distinct_patterns += w.patterns.size();
      for (const PatternWork& p : w.patterns) {
        if (p.oversized || p.solver_failed) ++stats->oversized_patterns;
      }
    }
    for (const PatternWork& p : w.patterns) {
      w.graph.vertex(p.vertex).eigs = p.eigs;
    }
    for (const CloseEvent& c : w.closes) {
      const BisimVertex& v = w.graph.vertex(c.vertex);
      keys->push_back(EncodeFeatureKey(MakeKey(v.label, *v.eigs, c.ref)));
    }
  }
  return Status::OK();
}

Status FixIndex::BuildPipeline(BuildStats* stats) {
  FeatureCache cache(static_cast<size_t>(options_.feature_cache_mb) * 1024 *
                     1024);
  FeatureCache* cache_ptr =
      options_.feature_cache_mb > 0 ? &cache : nullptr;

  std::vector<std::string> keys;
  FIX_RETURN_IF_ERROR(
      IndexDocuments(0, corpus_->num_docs(), cache_ptr, stats, &keys));

  // One sort of the (unique) encoded keys, then clustered copies in key
  // order, then the packed load.
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<std::string, std::string>> kv;
  kv.reserve(keys.size());
  for (std::string& key : keys) {
    uint64_t offset = 0;
    if (options_.clustered) {
      const NodeRef ref = DecodeFeatureKey(key).ref;
      std::string buf;
      EncodeDocument(corpus_->doc(ref.doc_id), &buf, ref.node_id);
      RecordId rid;
      FIX_ASSIGN_OR_RETURN(rid, clustered_.Append(buf));
      offset = rid.offset;
    }
    kv.emplace_back(std::move(key),
                    EncodeIndexValue(options_.clustered, offset));
  }
  if (options_.clustered) FIX_RETURN_IF_ERROR(clustered_.Sync());
  FIX_RETURN_IF_ERROR(btree_->BulkLoad(kv));

  if (stats != nullptr && cache_ptr != nullptr) {
    FeatureCacheStats cs = cache.Stats();
    stats->feature_cache_hits = cs.hits;
    stats->feature_cache_misses = cs.misses;
    stats->feature_cache_evictions = cs.evictions;
  }
  return Status::OK();
}

Status FixIndex::CommitBatch(const std::vector<std::string>& inserts,
                             uint32_t new_indexed_docs) {
  if (wal_.failed()) {
    // Fail-stop: a previous commit's append or fsync failed, and its record
    // may or may not be durable. Until a reopen replays the log, no new
    // batch may run — PrepareCommit would flush fresh pages over pages an
    // ambiguously-durable commit record still references.
    return Status::IOError(
        "write-ahead log is dead after a failed commit flush; reopen the "
        "index to recover");
  }
  FIX_RETURN_IF_ERROR(btree_->BeginBatch());
  // Everything up to the WAL fsync can fail without consequence: the batch
  // is invisible to readers and AbortBatch reclaims its pages.
  Status staged = [&]() -> Status {
    for (const std::string& key : inserts) {
      FIX_RETURN_IF_ERROR(btree_->Insert(key, std::string_view()));
    }
    WalCommit commit;
    FIX_ASSIGN_OR_RETURN(commit, btree_->PrepareCommit());
    commit.indexed_docs = new_indexed_docs;
    // The point of no return. Once this fsync succeeds the generation is
    // durable; until then it does not exist. A failure here (including a
    // failed fsync — never ack an unsynced commit) fail-stops the log and
    // surfaces as IOError, which Database turns into a quarantine.
    return wal_.AppendCommit(commit);
  }();
  if (!staged.ok()) {
    // If the failure happened inside the WAL append itself, the record's
    // durability is ambiguous — it may be fully on disk with only the
    // fsync's acknowledgment lost. The fresh pages it references must then
    // survive untouched for a possible replay, so the abort neither blanks
    // nor recycles them. Any earlier failure provably never reached the
    // log, and the pages are reclaimed normally.
    btree_->AbortBatch(/*blank_pages=*/!wal_.failed());
    return staged;
  }
  btree_->FinalizeCommit();
  indexed_docs_ = new_indexed_docs;
  // Checkpoint the committed generation into the data file's meta page and
  // the sidecar, then retire the log. Failures past this point cannot undo
  // the commit — the WAL carries it and reopening replays it — but they do
  // mean durability is now resting on the log alone, so they still
  // propagate (fail-stop) rather than being papered over.
  FIX_RETURN_IF_ERROR(btree_->Checkpoint());
  FIX_RETURN_IF_ERROR(WriteMeta());
  return wal_.Reset();
}

Status FixIndex::InsertDocument(uint32_t doc_id, BuildStats* stats) {
  if (options_.clustered) {
    return Status::NotSupported(
        "incremental insertion requires the unclustered layout; clustered "
        "copies are materialized in key order at build time");
  }
  if (doc_id >= corpus_->num_docs()) {
    return Status::InvalidArgument("doc_id not in corpus");
  }
  histogram_.reset();  // estimates must see the new entries
  // The same pipeline Build runs, over this one document, with no
  // feature cache.
  std::vector<std::string> keys;
  FIX_RETURN_IF_ERROR(
      IndexDocuments(doc_id, doc_id + 1, nullptr, stats, &keys));
  // Coverage extends atomically with the entries: the WAL commit carries
  // the new count, so recovery can never adopt the entries without it (or
  // vice versa).
  uint32_t new_docs = indexed_docs_;
  if (new_docs != kIndexedDocsUnknown) {
    new_docs = std::max(new_docs, doc_id + 1);
  }
  return CommitBatch(keys, new_docs);
}

Result<uint64_t> FixIndex::EstimateCandidates(const TwigQuery& query) {
  if (histogram_ == nullptr) {
    auto hist = FeatureHistogram::FromBTree(btree_.get());
    if (!hist.ok()) return hist.status();
    histogram_ =
        std::make_unique<FeatureHistogram>(std::move(hist).value());
  }
  std::vector<TwigQuery> parts = DecomposeAtDescendantEdges(query);
  FIX_CHECK(!parts.empty());
  const double eps = options_.epsilon;

  if (options_.depth_limit > 0) {
    if (parts[0].Depth() > options_.depth_limit) {
      return btree_->num_entries();  // uncovered: full scan, nothing pruned
    }
    const QueryStep& root = parts[0].steps[parts[0].root];
    if (parts[0].HasWildcard()) {
      return root.wildcard ? btree_->num_entries()
                           : histogram_->LabelCount(root.label);
    }
    FeatureKey probe;
    FIX_ASSIGN_OR_RETURN(probe, QueryFeatures(parts[0]));
    return histogram_->EstimateGreaterEqual(probe.root_label,
                                            probe.lambda_max - eps);
  }
  // Whole-document index: the intersection across sub-twigs is bounded by
  // the most selective part.
  uint64_t best = btree_->num_entries();
  for (size_t i = 0; i < parts.size(); ++i) {
    bool label_ok = (i == 0) &&
                    parts[0].steps[parts[0].root].axis == Axis::kChild &&
                    !parts[0].steps[parts[0].root].wildcard;
    if (parts[i].HasWildcard()) {
      if (i == 0 && label_ok) {
        best = std::min(best,
                        histogram_->LabelCount(parts[0].steps[0].label));
      }
      continue;
    }
    FeatureKey probe;
    FIX_ASSIGN_OR_RETURN(probe, QueryFeatures(parts[i]));
    uint64_t estimate =
        label_ok ? histogram_->EstimateGreaterEqual(probe.root_label,
                                                    probe.lambda_max - eps)
                 : histogram_->EstimateGreaterEqualAllLabels(
                       probe.lambda_max - eps);
    best = std::min(best, estimate);
  }
  return best;
}

Status FixIndex::WriteMeta() const {
  IndexMeta meta;
  meta.options = options_;
  meta.options.path.clear();  // path is where the caller found the file
  {
    // Readers may be interning query pairs concurrently with the writer's
    // sidecar rewrite; the export must see a consistent table.
    MutexLock lock(*encoder_mu_);
    meta.edge_weights = encoder_.Export();
  }
  meta.storage_format = kPageFormatVersion;
  meta.indexed_docs = indexed_docs_;
  meta.generation = btree_->generation();
  meta.wal_bytes = wal_.state().valid_bytes;
  return WriteFile(options_.path + ".meta", EncodeIndexMeta(meta));
}

Result<FixIndex> FixIndex::Open(
    Corpus* corpus, const std::string& path,
    const std::function<std::unique_ptr<PageIo>()>& page_io_factory,
    const std::function<std::unique_ptr<PageIo>()>& wal_io_factory) {
  // Indexes written before meta v5 kept a kd-tree probe cache beside the
  // B+-tree. Nothing reads it any more; unlink it so an upgraded index does
  // not carry its bytes forever.
  std::remove((path + kLegacyKdTreeSuffix).c_str());
  std::string meta_buf;
  FIX_ASSIGN_OR_RETURN(meta_buf, ReadFile(path + ".meta"));
  IndexMeta meta;
  FIX_ASSIGN_OR_RETURN(meta, DecodeIndexMeta(meta_buf));
  if (meta.version < kIndexMetaVersion) {
    // Entries written before meta v7 carry the 32-byte key with λ_min and
    // a sequence number, and a 16-byte value. Refuse before touching the
    // log or any page; Database::Open upgrades such an index by rebuilding
    // it from the corpus.
    return Status::NotSupported("index meta v" + std::to_string(meta.version) +
                                " predates the 28-byte entry key; rebuild " +
                                path);
  }
  meta.options.path = path;
  meta.options.page_io_factory = page_io_factory;
  meta.options.wal_io_factory = wal_io_factory;

  FixIndex index(corpus, meta.options);
  index.indexed_docs_ = meta.indexed_docs;
  index.encoder_.Import(meta.edge_weights);
  index.file_ = page_io_factory != nullptr
                    ? std::make_unique<PageFile>(page_io_factory())
                    : std::make_unique<PageFile>();
  FIX_RETURN_IF_ERROR(index.file_->Open(path, /*create=*/false));
  index.pool_ = std::make_unique<BufferPool>(index.file_.get(),
                                             meta.options.buffer_pool_pages);
  {
    // The log is scanned before the tree so a torn data-file meta page can
    // be rolled forward from it. A missing log (an index persisted before
    // the WAL existed) is recreated empty.
    auto wal = Wal::Open(path + ".wal", kFeatureKeySize,
                         IndexValueSize(meta.options.clustered),
                         wal_io_factory);
    if (!wal.ok()) return wal.status();
    index.wal_ = std::move(wal).value();
  }
  const WalScanResult& ws = index.wal_.state();
  bool recovered = false;
  {
    auto tree = BTree::Open(index.pool_.get());
    if (!tree.ok() && tree.status().IsCorruption() && ws.has_commit) {
      // The data file's meta page is torn but the log carries a durable
      // commit: rebuild the tree handle from the log's geometry + record.
      tree = BTree::OpenRecovered(index.pool_.get(), ws.key_size,
                                  ws.value_size, ws.last_commit);
      recovered = tree.ok();
    }
    if (!tree.ok()) return tree.status();
    index.btree_ = std::make_unique<BTree>(std::move(tree).value());
  }
  if (ws.has_commit) {
    if (ws.last_commit.generation > index.btree_->generation()) {
      // Roll forward: the crash hit after the commit fsync but before the
      // checkpoint reached the data file's meta page.
      FIX_RETURN_IF_ERROR(index.btree_->AdoptCommit(ws.last_commit));
      recovered = true;
    }
    if (ws.last_commit.generation >= index.btree_->generation()) {
      // The log's commit is the latest durable state; its application
      // field supersedes a sidecar the crash may have left stale.
      index.indexed_docs_ =
          static_cast<uint32_t>(ws.last_commit.indexed_docs);
    }
  }
  const bool dirty = recovered || ws.records > 0 || ws.torn_tail;
  if (dirty) {
    // Something was in flight when the last process died. Reclaim whatever
    // the uncommitted generation left behind, checkpoint the adopted state,
    // and retire the log.
    FIX_RETURN_IF_ERROR(index.ReclaimUnreachable());
    FIX_RETURN_IF_ERROR(index.btree_->Checkpoint());
    FIX_RETURN_IF_ERROR(index.WriteMeta());
    FIX_RETURN_IF_ERROR(index.wal_.Reset());
  }
  if (meta.options.clustered) {
    FIX_RETURN_IF_ERROR(
        index.clustered_.Open(path + ".data", /*create=*/false));
  }
  if (meta.options.value_beta > 0) {
    // Re-interning the bucket labels is idempotent against a restored
    // label table, so hashed labels line up with the persisted encoding.
    index.value_hasher_ = std::make_unique<ValueHasher>(
        corpus->labels(), meta.options.value_beta);
  }
  return index;
}

Status FixIndex::ReclaimUnreachable() {
  std::unordered_set<PageId> reachable;
  FIX_RETURN_IF_ERROR(btree_->VerifyAndCollect(&reachable));
  const PageId num_pages = file_->num_pages();
  std::vector<PageId> spare;
  std::vector<char> scratch(kPageSize);
  const std::vector<char> blank(kPageSize, 0);
  for (PageId p = 1; p < num_pages; ++p) {
    if (reachable.count(p) > 0) continue;
    // Unreachable pages are either intact relics of superseded generations
    // or torn/never-written allocations of the generation the crash killed.
    // The latter would trip a later offline scrub, so restamp them as blank
    // (validly framed, empty) pages before recycling either kind.
    Status valid = file_->ReadPage(p, scratch.data());
    if (valid.IsCorruption()) {
      FIX_RETURN_IF_ERROR(file_->WritePage(p, blank.data()));
    } else if (!valid.ok()) {
      return valid;
    }
    spare.push_back(p);
  }
  btree_->AddReusablePages(spare);
  return Status::OK();
}

Result<FeatureKey> FixIndex::QueryFeatures(const TwigQuery& subtwig) {
  BisimGraph pattern;
  FIX_ASSIGN_OR_RETURN(pattern,
                       QueryToBisimGraph(subtwig, value_hasher_.get()));
  DenseMatrix m(0);
  {
    // Query patterns may contain label pairs the corpus never produced;
    // weighting them interns into the shared encoder, which concurrent
    // lookups must serialize. The eigensolve below stays outside the lock.
    MutexLock lock(*encoder_mu_);
    m = BuildSkewMatrix(pattern, &encoder_);
  }
  if (!options_.sound_probe) {
    auto sigmas = SkewSpectrum(m);
    if (sigmas.ok()) {
      return MakeKey(pattern.vertex(pattern.root()).label,
                     EigPairFromSpectrum(*sigmas));
    }
    // Eigensolver failure on a (huge) query pattern: fall through to the
    // pairwise bound below — sound, merely less selective.
  }
  // Sound relaxation: probe with the largest single edge weight. Each edge
  // of the query pattern survives any homomorphic image as a 2-vertex
  // induced subgraph of the data pattern, so Theorem 3 applies to it even
  // when the full pattern embeds non-induced or quotiented.
  double max_w = 0;
  for (size_t i = 0; i < m.n(); ++i) {
    for (size_t j = 0; j < m.n(); ++j) {
      max_w = std::max(max_w, m.at(i, j));
    }
  }
  FeatureKey key;
  key.root_label = pattern.vertex(pattern.root()).label;
  key.lambda_max = max_w;
  return key;
}

Result<FixIndex::LookupResult> FixIndex::Probe(const TwigQuery& subtwig,
                                               bool use_root_label) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  static Counter* probes = registry.FindOrCreateCounter(
      "fix.index.probe.count", "ops", "containment range probes");
  static Histogram* probe_us = registry.FindOrCreateHistogram(
      "fix.index.probe_us", "us", "containment probe latency");
  TraceSpan span("index.probe");
  Timer timer;
  FeatureKey probe;
  FIX_ASSIGN_OR_RETURN(probe, QueryFeatures(subtwig));
  LookupResult out;
  FIX_ASSIGN_OR_RETURN(out, ProbeBTree(probe, use_root_label));
  probes->Increment();
  probe_us->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
  span.AddAttr("entries_scanned", out.entries_scanned);
  span.AddAttr("candidates", static_cast<uint64_t>(out.candidates.size()));
  return out;
}

Result<FixIndex::LookupResult> FixIndex::ProbeBTree(const FeatureKey& probe,
                                                    bool use_root_label) {
  LookupResult out;
  const double eps = options_.epsilon;

  BTree::Iterator it;
  if (use_root_label) {
    // Seek to the first entry with this root label and λ_max >= probe − ε;
    // everything after it in the (label, λ_max) order satisfies the λ_max
    // half of the containment test until the label changes.
    FeatureKey seek_key;
    seek_key.root_label = probe.root_label;
    seek_key.lambda_max = probe.lambda_max - eps;
    seek_key.lambda2 = -std::numeric_limits<double>::infinity();
    FIX_ASSIGN_OR_RETURN(it, btree_->Seek(EncodeFeatureKey(seek_key)));
  } else {
    // Label pruning unsound for this probe (descendant-rooted query against
    // whole-document units): scan all entries, filter on eigenvalues only.
    FIX_ASSIGN_OR_RETURN(it, btree_->SeekFirst());
  }
  // The containment filters compare encoded key slices directly (the
  // layout is memcmp-ordered); keys are only decoded for candidates.
  char label_bytes[4];
  EncodeBigEndian32(label_bytes, probe.root_label);
  char lmax_lo[8];
  EncodeBigEndian64(lmax_lo,
                    OrderPreservingDouble(probe.lambda_max - eps));
  char l2_lo[8];
  EncodeBigEndian64(l2_lo, OrderPreservingDouble(probe.lambda2 - eps));
  const bool filter_l2 = options_.use_lambda2 && !options_.sound_probe;

  while (it.Valid()) {
    std::string_view key = it.key();
    if (use_root_label && std::memcmp(key.data(), label_bytes, 4) != 0) {
      break;
    }
    ++out.entries_scanned;
    // λ_min = −λ_max for every key and probe (feature.h), so the paper's
    // λ_min bound is this λ_max bound and is not tested separately.
    bool pass = std::memcmp(key.data() + 4, lmax_lo, 8) >= 0;
    if (pass && filter_l2) {
      pass = std::memcmp(key.data() + 12, l2_lo, 8) >= 0;
    }
    if (pass) {
      out.candidates.push_back(
          Candidate{DecodeFeatureKey(key), DecodeIndexValue(it.value())});
    }
    FIX_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Result<FixIndex::LookupResult> FixIndex::LabelOnlyScan(LabelId label) {
  // Wildcard degradation: every entry with this root label is a candidate
  // (no spectral filter — a wildcard edge has no weight to compare).
  LookupResult out;
  FeatureKey seek_key;
  seek_key.root_label = label;
  seek_key.lambda_max = -std::numeric_limits<double>::infinity();
  seek_key.lambda2 = -std::numeric_limits<double>::infinity();
  BTree::Iterator it;
  FIX_ASSIGN_OR_RETURN(it, btree_->Seek(EncodeFeatureKey(seek_key)));
  char label_bytes[4];
  EncodeBigEndian32(label_bytes, label);
  while (it.Valid()) {
    std::string_view key = it.key();
    if (std::memcmp(key.data(), label_bytes, 4) != 0) break;
    ++out.entries_scanned;
    out.candidates.push_back(
        Candidate{DecodeFeatureKey(key), DecodeIndexValue(it.value())});
    FIX_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Result<FixIndex::LookupResult> FixIndex::Lookup(const TwigQuery& query) {
  std::vector<TwigQuery> parts = DecomposeAtDescendantEdges(query);
  FIX_CHECK(!parts.empty());

  if (options_.depth_limit > 0) {
    // Coverage check (Algorithm 2 step 1): the index answers the top
    // sub-twig only if its pattern depth fits within the limit. Deeper
    // documents were indexed as single units too (limit 0 path), so a
    // depth-limited index strictly covers patterns of depth <= L.
    LookupResult out;
    if (parts[0].Depth() > options_.depth_limit) {
      out.covered = false;
      return out;
    }
    if (parts[0].HasWildcard()) {
      // Spectral probing unavailable; prune by root label if it is
      // concrete, otherwise hand the query to the full scan.
      const QueryStep& root = parts[0].steps[parts[0].root];
      if (root.wildcard) {
        out.covered = false;
        return out;
      }
      FIX_ASSIGN_OR_RETURN(out, LabelOnlyScan(root.label));
    } else {
      // Interior descendant sub-twigs give no pruning power here
      // (Section 5).
      FIX_ASSIGN_OR_RETURN(out, Probe(parts[0]));
    }
    out.candidates = GroupByDocument(out.candidates, nullptr);
    return out;
  }

  // Whole-document index: every sub-twig prunes; candidates must appear in
  // the intersection of per-sub-twig candidate documents, kept as one
  // doc-id bitmap. Root-label pruning is only sound for the top sub-twig
  // of a rooted (/) query — a descendant-rooted pattern can match below the
  // document root, whose label is what whole-document entries carry.
  LookupResult merged;
  std::vector<Candidate> first_candidates;
  DocBitmap surviving;
  for (size_t i = 0; i < parts.size(); ++i) {
    bool label_ok = (i == 0) &&
                    parts[0].steps[parts[0].root].axis == Axis::kChild &&
                    !parts[0].steps[parts[0].root].wildcard;
    LookupResult part;
    if (parts[i].HasWildcard()) {
      if (i != 0) continue;  // later wildcard parts contribute no pruning
      if (label_ok) {
        FIX_ASSIGN_OR_RETURN(part, LabelOnlyScan(parts[0].steps[0].label));
      } else {
        // No usable feature on the top part: fall back to the full scan.
        LookupResult out;
        out.covered = false;
        return out;
      }
    } else {
      FIX_ASSIGN_OR_RETURN(part, Probe(parts[i], label_ok));
    }
    merged.entries_scanned += part.entries_scanned;
    DocBitmap docs = MarkDocs(part.candidates);
    if (i == 0) {
      first_candidates = std::move(part.candidates);
      surviving = std::move(docs);
    } else {
      // A document past the end of either bitmap is in neither.
      surviving.resize(std::min(surviving.size(), docs.size()));
      for (size_t w = 0; w < surviving.size(); ++w) surviving[w] &= docs[w];
    }
  }
  merged.candidates = GroupByDocument(first_candidates, &surviving);
  return merged;
}

}  // namespace fix
