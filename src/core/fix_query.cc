#include "core/fix_query.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/metrics_registry.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/match.h"
#include "xml/serializer.h"

namespace fix {

namespace {

/// Whether the query's first step must bind directly under the document
/// node (a rooted query: /a/...). Candidates violating this are rejected
/// before matching.
bool IsRootedQuery(const TwigQuery& q) {
  return q.steps[q.root].axis == Axis::kChild;
}

// Query-path metrics (docs/OBSERVABILITY.md). One RecordExecStats call per
// finished execution keeps the hot refinement loops free of atomics.
struct QueryMetrics {
  Counter* queries;
  Counter* fullscans;
  Counter* uncovered;
  Counter* candidates;
  Counter* producing;
  Counter* results;
  Counter* entries_scanned;
  Counter* nodes_visited;
  Counter* random_reads;
  Counter* sequential_bytes;
  Histogram* lookup_us;
  Histogram* refine_us;
};

const QueryMetrics& GetQueryMetrics() {
  static const QueryMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Instance();
    QueryMetrics qm;
    qm.queries = r.FindOrCreateCounter("fix.query.count", "ops",
                                       "queries executed (any path)");
    qm.fullscans = r.FindOrCreateCounter(
        "fix.query.fullscan.count", "ops",
        "queries answered by the navigational full scan");
    qm.uncovered = r.FindOrCreateCounter(
        "fix.query.uncovered.count", "ops",
        "queries deeper than the index's depth limit");
    // Degradation is counted by fix.storage.degraded_queries (database.cc):
    // the Database decides to degrade after this layer's stats are already
    // recorded, so a counter here would never move.
    qm.candidates = r.FindOrCreateCounter(
        "fix.query.candidates.total", "entries",
        "index-probe candidates across all queries (cdt)");
    qm.producing = r.FindOrCreateCounter(
        "fix.query.producing.total", "entries",
        "candidates that produced >= 1 result (rst)");
    qm.results = r.FindOrCreateCounter("fix.query.results.total", "nodes",
                                       "result bindings returned");
    qm.entries_scanned = r.FindOrCreateCounter(
        "fix.query.entries_scanned.total", "entries",
        "B+-tree leaf entries touched during probes");
    qm.nodes_visited = r.FindOrCreateCounter(
        "fix.query.nodes_visited.total", "nodes",
        "matcher nodes visited during refinement");
    qm.random_reads = r.FindOrCreateCounter(
        "fix.query.random_reads.total", "ops",
        "primary-storage pointer dereferences during refinement");
    qm.sequential_bytes = r.FindOrCreateCounter(
        "fix.query.sequential_bytes.total", "bytes",
        "clustered-store bytes read during refinement");
    qm.lookup_us = r.FindOrCreateHistogram(
        "fix.query.lookup_us", "us",
        "candidate-selection (index probe) latency");
    qm.refine_us = r.FindOrCreateHistogram("fix.query.refine_us", "us",
                                           "refinement latency");
    return qm;
  }();
  return m;
}

/// EvaluateDocuments' loop over positions [begin, end) of its list.
void EvaluateRange(const Corpus& corpus, const TwigQuery& query,
                   const std::vector<uint32_t>* docs, size_t begin,
                   size_t end, ExecStats* stats,
                   std::vector<NodeRef>* results) {
  for (size_t i = begin; i < end; ++i) {
    const uint32_t d = docs == nullptr ? static_cast<uint32_t>(i) : (*docs)[i];
    TwigMatcher matcher(&corpus.doc(d));
    const std::vector<NodeId> bindings = matcher.Evaluate(query);
    stats->nodes_visited += matcher.nodes_visited();
    stats->result_count += bindings.size();
    if (!bindings.empty()) ++stats->producing;
    if (results != nullptr) {
      for (NodeId b : bindings) results->push_back({d, b});
    }
  }
}

/// The one per-document evaluation loop, shared by the full scan and
/// whole-document (depth-0, unclustered) refinement: TwigMatcher::Evaluate
/// over each document of `docs` in list order (every corpus document,
/// ascending, when `docs` is null). Adds nodes_visited, result_count and
/// producing (documents with >= 1 binding) to `stats` and appends the
/// (doc, node) bindings to `results` (optional). With a multi-thread
/// `pool` the list is cut into contiguous chunks, each with its own output,
/// concatenated in chunk order, so results and stats are byte-identical to
/// the sequential loop. Returns the number of documents evaluated.
uint64_t EvaluateDocuments(const Corpus& corpus, const TwigQuery& query,
                           const std::vector<uint32_t>* docs, ThreadPool* pool,
                           ExecStats* stats, std::vector<NodeRef>* results) {
  const size_t n = docs == nullptr ? corpus.num_docs() : docs->size();
  if (pool == nullptr || pool->num_threads() <= 1) {
    EvaluateRange(corpus, query, docs, 0, n, stats, results);
    return n;
  }
  // Contiguous chunks, a few per thread so that one large document cannot
  // idle the pool, each with its own output; concatenating them in chunk
  // order gives the sequential loop's results and sums.
  struct Chunk {
    ExecStats stats;
    std::vector<NodeRef> results;
  };
  const size_t num_chunks = std::min(n, pool->num_threads() * 4);
  std::vector<Chunk> chunks(num_chunks);
  ParallelFor(pool, num_chunks, [&](size_t c) {
    EvaluateRange(corpus, query, docs, n * c / num_chunks,
                  n * (c + 1) / num_chunks, &chunks[c].stats,
                  results == nullptr ? nullptr : &chunks[c].results);
  });
  for (const Chunk& c : chunks) {
    stats->nodes_visited += c.stats.nodes_visited;
    stats->result_count += c.stats.result_count;
    stats->producing += c.stats.producing;
    if (results != nullptr) {
      results->insert(results->end(), c.results.begin(), c.results.end());
    }
  }
  return n;
}

}  // namespace

void RecordExecStats(const ExecStats& stats) {
  const QueryMetrics& m = GetQueryMetrics();
  m.queries->Increment();
  if (!stats.used_index) m.fullscans->Increment();
  if (!stats.covered) m.uncovered->Increment();
  if (stats.used_index) m.candidates->Add(stats.candidates);
  m.producing->Add(stats.producing);
  m.results->Add(stats.result_count);
  m.entries_scanned->Add(stats.entries_scanned);
  m.nodes_visited->Add(stats.nodes_visited);
  m.random_reads->Add(stats.random_reads);
  m.sequential_bytes->Add(stats.sequential_bytes);
  m.lookup_us->Record(static_cast<uint64_t>(stats.lookup_ms * 1000.0));
  m.refine_us->Record(static_cast<uint64_t>(stats.refine_ms * 1000.0));
}

Result<ExecStats> FixQueryProcessor::Execute(const TwigQuery& query,
                                             std::vector<NodeRef>* results) {
  if (results != nullptr) results->clear();
  TraceSpan span("query.execute");
  Timer timer;
  FixIndex::LookupResult lookup;
  {
    TraceSpan lookup_span("query.lookup");
    auto lookup_or = index_->Lookup(query);
    if (!lookup_or.ok()) return lookup_or.status();
    lookup = std::move(lookup_or).value();
    lookup_span.AddAttr("candidates",
                        static_cast<uint64_t>(lookup.candidates.size()));
    lookup_span.AddAttr("entries_scanned", lookup.entries_scanned);
  }
  if (!lookup.covered) {
    // Algorithm 2 step 1 failed: the optimizer falls back to the
    // navigational operator over the whole database. The lookup-side costs
    // paid before the decision (depth check, any partial probes) ride along
    // in the seed so the fallback's stats don't report zero lookup cost.
    span.AddAttr("path", "fullscan");
    ExecStats seed;
    seed.lookup_ms = timer.ElapsedMillis();
    seed.entries_scanned = lookup.entries_scanned;
    return FullScan(query, results, &seed);
  }
  ExecStats stats;
  stats.lookup_ms = timer.ElapsedMillis();
  stats.total_entries = index_->num_entries();
  stats.candidates = lookup.candidates.size();
  stats.entries_scanned = lookup.entries_scanned;

  timer.Reset();
  FIX_RETURN_IF_ERROR(
      RefineCandidates(query, lookup.candidates, &stats, results));
  stats.refine_ms = timer.ElapsedMillis();
  RecordExecStats(stats);
  return stats;
}

void FixQueryProcessor::RefineDocGroup(
    const TwigQuery& query, const std::vector<FixIndex::Candidate>& candidates,
    size_t begin, size_t end, bool rooted, GroupOutcome* out) {
  const IndexOptions& options = index_->options();
  const uint32_t doc_id = candidates[begin].key.ref.doc_id;
  const Document& doc = corpus_->doc(doc_id);

  if (options.clustered) {
    const bool doc_unit = options.depth_limit == 0;
    for (size_t i = begin; i < end; ++i) {
      const FixIndex::Candidate& c = candidates[i];
      // Clustered refinement reads the subtree copy (sequential I/O — the
      // copies were laid out in key order) and matches on the copy.
      auto record_or =
          index_->clustered_store()->Read(RecordId{c.clustered_offset});
      if (!record_or.ok()) {
        out->status = record_or.status();
        return;
      }
      std::string record = std::move(record_or).value();
      out->sequential_bytes += record.size();
      auto copy_or = DecodeDocument(record);
      if (!copy_or.ok()) {
        out->status = copy_or.status();
        return;
      }
      Document copy = std::move(copy_or).value();
      TwigMatcher copy_matcher(&copy);
      std::vector<NodeId> bindings;
      if (doc_unit) {
        bindings = copy_matcher.Evaluate(query);
      } else {
        if (rooted && doc.parent(c.key.ref.node_id) != 0) {
          // /-rooted query: the candidate must be the document's root
          // element (checked against primary metadata, not the copy).
          continue;
        }
        bindings = copy_matcher.EvaluateAt(copy.root_element(), query);
      }
      out->nodes_visited += copy_matcher.nodes_visited();
      if (!bindings.empty()) {
        ++out->producing;
        out->result_count += bindings.size();
      }
    }
    return;
  }

  // Unclustered: dereferencing the pointer into primary storage is one
  // would-be random I/O per candidate; we account for it in random_reads
  // without issuing a syscall so that the timed path compares engines on
  // equal (in-memory) footing. See EXPERIMENTS.md for the I/O analysis.
  // One matcher pass answers the whole group, sorted and unique.
  out->random_reads += end - begin;
  TwigMatcher matcher(&doc);
  std::vector<NodeId> contexts;
  contexts.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    contexts.push_back(candidates[i].key.ref.node_id);
  }
  TwigMatcher::PassStats pass;
  std::vector<NodeId> bindings =
      matcher.EvaluateFrom(contexts, query, rooted, &pass);
  out->producing += pass.producing;
  out->contexts += pass.contexts;
  out->frontier += pass.frontier;
  out->nodes_visited += matcher.nodes_visited();
  out->result_count = bindings.size();
  out->results.reserve(bindings.size());
  for (NodeId b : bindings) out->results.push_back({doc_id, b});
}

Status FixQueryProcessor::RefineCandidates(
    const TwigQuery& query,
    const std::vector<FixIndex::Candidate>& candidates, ExecStats* stats,
    std::vector<NodeRef>* results) {
  TraceSpan span("query.refine");
  const IndexOptions& options = index_->options();
  uint64_t docs = 0;
  uint64_t contexts = 0;
  uint64_t frontier = 0;

  if (options.depth_limit == 0 && !options.clustered) {
    // Whole-document candidates are the documents themselves, one entry
    // each, in ascending doc id (Lookup's postcondition): the full scan's
    // loop over just these documents. Each candidate is one would-be
    // random read of primary storage, as in RefineDocGroup.
    std::vector<uint32_t> doc_ids;
    doc_ids.reserve(candidates.size());
    for (const FixIndex::Candidate& c : candidates) {
      FIX_DCHECK(doc_ids.empty() || doc_ids.back() < c.key.ref.doc_id);
      doc_ids.push_back(c.key.ref.doc_id);
    }
    stats->random_reads += candidates.size();
    docs = EvaluateDocuments(*corpus_, query, &doc_ids, pool_, stats,
                             results);
  } else {
    // Lookup hands the candidates over grouped by ascending doc id: each
    // run is one matcher pass, whose results come out in node order, and a
    // parallel work unit (documents are disjoint, so the in-order merge
    // yields (doc, node) order, as the full scan does).
    const bool rooted = IsRootedQuery(query);
    std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) per doc
    for (size_t i = 0; i < candidates.size();) {
      size_t j = i + 1;
      while (j < candidates.size() &&
             candidates[j].key.ref.doc_id == candidates[i].key.ref.doc_id) {
        ++j;
      }
      groups.emplace_back(i, j);
      i = j;
    }
    docs = groups.size();

    std::vector<GroupOutcome> outcomes(groups.size());
    ParallelFor(pool_, groups.size(), [&](size_t g) {
      RefineDocGroup(query, candidates, groups[g].first, groups[g].second,
                     rooted, &outcomes[g]);
    });

    size_t total_results = 0;
    for (const GroupOutcome& o : outcomes) {
      FIX_RETURN_IF_ERROR(o.status);
      total_results += o.results.size();
    }
    if (results != nullptr) results->reserve(results->size() + total_results);
    for (const GroupOutcome& o : outcomes) {
      stats->nodes_visited += o.nodes_visited;
      stats->producing += o.producing;
      stats->result_count += o.result_count;
      stats->random_reads += o.random_reads;
      stats->sequential_bytes += o.sequential_bytes;
      contexts += o.contexts;
      frontier += o.frontier;
      if (results != nullptr) {
        results->insert(results->end(), o.results.begin(), o.results.end());
      }
    }
  }
  span.AddAttr("docs", docs);
  span.AddAttr("nodes_visited", stats->nodes_visited);
  span.AddAttr("results", stats->result_count);
  span.AddAttr("contexts", contexts);
  span.AddAttr("frontier", frontier);
  return Status::OK();
}

Result<ExecStats> FullScanExecute(Corpus* corpus, const TwigQuery& query,
                                  std::vector<NodeRef>* results,
                                  uint64_t total_entries, ThreadPool* pool,
                                  const ExecStats* seed) {
  if (results != nullptr) results->clear();
  TraceSpan span("query.fullscan");
  ExecStats stats;
  if (seed != nullptr) stats = *seed;
  stats.covered = false;
  stats.used_index = false;
  stats.total_entries = total_entries;
  stats.candidates = stats.total_entries;  // nothing pruned
  Timer timer;
  const uint64_t docs =
      EvaluateDocuments(*corpus, query, nullptr, pool, &stats, results);
  stats.refine_ms = timer.ElapsedMillis();
  span.AddAttr("docs", docs);
  RecordExecStats(stats);
  return stats;
}

Result<ExecStats> FixQueryProcessor::FullScan(const TwigQuery& query,
                                              std::vector<NodeRef>* results,
                                              const ExecStats* seed) {
  return FullScanExecute(corpus_, query, results, index_->num_entries(),
                         pool_, seed);
}

}  // namespace fix
