#include "core/fix_query.h"

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

/// The one per-document evaluation loop, shared by the full scan and
/// whole-document (depth-0, unclustered) refinement: TwigMatcher::Evaluate
/// over each document of `docs` in list order (every corpus document,
/// ascending, when `docs` is null). Adds nodes_visited, result_count and
/// producing (documents with >= 1 binding) to `stats` and appends the
/// (doc, node) bindings to `results` (optional). Returns the number of
/// documents evaluated.
uint64_t EvaluateDocuments(const Corpus& corpus, const TwigQuery& query,
                           const std::vector<uint32_t>* docs,
                           ExecStats* stats, std::vector<NodeRef>* results) {
  const size_t n = docs == nullptr ? corpus.num_docs() : docs->size();
  for (size_t i = 0; i < n; ++i) {
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

Status FixQueryProcessor::RefineDocGroup(
    const TwigQuery& query, const std::vector<FixIndex::Candidate>& candidates,
    size_t begin, size_t end, bool rooted, ExecStats* stats,
    TwigMatcher::PassStats* pass, std::vector<NodeRef>* results) {
  const IndexOptions& options = index_->options();
  const uint32_t doc_id = candidates[begin].key.ref.doc_id;
  const Document& doc = corpus_->doc(doc_id);

  if (options.clustered) {
    const bool doc_unit = options.depth_limit == 0;
    for (size_t i = begin; i < end; ++i) {
      const FixIndex::Candidate& c = candidates[i];
      // Clustered refinement reads the subtree copy (sequential I/O — the
      // copies were laid out in key order) and matches on the copy.
      std::string record;
      FIX_ASSIGN_OR_RETURN(record, index_->clustered_store()->Read(
                                       RecordId{c.clustered_offset}));
      stats->sequential_bytes += record.size();
      Document copy;
      FIX_ASSIGN_OR_RETURN(copy, DecodeDocument(record));
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
      stats->nodes_visited += copy_matcher.nodes_visited();
      if (!bindings.empty()) {
        ++stats->producing;
        stats->result_count += bindings.size();
      }
    }
    return Status::OK();
  }

  // Unclustered: dereferencing the pointer into primary storage is one
  // would-be random I/O per candidate; we account for it in random_reads
  // without issuing a syscall so that the timed path compares engines on
  // equal (in-memory) footing. See EXPERIMENTS.md for the I/O analysis.
  // One matcher pass answers the whole group, sorted and unique.
  stats->random_reads += end - begin;
  TwigMatcher matcher(&doc);
  std::vector<NodeId> contexts;
  contexts.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    contexts.push_back(candidates[i].key.ref.node_id);
  }
  TwigMatcher::PassStats group;
  std::vector<NodeId> bindings =
      matcher.EvaluateFrom(contexts, query, rooted, &group);
  stats->producing += group.producing;
  pass->contexts += group.contexts;
  pass->frontier += group.frontier;
  stats->nodes_visited += matcher.nodes_visited();
  stats->result_count += bindings.size();
  if (results != nullptr) {
    for (NodeId b : bindings) results->push_back({doc_id, b});
  }
  return Status::OK();
}

Status FixQueryProcessor::RefineCandidates(
    const TwigQuery& query,
    const std::vector<FixIndex::Candidate>& candidates, ExecStats* stats,
    std::vector<NodeRef>* results) {
  TraceSpan span("query.refine");
  const IndexOptions& options = index_->options();
  uint64_t docs = 0;
  TwigMatcher::PassStats pass;

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
    docs = EvaluateDocuments(*corpus_, query, &doc_ids, stats, results);
  } else {
    // Lookup hands the candidates over grouped by ascending doc id: each
    // run is one matcher pass whose results come out in node order, so
    // appending run after run yields (doc, node) order, as the full scan
    // does.
    const bool rooted = IsRootedQuery(query);
    for (size_t i = 0; i < candidates.size();) {
      size_t j = i + 1;
      while (j < candidates.size() &&
             candidates[j].key.ref.doc_id == candidates[i].key.ref.doc_id) {
        ++j;
      }
      FIX_RETURN_IF_ERROR(RefineDocGroup(query, candidates, i, j, rooted,
                                         stats, &pass, results));
      ++docs;
      i = j;
    }
  }
  span.AddAttr("docs", docs);
  span.AddAttr("nodes_visited", stats->nodes_visited);
  span.AddAttr("results", stats->result_count);
  span.AddAttr("contexts", pass.contexts);
  span.AddAttr("frontier", pass.frontier);
  return Status::OK();
}

Result<ExecStats> FullScanExecute(Corpus* corpus, const TwigQuery& query,
                                  std::vector<NodeRef>* results,
                                  uint64_t total_entries,
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
      EvaluateDocuments(*corpus, query, nullptr, &stats, results);
  stats.refine_ms = timer.ElapsedMillis();
  span.AddAttr("docs", docs);
  RecordExecStats(stats);
  return stats;
}

Result<ExecStats> FixQueryProcessor::FullScan(const TwigQuery& query,
                                              std::vector<NodeRef>* results,
                                              const ExecStats* seed) {
  return FullScanExecute(corpus_, query, results, index_->num_entries(),
                         seed);
}

}  // namespace fix
