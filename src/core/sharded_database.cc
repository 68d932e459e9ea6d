#include "core/sharded_database.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/persist.h"
#include "query/xpath_parser.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace fix {

namespace {

constexpr char kManifestName[] = "shards.manifest";
constexpr char kMasterLabelsName[] = "labels.master";
constexpr uint32_t kManifestMagic = 0x48535846;  // "FXSH" little-endian
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kMaxShards = 256;

Counter& Scatters() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.shard.scatters", "ops",
      "queries fanned out across shards by ShardedDatabase");
  return *c;
}
Counter& ScatterLegs() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.shard.legs", "ops", "per-shard query legs executed");
  return *c;
}
Counter& DegradedLegs() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.shard.degraded_legs", "ops",
      "scatter legs answered by full scan (shard quarantined)");
  return *c;
}
Counter& ShardInserts() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.shard.inserts", "ops",
      "documents routed and committed through a sharded write path");
  return *c;
}
Counter& Rebalances() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.shard.rebalances", "ops",
      "completed online shard split/rebalance operations");
  return *c;
}
Gauge& OpenShards() {
  static Gauge* g = MetricsRegistry::Instance().FindOrCreateGauge(
      "fix.shard.open_shards", "shards",
      "shards attached across live sharded databases");
  return *g;
}
Histogram& FanoutLatency() {
  static Histogram* h = MetricsRegistry::Instance().FindOrCreateHistogram(
      "fix.shard.fanout_us", "us",
      "wall time of one scatter-gather across all shards");
  return *h;
}

std::string ShardDirName(uint64_t generation, uint32_t ordinal) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "gen-%llu/shard-%04u",
                static_cast<unsigned long long>(generation), ordinal);
  return buf;
}

std::string EncodeShardsManifest(const ShardLayout& layout) {
  std::string buf;
  PutFixed32(&buf, kManifestMagic);
  PutFixed32(&buf, kManifestVersion);
  PutFixed32(&buf, layout.shard_count);
  PutFixed64(&buf, layout.generation);
  PutFixed64(&buf, layout.total_docs);
  for (const std::string& dir : layout.shard_dirs) {
    PutFixed32(&buf, static_cast<uint32_t>(dir.size()));
    buf.append(dir);
  }
  return buf;
}

Result<ShardLayout> DecodeShardsManifest(const std::string& buf) {
  if (buf.size() < 28) {
    return Status::Corruption("shards.manifest: truncated header");
  }
  const char* p = buf.data();
  if (DecodeFixed32(p) != kManifestMagic) {
    return Status::Corruption("shards.manifest: bad magic");
  }
  if (DecodeFixed32(p + 4) != kManifestVersion) {
    return Status::Corruption("shards.manifest: unsupported version");
  }
  ShardLayout layout;
  layout.shard_count = DecodeFixed32(p + 8);
  layout.generation = DecodeFixed64(p + 12);
  layout.total_docs = DecodeFixed64(p + 20);
  if (layout.shard_count == 0 || layout.shard_count > kMaxShards) {
    return Status::Corruption("shards.manifest: shard count " +
                              std::to_string(layout.shard_count) +
                              " out of range");
  }
  size_t pos = 28;
  for (uint32_t s = 0; s < layout.shard_count; ++s) {
    if (pos + 4 > buf.size()) {
      return Status::Corruption("shards.manifest: truncated shard dir list");
    }
    const uint32_t len = DecodeFixed32(buf.data() + pos);
    pos += 4;
    if (len > 4096 || pos + len > buf.size()) {
      return Status::Corruption("shards.manifest: truncated shard dir name");
    }
    layout.shard_dirs.emplace_back(buf.data() + pos, len);
    pos += len;
  }
  if (pos != buf.size()) {
    return Status::Corruption("shards.manifest: trailing bytes");
  }
  return layout;
}

/// Deep-copies one document (Document itself is move-only; the binary
/// codec round-trip is the sanctioned copy: ids and text pools survive
/// exactly).
Result<Document> CopyDocument(const Document& doc) {
  std::string buf;
  EncodeDocument(doc, &buf);
  return DecodeDocument(buf);
}

/// Checks that `shard` is a prefix of `master` (same names at the same
/// dense ids). The mirror discipline makes this an invariant of every
/// correctly-persisted layout; a mismatch means the shard was written
/// against a different master and its label ids cannot be trusted.
Status CheckLabelPrefix(const LabelTable& master, const LabelTable& shard,
                        uint32_t ordinal) {
  if (shard.size() > master.size()) {
    return Status::Corruption(
        "shard " + std::to_string(ordinal) + " label table has " +
        std::to_string(shard.size()) + " labels but the master has only " +
        std::to_string(master.size()));
  }
  for (LabelId id = 0; id < shard.size(); ++id) {
    if (shard.Name(id) != master.Name(id)) {
      return Status::Corruption(
          "shard " + std::to_string(ordinal) + " label " + std::to_string(id) +
          " is '" + shard.Name(id) + "' but the master says '" +
          master.Name(id) + "'");
    }
  }
  return Status::OK();
}

}  // namespace

bool IsShardedLayout(const std::string& workdir) {
  std::error_code ec;
  return std::filesystem::exists(workdir + "/" + kManifestName, ec);
}

Result<ShardLayout> ReadShardLayout(const std::string& workdir) {
  std::string buf;
  FIX_ASSIGN_OR_RETURN(buf, ReadFile(workdir + "/" + kManifestName));
  return DecodeShardsManifest(buf);
}

ShardedDatabase::ShardedDatabase(std::string workdir)
    : workdir_(std::move(workdir)) {}

ShardedDatabase::~ShardedDatabase() {
  ReaderMutexLock lock(shards_mu_);
  OpenShards().Add(-static_cast<int64_t>(shards_.size()));
}

uint32_t ShardedDatabase::RouteDoc(uint32_t global_doc_id,
                                   uint32_t shard_count) {
  // splitmix64 finalizer: uniform over shard counts that are not powers of
  // two, and stable forever — Open() re-derives every document's placement
  // from this function alone.
  uint64_t x = global_doc_id;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % shard_count);
}

void ShardedDatabase::SyncShardLabels(const LabelTable& master,
                                      Corpus* corpus) {
  LabelTable* shard = corpus->labels();
  for (LabelId id = static_cast<LabelId>(shard->size()); id < master.size();
       ++id) {
    const LabelId got = shard->Intern(master.Name(id));
    FIX_CHECK(got == id);  // dense append-only ids: mirror reproduces master
  }
}

IndexOptions ShardedDatabase::OptionsForShard(uint32_t s) const {
  auto it = options_.shard_overrides.find(s);
  IndexOptions opts = it != options_.shard_overrides.end() ? it->second
                                                           : options_.index;
  opts.path.clear();  // each shard's Database derives its own
  return opts;
}

Status ShardedDatabase::WriteManifest(const ShardLayout& layout) const {
  const std::string path = workdir_ + "/" + kManifestName;
  const std::string tmp = path + ".tmp";
  FIX_RETURN_IF_ERROR(WriteFile(tmp, EncodeShardsManifest(layout)));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename " + tmp + ": " + ec.message());
  }
  return Status::OK();
}

Status ShardedDatabase::RewriteManifest() {
  ShardLayout layout;
  {
    ReaderMutexLock lock(shards_mu_);
    layout.shard_count = static_cast<uint32_t>(shards_.size());
    layout.generation = generation_;
    for (const auto& shard : shards_) {
      layout.shard_dirs.push_back(shard->dir.substr(workdir_.size() + 1));
    }
  }
  {
    MutexLock master(master_mu_);
    layout.total_docs = total_docs_;
  }
  return WriteManifest(layout);
}

Status ShardedDatabase::PersistMasterLabels() {
  std::string encoded;
  {
    MutexLock lock(master_mu_);
    encoded = EncodeLabelTable(master_labels_);
  }
  return WriteFile(workdir_ + "/" + kMasterLabelsName, encoded);
}

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Partition(
    const Corpus& source, const std::string& workdir,
    ShardedOptions options) {
  if (options.shard_count == 0 || options.shard_count > kMaxShards) {
    return Status::InvalidArgument("shard_count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (IsShardedLayout(workdir)) {
    return Status::InvalidArgument(workdir +
                                   " already holds a sharded layout");
  }
  const uint32_t n = options.shard_count;

  // Per-shard corpora, each a full label-table mirror of the source (the
  // source table IS the initial master).
  std::vector<Corpus> corpora(n);
  for (Corpus& c : corpora) SyncShardLabels(source.labels(), &c);
  for (uint32_t g = 0; g < source.num_docs(); ++g) {
    const uint32_t s = RouteDoc(g, n);
    Document copy;
    FIX_ASSIGN_OR_RETURN(copy, CopyDocument(source.doc(g)));
    corpora[s].AddDocument(std::move(copy));
  }

  ShardLayout layout;
  layout.shard_count = n;
  layout.generation = 0;
  layout.total_docs = source.num_docs();
  for (uint32_t s = 0; s < n; ++s) {
    const std::string dir = ShardDirName(/*generation=*/0, s);
    layout.shard_dirs.push_back(dir);
    std::error_code ec;
    std::filesystem::create_directories(workdir + "/" + dir, ec);
    if (ec) {
      return Status::IOError("mkdir " + workdir + "/" + dir + ": " +
                             ec.message());
    }
    FIX_RETURN_IF_ERROR(corpora[s].Save(workdir + "/" + dir));
  }
  FIX_RETURN_IF_ERROR(WriteFile(workdir + "/" + kMasterLabelsName,
                                EncodeLabelTable(source.labels())));
  {
    // Manifest last: its presence marks the layout complete (IsShardedLayout
    // keys off it, so a crash mid-partition leaves a non-layout).
    ShardedDatabase scratch(workdir);
    FIX_RETURN_IF_ERROR(scratch.WriteManifest(layout));
  }
  return Open(workdir, std::move(options));
}

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    const std::string& workdir, ShardedOptions options) {
  ShardLayout layout;
  FIX_ASSIGN_OR_RETURN(layout, ReadShardLayout(workdir));

  std::unique_ptr<ShardedDatabase> db(new ShardedDatabase(workdir));
  db->options_ = std::move(options);
  db->options_.shard_count = layout.shard_count;

  {
    std::string buf;
    FIX_ASSIGN_OR_RETURN(buf, ReadFile(workdir + "/" + kMasterLabelsName));
    MutexLock lock(db->master_mu_);
    FIX_RETURN_IF_ERROR(DecodeLabelTable(buf, &db->master_labels_));
    db->total_docs_ = layout.total_docs;
  }

  // Re-derive every document's placement: local ids ascend in global-id
  // order, so the whole mapping follows from (total_docs, shard_count).
  std::vector<std::vector<uint32_t>> to_global(layout.shard_count);
  for (uint64_t g = 0; g < layout.total_docs; ++g) {
    to_global[RouteDoc(static_cast<uint32_t>(g), layout.shard_count)]
        .push_back(static_cast<uint32_t>(g));
  }

  ShardVector shards;
  shards.reserve(layout.shard_count);
  for (uint32_t s = 0; s < layout.shard_count; ++s) {
    const std::string dir = workdir + "/" + layout.shard_dirs[s];
    // Each shard attaches and audits its own indexes — damage quarantines
    // inside that shard alone and never aborts the sharded open.
    Result<std::unique_ptr<Database>> opened =
        Database::Open(dir, db->options_.open);
    FIX_RETURN_IF_ERROR(opened.status());
    auto shard = std::make_shared<Shard>();
    shard->db = std::move(opened).value();
    shard->ordinal = s;
    shard->dir = dir;
    if (shard->db->corpus()->num_docs() != to_global[s].size()) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(shard->db->corpus()->num_docs()) +
          " documents but the manifest routing expects " +
          std::to_string(to_global[s].size()));
    }
    {
      MutexLock master(db->master_mu_);
      FIX_RETURN_IF_ERROR(CheckLabelPrefix(db->master_labels_,
                                           *shard->db->corpus()->labels(), s));
      WriterMutexLock gate(shard->gate);
      SyncShardLabels(db->master_labels_, shard->db->corpus());
      shard->to_global = std::move(to_global[s]);
    }
    shards.push_back(std::move(shard));
  }
  {
    WriterMutexLock lock(db->shards_mu_);
    db->shards_ = std::move(shards);
    db->generation_ = layout.generation;
  }
  OpenShards().Add(static_cast<int64_t>(layout.shard_count));

  size_t threads = db->options_.scatter_threads > 0
                       ? static_cast<size_t>(db->options_.scatter_threads)
                       : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<size_t>(threads, 64);
  if (layout.shard_count > 1 && threads > 1) {
    db->pool_ = std::make_unique<ThreadPool>(threads);
  }
  return db;
}

ShardedDatabase::ShardVector ShardedDatabase::SnapshotShards() const {
  ReaderMutexLock lock(shards_mu_);
  return shards_;
}

uint32_t ShardedDatabase::shard_count() const {
  ReaderMutexLock lock(shards_mu_);
  return static_cast<uint32_t>(shards_.size());
}

uint64_t ShardedDatabase::num_docs() const {
  MutexLock lock(master_mu_);
  return total_docs_;
}

uint64_t ShardedDatabase::layout_generation() const {
  ReaderMutexLock lock(shards_mu_);
  return generation_;
}

Database* ShardedDatabase::shard_db(uint32_t s) {
  ReaderMutexLock lock(shards_mu_);
  return s < shards_.size() ? shards_[s]->db.get() : nullptr;
}

bool ShardedDatabase::IsDegraded(const std::string& index_name) const {
  for (const auto& shard : SnapshotShards()) {
    if (shard->db->IsDegraded(index_name)) return true;
  }
  return false;
}

std::vector<bool> ShardedDatabase::DegradedShards(
    const std::string& index_name) const {
  ShardVector shards = SnapshotShards();
  std::vector<bool> degraded(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    degraded[s] = shards[s]->db->IsDegraded(index_name);
  }
  return degraded;
}

Status ShardedDatabase::BuildIndexes(const std::string& name,
                                     BuildStats* stats) {
  ShardVector shards = SnapshotShards();
  const size_t n = shards.size();
  std::vector<Status> statuses(n);
  std::vector<BuildStats> per_shard(n);
  // Every shard builds with its own buffer pool, feature cache, and worker
  // budget — the only shared state is the read-only corpus partition.
  ParallelFor(pool_.get(), n, [&](size_t s) {
    Result<FixIndex*> built =
        shards[s]->db->BuildIndex(name, OptionsForShard(
                                            static_cast<uint32_t>(s)),
                                  &per_shard[s]);
    statuses[s] = built.status();
  });
  for (const Status& st : statuses) FIX_RETURN_IF_ERROR(st);
  if (stats != nullptr) {
    BuildStats sum;
    for (const BuildStats& b : per_shard) {
      sum.construction_seconds += b.construction_seconds;
      sum.entries += b.entries;
      sum.oversized_patterns += b.oversized_patterns;
      sum.distinct_patterns += b.distinct_patterns;
      sum.btree_bytes += b.btree_bytes;
      sum.clustered_bytes += b.clustered_bytes;
      sum.bisim_vertices += b.bisim_vertices;
      sum.bisim_edges += b.bisim_edges;
      sum.max_document_depth =
          std::max(sum.max_document_depth, b.max_document_depth);
      sum.feature_cache_hits += b.feature_cache_hits;
      sum.feature_cache_misses += b.feature_cache_misses;
      sum.feature_cache_evictions += b.feature_cache_evictions;
    }
    *stats = sum;
  }
  return Status::OK();
}

Status ShardedDatabase::RebuildIndexes(const std::string& name) {
  ShardVector shards = SnapshotShards();
  const size_t n = shards.size();
  std::vector<Status> statuses(n);
  ParallelFor(pool_.get(), n, [&](size_t s) {
    Result<FixIndex*> rebuilt = shards[s]->db->RebuildIndex(
        name, OptionsForShard(static_cast<uint32_t>(s)));
    statuses[s] = rebuilt.status();
  });
  for (const Status& st : statuses) FIX_RETURN_IF_ERROR(st);
  return Status::OK();
}

Result<TwigQuery> ShardedDatabase::Compile(const std::string& xpath) {
  if (auto cached = plan_cache_.Lookup(xpath)) return *cached;
  MutexLock lock(master_mu_);
  if (auto cached = plan_cache_.Lookup(xpath)) return *cached;
  TwigQuery q;
  FIX_ASSIGN_OR_RETURN(q, ParseXPath(xpath));
  // Resolve against the master table: every shard's table mirrors it, so
  // the resolved ids are valid on all scatter legs.
  q.ResolveLabels(&master_labels_);
  plan_cache_.Insert(xpath, q);
  return q;
}

Result<ExecStats> ShardedDatabase::ScatterGather(
    const std::string& index_name, const TwigQuery& q,
    std::vector<NodeRef>* results) {
  ShardVector shards = SnapshotShards();
  const size_t n = shards.size();
  TraceSpan span("shard.scatter");
  Timer timer;

  struct Leg {
    Status status;
    ExecStats stats;
    std::vector<NodeRef> results;
  };
  std::vector<Leg> legs(n);
  ParallelFor(n > 1 ? pool_.get() : nullptr, n, [&](size_t s) {
    Leg& leg = legs[s];
    Shard& shard = *shards[s];
    // Shared for the whole leg: corpus appends (insert path) wait, index
    // commits don't (the COW protocol serves pinned readers throughout).
    ReaderMutexLock gate(shard.gate);
    Result<ExecStats> executed = shard.db->ExecuteCompiled(
        index_name, q, results != nullptr ? &leg.results : nullptr,
        /*pool=*/nullptr);
    if (!executed.ok()) {
      leg.status = executed.status();
      return;
    }
    leg.stats = std::move(executed).value();
    // Rewrite local doc ids to global ones. Locals ascend in global order,
    // so each leg's results stay sorted by global doc id — the gather is a
    // pure merge.
    for (NodeRef& r : leg.results) {
      FIX_DCHECK(r.doc_id < shard.to_global.size());
      r.doc_id = shard.to_global[r.doc_id];
    }
  });

  ExecStats merged;
  for (const Leg& leg : legs) {
    FIX_RETURN_IF_ERROR(leg.status);
    merged.total_entries += leg.stats.total_entries;
    merged.candidates += leg.stats.candidates;
    merged.producing += leg.stats.producing;
    merged.result_count += leg.stats.result_count;
    merged.covered = merged.covered && leg.stats.covered;
    merged.used_index = merged.used_index && leg.stats.used_index;
    merged.degraded = merged.degraded || leg.stats.degraded;
    merged.lookup_ms += leg.stats.lookup_ms;
    merged.refine_ms += leg.stats.refine_ms;
    merged.entries_scanned += leg.stats.entries_scanned;
    merged.nodes_visited += leg.stats.nodes_visited;
    merged.random_reads += leg.stats.random_reads;
    merged.sequential_bytes += leg.stats.sequential_bytes;
    if (leg.stats.degraded) DegradedLegs().Increment();
  }

  if (results != nullptr) {
    // K-way merge by global doc id. Shards hold disjoint documents and
    // each leg is already sorted, so taking the smallest head's whole
    // per-document run reproduces the unsharded output byte for byte.
    results->clear();
    size_t total = 0;
    for (const Leg& leg : legs) total += leg.results.size();
    results->reserve(total);
    std::vector<size_t> pos(n, 0);
    for (;;) {
      size_t best = n;
      uint32_t best_doc = 0;
      for (size_t s = 0; s < n; ++s) {
        if (pos[s] >= legs[s].results.size()) continue;
        const uint32_t doc = legs[s].results[pos[s]].doc_id;
        if (best == n || doc < best_doc) {
          best = s;
          best_doc = doc;
        }
      }
      if (best == n) break;
      const std::vector<NodeRef>& src = legs[best].results;
      while (pos[best] < src.size() && src[pos[best]].doc_id == best_doc) {
        results->push_back(src[pos[best]++]);
      }
    }
  }

  Scatters().Increment();
  ScatterLegs().Add(n);
  FanoutLatency().Record(static_cast<uint64_t>(timer.ElapsedMicros()));
  span.AddAttr("shards", static_cast<uint64_t>(n));
  span.AddAttr("results", merged.result_count);
  uint64_t degraded_legs = 0;
  for (const Leg& leg : legs) degraded_legs += leg.stats.degraded ? 1 : 0;
  span.AddAttr("degraded_legs", degraded_legs);
  return merged;
}

Result<ExecStats> ShardedDatabase::Query(const std::string& index_name,
                                         const std::string& xpath,
                                         std::vector<NodeRef>* results) {
  TwigQuery q;
  FIX_ASSIGN_OR_RETURN(q, Compile(xpath));
  return ScatterGather(index_name, q, results);
}

Result<std::vector<Database::BatchQueryOutcome>> ShardedDatabase::ExecuteMany(
    const std::string& index_name, const std::vector<std::string>& xpaths) {
  std::vector<Database::BatchQueryOutcome> outcomes(xpaths.size());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    Database::BatchQueryOutcome& out = outcomes[i];
    Result<TwigQuery> compiled = Compile(xpaths[i]);
    if (!compiled.ok()) {
      out.status = compiled.status();  // per-query: batchmates continue
      continue;
    }
    Result<ExecStats> executed =
        ScatterGather(index_name, *compiled, &out.results);
    if (!executed.ok()) {
      // Match Database::ExecuteMany: an unknown index fails the whole
      // batch, anything else stays per-query.
      if (executed.status().IsNotFound()) return executed.status();
      out.status = executed.status();
      continue;
    }
    out.stats = std::move(executed).value();
  }
  return outcomes;
}

Result<uint32_t> ShardedDatabase::InsertXml(const std::string& index_name,
                                            std::string_view xml) {
  ShardVector shards = SnapshotShards();
  std::shared_ptr<Shard> target;
  uint32_t gid = 0;
  uint32_t local = 0;
  {
    MutexLock master(master_mu_);
    Document doc;
    FIX_ASSIGN_OR_RETURN(doc, ParseXml(xml, &master_labels_));
    gid = static_cast<uint32_t>(total_docs_);
    target = shards[RouteDoc(gid, static_cast<uint32_t>(shards.size()))];
    // Exclusive on this shard only while the corpus and primary store
    // mutate — every other shard keeps serving untouched.
    WriterMutexLock gate(target->gate);
    SyncShardLabels(master_labels_, target->db->corpus());
    local = target->db->AddDocument(std::move(doc));
    target->to_global.push_back(gid);
    ++total_docs_;
    FIX_RETURN_IF_ERROR(target->db->Save());
  }
  FIX_RETURN_IF_ERROR(PersistMasterLabels());
  FIX_RETURN_IF_ERROR(RewriteManifest());
  // Index commit last, outside every gate: the shard's COW write path
  // serves its pinned readers throughout. A quarantined shard skips the
  // commit — its full-scan fallback already covers the new document. An
  // empty index name means corpus-only insert (fixd with no serving
  // index configured).
  if (!index_name.empty() && !target->db->IsDegraded(index_name)) {
    FixIndex* idx = target->db->index(index_name);
    if (idx == nullptr) {
      return Status::NotFound("no index named " + index_name);
    }
    FIX_RETURN_IF_ERROR(idx->InsertDocument(local));
  }
  ShardInserts().Increment();
  return gid;
}

Result<std::vector<uint32_t>> ShardedDatabase::InsertMany(
    const std::string& index_name, const std::vector<std::string>& xmls) {
  ShardVector shards = SnapshotShards();
  const uint32_t n = static_cast<uint32_t>(shards.size());
  struct Slice {
    std::vector<uint32_t> locals;
  };
  std::vector<Slice> slices(n);
  std::vector<uint32_t> gids(xmls.size());
  {
    MutexLock master(master_mu_);
    // Parse everything before mutating any shard, so a malformed document
    // fails the batch without leaving earlier batchmates half-inserted.
    std::vector<Document> docs;
    docs.reserve(xmls.size());
    for (const std::string& xml : xmls) {
      Document doc;
      FIX_ASSIGN_OR_RETURN(doc, ParseXml(xml, &master_labels_));
      docs.push_back(std::move(doc));
    }
    for (size_t i = 0; i < docs.size(); ++i) {
      const uint32_t gid = static_cast<uint32_t>(total_docs_++);
      gids[i] = gid;
      const uint32_t s = RouteDoc(gid, n);
      Shard& shard = *shards[s];
      WriterMutexLock gate(shard.gate);
      SyncShardLabels(master_labels_, shard.db->corpus());
      slices[s].locals.push_back(shard.db->AddDocument(std::move(docs[i])));
      shard.to_global.push_back(gid);
    }
  }
  // Persist + index-commit every touched shard in parallel: each leg
  // fsyncs its own primary store and WAL — no lock spans two shards.
  std::vector<Status> statuses(n);
  ParallelFor(pool_.get(), n, [&](size_t s) {
    Shard& shard = *shards[s];
    if (slices[s].locals.empty()) return;
    {
      WriterMutexLock gate(shard.gate);
      statuses[s] = shard.db->Save();
    }
    if (!statuses[s].ok()) return;
    if (index_name.empty() || shard.db->IsDegraded(index_name)) return;
    FixIndex* idx = shard.db->index(index_name);
    if (idx == nullptr) {
      statuses[s] = Status::NotFound("no index named " + index_name);
      return;
    }
    for (uint32_t local : slices[s].locals) {
      statuses[s] = idx->InsertDocument(local);
      if (!statuses[s].ok()) return;
    }
  });
  for (const Status& st : statuses) FIX_RETURN_IF_ERROR(st);
  FIX_RETURN_IF_ERROR(PersistMasterLabels());
  FIX_RETURN_IF_ERROR(RewriteManifest());
  ShardInserts().Add(xmls.size());
  return gids;
}

Status ShardedDatabase::Rebalance(uint32_t new_shard_count,
                                  const std::string& index_name) {
  if (new_shard_count == 0 || new_shard_count > kMaxShards) {
    return Status::InvalidArgument("shard_count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  ShardVector old_shards = SnapshotShards();
  uint64_t old_gen;
  {
    ReaderMutexLock lock(shards_mu_);
    old_gen = generation_;
  }
  const uint64_t new_gen = old_gen + 1;

  uint64_t total;
  std::vector<std::string> master_names;
  {
    MutexLock master(master_mu_);
    total = total_docs_;
    master_names.reserve(master_labels_.size());
    for (LabelId id = 0; id < master_labels_.size(); ++id) {
      master_names.push_back(master_labels_.Name(id));
    }
  }

  // Snapshot the old placement: global id -> (old shard, local id).
  // Mutators are caller-serialized, so the corpora cannot change under us;
  // live readers share them read-only.
  std::vector<std::pair<uint32_t, uint32_t>> placement(total);
  for (uint32_t s = 0; s < old_shards.size(); ++s) {
    ReaderMutexLock gate(old_shards[s]->gate);
    const std::vector<uint32_t>& to_global = old_shards[s]->to_global;
    for (uint32_t local = 0; local < to_global.size(); ++local) {
      placement[to_global[local]] = {s, local};
    }
  }

  // Build the gen-<G+1> layout at side directories while the old shard
  // vector keeps answering every query — the COW single-writer +
  // live-readers protocol, applied to the whole layout.
  ShardLayout layout;
  layout.shard_count = new_shard_count;
  layout.generation = new_gen;
  layout.total_docs = total;
  std::vector<std::unique_ptr<Database>> fresh(new_shard_count);
  std::vector<std::vector<uint32_t>> new_to_global(new_shard_count);
  for (uint32_t s = 0; s < new_shard_count; ++s) {
    const std::string dir = ShardDirName(new_gen, s);
    layout.shard_dirs.push_back(dir);
    std::error_code ec;
    std::filesystem::create_directories(workdir_ + "/" + dir, ec);
    if (ec) {
      return Status::IOError("mkdir " + workdir_ + "/" + dir + ": " +
                             ec.message());
    }
    fresh[s] = std::make_unique<Database>(workdir_ + "/" + dir);
    for (const std::string& name : master_names) {
      fresh[s]->corpus()->labels()->Intern(name);
    }
  }
  for (uint64_t g = 0; g < total; ++g) {
    const auto [old_s, old_local] = placement[g];
    const uint32_t s = RouteDoc(static_cast<uint32_t>(g), new_shard_count);
    Document copy;
    FIX_ASSIGN_OR_RETURN(
        copy, CopyDocument(old_shards[old_s]->db->corpus()->doc(old_local)));
    fresh[s]->AddDocument(std::move(copy));
    new_to_global[s].push_back(static_cast<uint32_t>(g));
  }
  std::vector<Status> statuses(new_shard_count);
  ParallelFor(pool_.get(), new_shard_count, [&](size_t s) {
    statuses[s] = fresh[s]->Save();
    if (!statuses[s].ok()) return;
    Result<FixIndex*> built = fresh[s]->BuildIndex(
        index_name, OptionsForShard(static_cast<uint32_t>(s)));
    statuses[s] = built.status();
  });
  for (const Status& st : statuses) {
    if (!st.ok()) {
      std::error_code ec;
      std::filesystem::remove_all(workdir_ + "/gen-" + std::to_string(new_gen),
                                  ec);
      return st;
    }
  }

  // Publish: manifest first (a crash after this reopens the new layout),
  // then one atomic swap of the shard vector. In-flight queries finish
  // against the old shards through their snapshot shared_ptrs.
  FIX_RETURN_IF_ERROR(WriteManifest(layout));
  ShardVector new_shards;
  new_shards.reserve(new_shard_count);
  for (uint32_t s = 0; s < new_shard_count; ++s) {
    auto shard = std::make_shared<Shard>();
    shard->db = std::move(fresh[s]);
    shard->ordinal = s;
    shard->dir = workdir_ + "/" + layout.shard_dirs[s];
    {
      WriterMutexLock gate(shard->gate);
      shard->to_global = std::move(new_to_global[s]);
    }
    new_shards.push_back(std::move(shard));
  }
  {
    WriterMutexLock lock(shards_mu_);
    OpenShards().Add(static_cast<int64_t>(new_shard_count) -
                     static_cast<int64_t>(shards_.size()));
    shards_ = std::move(new_shards);
    generation_ = new_gen;
  }
  // Retire the old generation. Readers still draining hold open file
  // descriptors, which keep the unlinked inodes alive until they finish.
  {
    std::error_code ec;
    std::filesystem::remove_all(workdir_ + "/gen-" + std::to_string(old_gen),
                                ec);
    if (ec) {
      FIX_LOG(Error) << "rebalance: could not retire gen-" << old_gen << ": "
                     << ec.message();
    }
  }
  Rebalances().Increment();
  return Status::OK();
}

}  // namespace fix
