#include "core/database.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <thread>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "query/xpath_parser.h"

namespace fix {

namespace {

// Process-wide mirrors of the per-instance StorageHealth counters: health()
// stays the per-database view tests assert on; these accumulate across every
// Database in the process (docs/OBSERVABILITY.md).
Counter& CorruptionEvents() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.storage.corruption_events", "ops",
      "checksum/coverage failures detected");
  return *c;
}
Counter& QuarantinedIndexes() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.storage.quarantined_indexes", "ops",
      "indexes renamed aside after damage");
  return *c;
}
Counter& DegradedQueries() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.storage.degraded_queries", "ops",
      "queries answered by full scan because of quarantine");
  return *c;
}
Counter& Rebuilds() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.storage.rebuilds", "ops", "successful RebuildIndex calls");
  return *c;
}
Gauge& OpenIndexes() {
  static Gauge* g = MetricsRegistry::Instance().FindOrCreateGauge(
      "fix.db.open_indexes", "indexes",
      "attached (non-quarantined) indexes across live databases");
  return *g;
}
Counter& BatchQueries() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.db.batch_queries", "ops",
      "queries executed through Database::ExecuteMany");
  return *c;
}

/// Renames `path` to `path + ".quarantined"` if it exists (best effort:
/// quarantine must not fail recovery, so errors are logged, not returned).
void QuarantineFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;
  std::filesystem::rename(path, path + ".quarantined", ec);
  if (ec) {
    FIX_LOG(Error) << "quarantine rename failed for " << path << ": "
                   << ec.message();
  }
}

void RemoveIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

Database::~Database() {
  OpenIndexes().Add(-static_cast<int64_t>(indexes_.size()));
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& workdir,
                                                 OpenOptions options) {
  auto db = std::make_unique<Database>(workdir);
  db->open_options_ = std::move(options);
  {
    Result<Corpus> corpus = Corpus::Load(workdir);
    FIX_RETURN_IF_ERROR(corpus.status());
    db->corpus_ = std::move(corpus).value();
  }
  // Attach every index in the directory; corrupt ones degrade, they never
  // abort recovery.
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(workdir, ec)) {
    if (entry.path().extension() == ".fix") {
      names.push_back(entry.path().stem().string());
    }
  }
  if (ec) {
    return Status::IOError("cannot list " + workdir + ": " + ec.message());
  }
  std::sort(names.begin(), names.end());  // deterministic attach order
  for (const std::string& name : names) {
    FIX_RETURN_IF_ERROR(db->AttachOrQuarantine(name));
  }
  return db;
}

void Database::QuarantineIndex(const std::string& name, const Status& why) {
  {
    WriterMutexLock lock(mu_);
    if (degraded_.count(name) > 0) {
      // Another observer of the same damage already quarantined this name;
      // the files are renamed and the handle detached. Nothing to redo.
      return;
    }
    for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
      if (it->first == name) {
        // Detaching drops this Database's reference; queries that copied
        // the shared_ptr before the quarantine finish against the old
        // object, which closes its files when the last reference dies.
        indexes_.erase(it);
        OpenIndexes().Add(-1);
        break;
      }
    }
    degraded_.insert(name);
  }
  FIX_LOG(Error) << "index '" << name << "' quarantined: " << why.ToString()
                 << " — queries fall back to full scan until RebuildIndex";
  const std::string path = IndexPath(name);
  QuarantineFile(path);
  QuarantineFile(path + ".meta");
  QuarantineFile(path + ".data");
  QuarantineFile(path + ".wal");
  {
    MutexLock lock(health_mu_);
    ++health_.quarantined_indexes;
  }
  QuarantinedIndexes().Increment();
}

Status Database::AttachOrQuarantine(const std::string& name) {
  auto opened =
      FixIndex::Open(&corpus_, IndexPath(name), open_options_.page_io_factory,
                     open_options_.wal_io_factory);
  Status failure = opened.status();
  if (opened.ok()) {
    auto idx = std::make_shared<FixIndex>(std::move(opened).value());
    if (open_options_.verify_on_attach) {
      const uint32_t covered = idx->indexed_docs();
      if (covered != kIndexedDocsUnknown &&
          covered != corpus_.num_docs()) {
        // Internally consistent but missing documents: the signature of a
        // crash between corpus growth and the index's meta write. No
        // checksum catches this; only the coverage count does.
        failure = Status::Corruption(
            "stale index: covers " + std::to_string(covered) + " of " +
            std::to_string(corpus_.num_docs()) + " documents");
      } else {
        failure = idx->Verify();
      }
    }
    if (failure.ok()) {
      WriterMutexLock lock(mu_);
      indexes_.emplace_back(name, std::move(idx));
      OpenIndexes().Add(1);
      return Status::OK();
    }
    // idx is destroyed (closing its files) before the quarantine rename.
  }
  if (failure.code() == StatusCode::kNotSupported) return UpgradeIndex(name);
  if (failure.IsCorruption() || failure.IsIOError() || failure.IsNotFound()) {
    {
      MutexLock lock(health_mu_);
      ++health_.corruption_events;
    }
    CorruptionEvents().Increment();
    QuarantineIndex(name, failure);
    return Status::OK();
  }
  return failure;  // unexpected (e.g. InvalidArgument): a bug, not damage
}

Status Database::UpgradeIndex(const std::string& name) {
  // FixIndex::Open refused an index written before meta v7 (48-byte
  // entries). That is an old format, not damage: rebuild it from the corpus
  // with the options its own meta recorded — no quarantine, no corruption
  // event.
  Status upgraded = [&]() -> Status {
    std::string buf;
    FIX_ASSIGN_OR_RETURN(buf, ReadFile(IndexPath(name) + ".meta"));
    IndexMeta meta;
    FIX_ASSIGN_OR_RETURN(meta, DecodeIndexMeta(buf));
    return RebuildIndex(name, meta.options).status();
  }();
  if (upgraded.ok()) return Status::OK();
  // The old files stay exactly as they were, so the next Open retries the
  // upgrade; until then queries naming the index fall back to full scan.
  FIX_LOG(Error) << "index '" << name << "' upgrade failed: "
                 << upgraded.ToString()
                 << " — queries fall back to full scan until it succeeds";
  WriterMutexLock lock(mu_);
  degraded_.insert(name);
  return Status::OK();
}

Result<FixIndex*> Database::BuildIndex(const std::string& name,
                                       IndexOptions options,
                                       BuildStats* stats) {
  options.path = IndexPath(name);
  if (options.page_io_factory == nullptr) {
    options.page_io_factory = open_options_.page_io_factory;
  }
  if (options.wal_io_factory == nullptr) {
    options.wal_io_factory = open_options_.wal_io_factory;
  }
  // Route through a local BuildStats when the caller passed none, so the
  // feature-cache counters still reach health().
  BuildStats local;
  BuildStats* effective = stats != nullptr ? stats : &local;
  auto built = FixIndex::Build(&corpus_, options, effective);
  if (!built.ok()) return built.status();
  {
    MutexLock lock(health_mu_);
    health_.feature_cache_hits += effective->feature_cache_hits;
    health_.feature_cache_misses += effective->feature_cache_misses;
    health_.feature_cache_evictions += effective->feature_cache_evictions;
  }
  WriterMutexLock lock(mu_);
  indexes_.emplace_back(name,
                        std::make_shared<FixIndex>(std::move(built).value()));
  OpenIndexes().Add(1);
  return indexes_.back().second.get();
}

Result<FixIndex*> Database::AttachIndex(const std::string& name) {
  auto opened =
      FixIndex::Open(&corpus_, IndexPath(name), open_options_.page_io_factory,
                     open_options_.wal_io_factory);
  if (!opened.ok()) return opened.status();
  WriterMutexLock lock(mu_);
  indexes_.emplace_back(name,
                        std::make_shared<FixIndex>(std::move(opened).value()));
  OpenIndexes().Add(1);
  return indexes_.back().second.get();
}

Result<FixIndex*> Database::RebuildIndex(const std::string& name,
                                         IndexOptions options,
                                         BuildStats* stats) {
  // The meta moves last: a crash part-way through the swap of an upgrade
  // leaves the old-format meta, so the next Open upgrades again.
  static constexpr const char* kParts[] = {"", ".data", ".wal", ".meta"};
  const std::string path = IndexPath(name);
  const std::string side = path + ".rebuild";
  // Build the replacement at a side path while the old index (if any) keeps
  // answering queries — an online rebuild with zero degraded window. A
  // build failure leaves the old index exactly as it was.
  for (const char* part : kParts) RemoveIfExists(side + part);
  options.path = side;
  if (options.page_io_factory == nullptr) {
    options.page_io_factory = open_options_.page_io_factory;
  }
  if (options.wal_io_factory == nullptr) {
    options.wal_io_factory = open_options_.wal_io_factory;
  }
  BuildStats local;
  BuildStats* effective = stats != nullptr ? stats : &local;
  {
    auto built = FixIndex::Build(&corpus_, options, effective);
    if (!built.ok()) {
      for (const char* part : kParts) RemoveIfExists(side + part);
      return built.status();
    }
    // The fresh handle closes its files here; the swap below renames them
    // into place and reopens.
  }
  {
    MutexLock lock(health_mu_);
    health_.feature_cache_hits += effective->feature_cache_hits;
    health_.feature_cache_misses += effective->feature_cache_misses;
    health_.feature_cache_evictions += effective->feature_cache_evictions;
  }
  // Swing the files into place. The old index's open descriptors — and any
  // in-flight query holding its shared_ptr — keep the old inodes alive
  // until the last reference dies.
  for (const char* part : kParts) {
    const std::string from = side + part;
    const std::string to = path + part;
    std::error_code ec;
    if (std::filesystem::exists(from, ec)) {
      std::filesystem::rename(from, to, ec);
      if (ec) {
        return Status::IOError("rebuild swap failed for " + to + ": " +
                               ec.message());
      }
    } else {
      RemoveIfExists(to);  // layout change, e.g. clustered -> unclustered
    }
    RemoveIfExists(to + ".quarantined");
  }
  auto reopened = FixIndex::Open(&corpus_, path, options.page_io_factory,
                                 options.wal_io_factory);
  if (!reopened.ok()) return reopened.status();
  auto fresh = std::make_shared<FixIndex>(std::move(reopened).value());
  FixIndex* handle = fresh.get();
  {
    WriterMutexLock lock(mu_);
    bool replaced = false;
    for (auto& [n, idx] : indexes_) {
      if (n == name) {
        idx = std::move(fresh);  // old handle freed once readers drain
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      indexes_.emplace_back(name, std::move(fresh));
      OpenIndexes().Add(1);
    }
    degraded_.erase(name);
  }
  {
    MutexLock lock(health_mu_);
    ++health_.rebuilds;
  }
  Rebuilds().Increment();
  return handle;
}

FixIndex* Database::index(const std::string& name) {
  ReaderMutexLock lock(mu_);
  for (auto& [n, idx] : indexes_) {
    if (n == name) return idx.get();
  }
  return nullptr;
}

std::shared_ptr<FixIndex> Database::SharedIndex(const std::string& name) const {
  ReaderMutexLock lock(mu_);
  for (const auto& [n, idx] : indexes_) {
    if (n == name) return idx;
  }
  return nullptr;
}

Result<TwigQuery> Database::Compile(const std::string& xpath) {
  if (auto cached = plan_cache_.Lookup(xpath)) return *cached;
  MutexLock lock(compile_mu_);
  // Double-checked: a racing compile of the same string may have landed
  // while we waited for the lock.
  if (auto cached = plan_cache_.Lookup(xpath)) return *cached;
  TwigQuery q;
  FIX_ASSIGN_OR_RETURN(q, ParseXPath(xpath));
  q.ResolveLabels(corpus_.labels());
  plan_cache_.Insert(xpath, q);
  return q;
}

void Database::BumpDegradedQuery() {
  {
    MutexLock lock(health_mu_);
    ++health_.degraded_queries;
  }
  DegradedQueries().Increment();
}

Result<ExecStats> Database::QueryInternal(const std::string& index_name,
                                          const TwigQuery& q,
                                          std::vector<NodeRef>* results,
                                          ThreadPool* pool) {
  bool is_degraded = false;
  std::shared_ptr<FixIndex> idx;
  {
    ReaderMutexLock lock(mu_);
    is_degraded = degraded_.count(index_name) > 0;
    if (!is_degraded) {
      for (const auto& [n, p] : indexes_) {
        if (n == index_name) {
          idx = p;
          break;
        }
      }
    }
  }
  if (is_degraded) {
    BumpDegradedQuery();
    ExecStats stats;
    FIX_ASSIGN_OR_RETURN(stats, FullScanExecute(&corpus_, q, results,
                                                /*total_entries=*/0, pool));
    stats.degraded = true;
    return stats;
  }
  if (idx == nullptr) {
    return Status::NotFound("no index named " + index_name);
  }
  FixQueryProcessor processor(&corpus_, idx.get(), pool);
  Result<ExecStats> executed = processor.Execute(q, results);
  if (executed.ok()) return executed;
  if (executed.status().IsCorruption() || executed.status().IsIOError()) {
    // Damage surfaced mid-query (a checksum failure on a lazily-read page,
    // say). Quarantine the index and answer from the ground truth — the
    // caller gets a correct result and a degraded-mode flag, never the
    // corruption masked as an empty result set. Concurrent observers of
    // the same damage race benignly: QuarantineIndex is idempotent, and
    // every loser re-answers by full scan exactly like the winner.
    {
      MutexLock lock(health_mu_);
      ++health_.corruption_events;
    }
    CorruptionEvents().Increment();
    QuarantineIndex(index_name, executed.status());
    BumpDegradedQuery();
    ExecStats stats;
    FIX_ASSIGN_OR_RETURN(stats, FullScanExecute(&corpus_, q, results,
                                                /*total_entries=*/0, pool));
    stats.degraded = true;
    return stats;
  }
  return executed;
}

Result<ExecStats> Database::Query(const std::string& index_name,
                                  const std::string& xpath,
                                  std::vector<NodeRef>* results) {
  TwigQuery q;
  FIX_ASSIGN_OR_RETURN(q, Compile(xpath));
  return QueryInternal(index_name, q, results, /*pool=*/nullptr);
}

Result<std::vector<Database::BatchQueryOutcome>> Database::ExecuteMany(
    const std::string& index_name, const std::vector<std::string>& xpaths,
    int threads) {
  size_t n = threads > 0 ? static_cast<size_t>(threads)
                         : std::max(1u, std::thread::hardware_concurrency());
  n = std::min<size_t>(n, 64);
  std::unique_ptr<ThreadPool> pool;
  if (n > 1) pool = std::make_unique<ThreadPool>(n);

  // Queries run in order, each fanning its own refinement over the pool:
  // per-document work units are disjoint and merge deterministically, so
  // the batch's outcome is byte-identical across thread counts.
  std::vector<BatchQueryOutcome> outcomes(xpaths.size());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    BatchQueryOutcome& out = outcomes[i];
    auto compiled = Compile(xpaths[i]);
    if (!compiled.ok()) {
      out.status = compiled.status();
      continue;
    }
    auto executed =
        QueryInternal(index_name, *compiled, &out.results, pool.get());
    if (!executed.ok()) {
      if (executed.status().IsNotFound()) return executed.status();
      out.status = executed.status();
      continue;
    }
    out.stats = std::move(executed).value();
    BatchQueries().Increment();
  }
  return outcomes;
}

}  // namespace fix
