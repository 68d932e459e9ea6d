// Database: the one-stop public facade. Owns the corpus and any number of
// FIX indexes; parses XPath strings; routes queries through the best
// applicable index (or a full scan). This is the API the examples use.
//
// Thread-safety: the read path is concurrent. Query, ExecuteCompiled,
// Compile, IsDegraded, and health() may be called from any number of
// threads at once — compiled plans come from a lock-striped PlanCache,
// index handles are shared_ptrs looked up under a shared mutex (so a
// quarantine racing a query can never free an index mid-probe), and the
// layers below follow their own concurrent-read contracts (fix_index.h,
// btree.h, buffer_pool.h). Everything that changes the set of indexes or
// documents is writer-exclusive: Open, Save, Finalize, AddXml/AddDocument,
// BuildIndex, AttachIndex, RebuildIndex must not overlap with each other
// or with any read. Lock order (never acquire leftward while holding
// rightward): Database::mu_ → health_mu_ / compile_mu_ / PlanCache shard →
// FixIndex encoder mutex → BufferPool shard. See docs/ARCHITECTURE.md,
// "Concurrent reads".
//
// Observability: per-instance counters are served by health(); every event
// is also mirrored into the process-wide MetricsRegistry under the
// `fix.storage.*` / `fix.db.*` names (see docs/OBSERVABILITY.md).

#ifndef FIX_CORE_DATABASE_H_
#define FIX_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/index_options.h"
#include "core/metrics.h"
#include "query/plan_cache.h"

namespace fix {

class Database {
 public:
  struct OpenOptions {
    /// Audit every index at attach time (B+-tree structural walk + corpus
    /// consistency). Costs one full index read; disable only in tests that
    /// want to exercise the mid-query corruption path.
    bool verify_on_attach = true;
    /// Backend override for index page files (see
    /// IndexOptions::page_io_factory). Tests only.
    std::function<std::unique_ptr<PageIo>()> page_io_factory;
    /// Backend override for index write-ahead logs (see
    /// IndexOptions::wal_io_factory). Tests only.
    std::function<std::unique_ptr<PageIo>()> wal_io_factory;
  };

  /// @pre `workdir` (the directory holding the primary store and index
  /// files) exists.
  explicit Database(std::string workdir) : workdir_(std::move(workdir)) {}

  /// Releases every attached index (closing their files) and drops their
  /// contribution to the process-wide `fix.db.open_indexes` gauge.
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Recovery-aware opening of an existing database directory: restores the
  /// corpus (Corpus::Save layout) and attaches every `*.fix` index found.
  /// An index that fails to open, fails verification, or is stale (its meta
  /// covers fewer documents than the corpus holds — the signature of a
  /// crash mid-update) is quarantined: its files are renamed aside with a
  /// ".quarantined" suffix and queries naming it transparently fall back to
  /// the always-correct full scan (ExecStats::degraded is set). Answers are
  /// never wrong, only slower, and RebuildIndex() restores indexed speed.
  /// An index in a format older than meta v7 is not damage: it is upgraded
  /// by RebuildIndex with the options its meta recorded (UpgradeIndex).
  ///
  /// Returns a pointer (not a value): FixIndex handles keep raw pointers to
  /// the owning corpus, so the Database must never move after indexes
  /// attach.
  ///
  /// @pre `workdir` was populated by Save()/Finalize() (or fixctl).
  /// @post Every healthy `*.fix` index in the directory is attached;
  ///       damaged ones are renamed aside and marked degraded.
  /// @return The opened database, or NotFound/IOError when the corpus
  ///         itself cannot be restored (index damage never fails Open).
  [[nodiscard]] static Result<std::unique_ptr<Database>> Open(
      const std::string& workdir, OpenOptions options);
  [[nodiscard]] static Result<std::unique_ptr<Database>> Open(
      const std::string& workdir) {
    return Open(workdir, OpenOptions());
  }

  /// Persists the corpus into the workdir (Corpus::Save layout) so the
  /// database can later be reopened with Open().
  [[nodiscard]] Status Save() { return corpus_.Save(workdir_); }

  /// The owned corpus; never null, valid for the Database's lifetime.
  Corpus* corpus() { return &corpus_; }

  /// Parses and adds one XML document.
  /// @return The new document's id, or ParseError on malformed XML.
  [[nodiscard]] Result<uint32_t> AddXml(std::string_view xml) { return corpus_.AddXml(xml); }

  /// Adds an already-built document (generators use this).
  uint32_t AddDocument(Document doc) {
    return corpus_.AddDocument(std::move(doc));
  }

  /// Writes the primary record store. Call once after loading documents.
  [[nodiscard]] Status Finalize() {
    return corpus_.WritePrimaryStorage(workdir_ + "/primary.dat");
  }

  /// Builds a FIX index named `name` with the given options (options.path
  /// is derived from the name).
  /// @pre No attached index is already registered under `name`.
  /// @post On success the index is attached and queryable under `name`.
  /// @return A handle owned by the Database (valid until the index is
  ///         quarantined, rebuilt, or the Database dies), or the build
  ///         failure (InvalidArgument/IOError).
  [[nodiscard]] Result<FixIndex*> BuildIndex(const std::string& name, IndexOptions options,
                               BuildStats* stats = nullptr);

  /// The attached index registered under `name`, or nullptr (unknown name,
  /// or quarantined).
  FixIndex* index(const std::string& name);

  /// Reopens an index previously built (possibly by an earlier process)
  /// under this workdir and registers it under `name`.
  /// @return A Database-owned handle, or NotFound/Corruption from opening
  ///         the on-disk files (no quarantine happens on this path).
  [[nodiscard]] Result<FixIndex*> AttachIndex(const std::string& name);

  /// Builds index `name` afresh from the in-memory corpus and swaps it into
  /// place — the recovery path out of degraded mode, and an online rebuild
  /// when the index is healthy: the build happens at a side path
  /// (`<name>.fix.rebuild*`) while the old index, if attached, keeps
  /// answering queries; the swap is a rename + handle replacement with zero
  /// degraded window. In-flight queries holding the old handle finish
  /// against the old (unlinked) files.
  /// @post On success IsDegraded(name) is false and health().rebuilds has
  ///       been incremented.
  /// @return The fresh Database-owned handle, or the build failure (in
  ///         which case the old index — attached, degraded, or absent —
  ///         is left exactly as it was).
  [[nodiscard]] Result<FixIndex*> RebuildIndex(const std::string& name,
                                               IndexOptions options,
                                               BuildStats* stats = nullptr);

  /// The options index `name` was built with: the attached handle's, else
  /// those its meta sidecar recorded (read from the quarantined copy when
  /// the index was renamed aside). RebuildIndex(name, RecordedOptions(name))
  /// rebuilds an index as it was.
  /// @return NotFound/Corruption when no attached handle and no readable
  ///         meta exist for `name`.
  [[nodiscard]] Result<IndexOptions> RecordedOptions(
      const std::string& name) const FIX_EXCLUDES(mu_);

  /// True when queries naming `name` are being answered by full scan
  /// because the index was quarantined as corrupt or stale, or its format
  /// upgrade at Open failed.
  bool IsDegraded(const std::string& name) const FIX_EXCLUDES(mu_) {
    ReaderMutexLock lock(mu_);
    return degraded_.count(name) > 0;
  }

  /// This instance's degradation/corruption counters, by value — a snapshot
  /// consistent under concurrent queries. Process-wide totals (across all
  /// databases) live in the MetricsRegistry as `fix.storage.*`; this is the
  /// per-database slice of the same events.
  StorageHealth health() const FIX_EXCLUDES(health_mu_) {
    MutexLock lock(health_mu_);
    return health_;
  }

  /// Parses an XPath string, resolves labels, and executes it through the
  /// named index. A degraded (quarantined) name is answered by full scan
  /// with ExecStats::degraded set; corruption surfacing mid-query
  /// quarantines the index and re-answers from the ground truth.
  /// @return The execution's stats, or ParseError (bad XPath) / NotFound
  ///         (unknown, non-degraded index name). Never returns Corruption:
  ///         damage degrades, it does not fail queries.
  [[nodiscard]] Result<ExecStats> Query(const std::string& index_name,
                          const std::string& xpath,
                          std::vector<NodeRef>* results = nullptr);

  /// Executes an already-compiled twig against the named index, on the
  /// calling thread — the scatter entry point ShardedDatabase uses so one
  /// plan compiled against the master label table fans out to every shard
  /// without recompiling. Same degradation semantics as Query. The twig's
  /// label ids must have been resolved against this database's label table
  /// or a table whose ids are a superset mirror of it (sharded_database.h
  /// explains why the mirror discipline makes that sound).
  [[nodiscard]] Result<ExecStats> ExecuteCompiled(
      const std::string& index_name, const TwigQuery& q,
      std::vector<NodeRef>* results = nullptr) {
    return QueryInternal(index_name, q, results);
  }

  /// Parses + resolves an XPath string without executing (for harnesses).
  /// Serves repeated strings from the plan cache. Thread-safe.
  /// @return The compiled twig, or ParseError.
  [[nodiscard]] Result<TwigQuery> Compile(const std::string& xpath);

  /// Plan-cache statistics (hits/misses/evictions/entries).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_.GetStats(); }

 private:
  std::string IndexPath(const std::string& name) const {
    return workdir_ + "/" + name + ".fix";
  }

  /// Attaches index `name`, or — on corruption, I/O failure, or staleness —
  /// quarantines it and records the degradation. Only unexpected statuses
  /// (e.g. InvalidArgument) propagate.
  [[nodiscard]] Status AttachOrQuarantine(const std::string& name);

  /// Upgrades an index whose meta predates v7 by RebuildIndex with the
  /// options read from that meta (RecordedOptions). If the rebuild fails
  /// the old files are left in place (the next Open retries) and the name
  /// is marked degraded without a quarantine.
  [[nodiscard]] Status UpgradeIndex(const std::string& name)
      FIX_EXCLUDES(mu_, health_mu_);

  /// Renames the index files aside (".quarantined" suffix), drops any
  /// attached handle, and marks the name degraded. Idempotent: a second
  /// caller (e.g. two queries observing the same corruption concurrently)
  /// finds the name already degraded and returns without double-renaming.
  /// In-flight queries keep the index alive through their shared_ptr.
  void QuarantineIndex(const std::string& name, const Status& why)
      FIX_EXCLUDES(mu_, health_mu_);

  /// The shared execution path behind Query and ExecuteCompiled: `q` is
  /// already compiled.
  [[nodiscard]] Result<ExecStats> QueryInternal(const std::string& index_name,
                                                const TwigQuery& q,
                                                std::vector<NodeRef>* results);

  /// Looks up the attached index `name` under the shared lock; null when
  /// unknown or degraded.
  std::shared_ptr<FixIndex> SharedIndex(const std::string& name) const
      FIX_EXCLUDES(mu_);

  void BumpDegradedQuery() FIX_EXCLUDES(health_mu_);

  std::string workdir_;
  Corpus corpus_;
  /// Guards indexes_ and degraded_. Readers (Query/ExecuteCompiled/IsDegraded)
  /// take it shared only long enough to copy a shared_ptr; quarantine and
  /// the writer-exclusive index mutations take it unique.
  // LOCK-ORDER: 6 Database::mu_
  mutable SharedMutex mu_;
  /// shared_ptr, not unique_ptr: a query holds its own reference while
  /// executing, so quarantine (which detaches the index) can never free it
  /// under a concurrent reader.
  std::vector<std::pair<std::string, std::shared_ptr<FixIndex>>> indexes_
      FIX_GUARDED_BY(mu_);
  OpenOptions open_options_;
  std::unordered_set<std::string> degraded_ FIX_GUARDED_BY(mu_);
  /// Guards health_ (kept a plain copyable struct; mutations are rare).
  // LOCK-ORDER: 7 Database::health_mu_
  mutable Mutex health_mu_ FIX_ACQUIRED_AFTER(mu_);
  StorageHealth health_ FIX_GUARDED_BY(health_mu_);
  /// Serializes compilation misses: ResolveLabels interns into the shared
  /// LabelTable, which is not itself thread-safe.
  // LOCK-ORDER: 7 Database::compile_mu_
  Mutex compile_mu_ FIX_ACQUIRED_AFTER(mu_);
  mutable PlanCache plan_cache_;
};

}  // namespace fix

#endif  // FIX_CORE_DATABASE_H_
