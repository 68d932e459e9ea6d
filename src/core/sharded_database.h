// ShardedDatabase: scale-out within one process. Documents are partitioned
// across N independent Database shards by a hash of their global doc id;
// each shard owns its own corpus, buffer pool, B+-tree, WAL, and feature
// cache, so index builds and InsertDocument commits proceed in parallel per
// shard with no cross-shard lock on the heavy path. Queries compile once
// against a master label table, scatter the compiled plan to every shard
// over a ThreadPool, and gather through the same deterministic doc-order
// merge the unsharded path uses — results are byte-identical to a single
// monolithic index over the same documents (verified across shard counts
// and sound_probe settings).
//
// Layout on disk (workdir):
//   shards.manifest        FXSH manifest: shard count, layout generation,
//                          total docs, shard directory names
//   labels.master          the master LabelTable (EncodeLabelTable format)
//   gen-<G>/shard-%04u/    one Database workdir per shard (Corpus::Save
//                          layout + the shard's *.fix index files)
//
// Label-id discipline: every shard's LabelTable is kept a full mirror of
// the master (same names, same dense ids — LabelTable ids are append-only,
// so interning master names in id order reproduces them exactly). A twig
// compiled against the master therefore resolves to label ids that are
// valid on every shard, which is what lets one PlanCache entry serve all
// scatter legs. Open() verifies each shard's persisted table is a prefix
// of the master and fails with Corruption when it is not.
//
// Thread-safety: Query / ExecuteMany / Compile / IsDegraded are concurrent
// (any number of threads). Everything that changes the document set or the
// shard layout — InsertXml, InsertMany, Rebalance, BuildIndexes,
// RebuildIndexes — is writer-exclusive: callers serialize mutators (fixd
// does so under Server::writer_mu_), while readers stay at full service.
// Rebalance follows the COW single-writer + live-readers protocol: the new
// layout is built at a fresh gen-<G+1> directory while the old shard
// vector keeps answering, then published by one atomic swap; in-flight
// queries finish against the old shards through their shared_ptrs.
//
// Quarantine is per shard: one shard whose index files are damaged
// degrades to a full scan over that shard's documents alone (its
// Database quarantines the index exactly as the unsharded path would),
// while every other shard keeps serving indexed — answers stay correct,
// only the damaged slice slows down.

#ifndef FIX_CORE_SHARDED_DATABASE_H_
#define FIX_CORE_SHARDED_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/fix_query.h"
#include "core/index_options.h"
#include "query/plan_cache.h"
#include "xml/label_table.h"

namespace fix {

/// Knobs for a sharded database. Deliberately not part of IndexOptions:
/// these shape the shard layout and the scatter machinery, not any single
/// index (docs/ARCHITECTURE.md, "Sharding" — the table there is the
/// normative inventory of these fields).
struct ShardedOptions {
  /// Number of shards to partition into (1..256). 1 is the degenerate
  /// layout: one shard holding every document, byte-identical to the
  /// unsharded path by construction.
  uint32_t shard_count = 1;
  /// Default per-shard index options (depth limit, sound_probe, buffer
  /// pool size, ...). `path` is ignored — each shard derives its own.
  IndexOptions index;
  /// Per-tenant overrides: shard ordinal -> options used instead of
  /// `index` for that shard. Lets one tenant's shard run e.g. a different
  /// sound_probe or use_lambda2 setting; final results are unaffected
  /// (refinement is exact), only per-shard cost profiles change.
  std::map<uint32_t, IndexOptions> shard_overrides;
  /// Forwarded to each shard's Database::Open (attach-time audit and the
  /// fault-injection seams).
  Database::OpenOptions open;
  /// Workers in the scatter pool (0 = hardware concurrency, clamped to
  /// [1, 64]). The pool also fans out parallel shard builds and inserts.
  int scatter_threads = 0;
};

/// The decoded shards.manifest — exposed so tools (fixdb_scrub, fixctl)
/// can walk a sharded layout without opening the database.
struct ShardLayout {
  uint32_t shard_count = 0;
  uint64_t generation = 0;  ///< bumped by every Rebalance
  uint64_t total_docs = 0;
  std::vector<std::string> shard_dirs;  ///< relative to the workdir
};

/// True when `workdir` holds a sharded layout (a shards.manifest file).
bool IsShardedLayout(const std::string& workdir);

/// Reads and validates workdir/shards.manifest.
[[nodiscard]] Result<ShardLayout> ReadShardLayout(const std::string& workdir);

class ShardedDatabase {
 public:
  ~ShardedDatabase();

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  /// The shard a global doc id routes to: splitmix64 hash of the id,
  /// reduced mod shard_count. Deterministic — Open() re-derives the whole
  /// doc placement from (total_docs, shard_count) alone.
  static uint32_t RouteDoc(uint32_t global_doc_id, uint32_t shard_count);

  /// Partitions `source`'s documents into options.shard_count shards under
  /// `workdir` (which must exist and be empty of any previous sharded
  /// layout), writes the manifest + master label table, and opens the
  /// result. Documents keep their source ids as global ids; per-shard
  /// local ids ascend in global-id order, which is what makes the gather
  /// merge a pure doc-order merge. No indexes are built — call
  /// BuildIndexes next.
  [[nodiscard]] static Result<std::unique_ptr<ShardedDatabase>> Partition(
      const Corpus& source, const std::string& workdir,
      ShardedOptions options);

  /// Opens an existing sharded layout: reads the manifest and master
  /// labels, opens every shard Database (each shard attaches and audits
  /// its own indexes; damaged ones quarantine per shard), and verifies
  /// doc counts and label-table prefix consistency. options.shard_count
  /// is ignored — the manifest is authoritative.
  [[nodiscard]] static Result<std::unique_ptr<ShardedDatabase>> Open(
      const std::string& workdir, ShardedOptions options = {});

  /// Builds index `name` on every shard in parallel (each build gets its
  /// own feature cache and buffer pool — no cross-shard lock). Per-shard
  /// option overrides apply. Aggregated build stats (summed) land in
  /// `stats` when non-null.
  [[nodiscard]] Status BuildIndexes(const std::string& name,
                                    BuildStats* stats = nullptr);

  /// Online per-shard RebuildIndex — the recovery path out of a shard
  /// quarantine. Healthy shards rebuild too (zero degraded window each).
  /// Writer-exclusive.
  [[nodiscard]] Status RebuildIndexes(const std::string& name);

  /// Compiles, scatters to every shard, gathers in global doc-id order.
  /// Per-leg stats are folded: counters sum, covered/used_index AND,
  /// degraded ORs (one quarantined shard marks the whole answer degraded
  /// while the other legs still answer from their indexes). lookup_ms /
  /// refine_ms sum across legs — aggregate work, not wall clock (the
  /// scatter's wall time is the `fix.shard.fanout_us` histogram).
  [[nodiscard]] Result<ExecStats> Query(const std::string& index_name,
                                        const std::string& xpath,
                                        std::vector<NodeRef>* results = nullptr);

  /// Batch form: queries compile (once, via the shared PlanCache) and run
  /// in order, each scattering across shards. Same per-query outcome
  /// contract as Database::ExecuteMany.
  [[nodiscard]] Result<std::vector<Database::BatchQueryOutcome>> ExecuteMany(
      const std::string& index_name, const std::vector<std::string>& xpaths);

  /// Parses + resolves against the master label table through the shared
  /// PlanCache — one compiled plan serves every shard's scatter leg.
  [[nodiscard]] Result<TwigQuery> Compile(const std::string& xpath);

  /// Parses one XML document, assigns the next global doc id, routes it to
  /// its shard, persists that shard's corpus + the master label table, and
  /// commits it into the shard's index via the COW write path (an empty
  /// index name inserts into the corpus only). Only the
  /// target shard's readers pause (briefly, for the corpus append); every
  /// other shard is untouched. Writer-exclusive (callers serialize
  /// mutators). Returns the global doc id.
  [[nodiscard]] Result<uint32_t> InsertXml(const std::string& index_name,
                                           std::string_view xml);

  /// Batched insert: documents are parsed and routed up front, then every
  /// target shard persists and index-commits its slice in parallel — the
  /// scatter pool fans the commits out and no lock spans two shards.
  /// Returns the global doc ids, in input order.
  [[nodiscard]] Result<std::vector<uint32_t>> InsertMany(
      const std::string& index_name, const std::vector<std::string>& xmls);

  /// Online shard split/rebalance to `new_shard_count`: re-partitions
  /// every document into a fresh gen-<G+1> layout, builds index `name` on
  /// each new shard in parallel, atomically publishes (manifest rewrite +
  /// shard-vector swap), and retires the old generation's directories.
  /// Readers are live throughout — in-flight queries finish against the
  /// old shards. Writer-exclusive.
  [[nodiscard]] Status Rebalance(uint32_t new_shard_count,
                                 const std::string& index_name);

  uint32_t shard_count() const FIX_EXCLUDES(shards_mu_);
  uint64_t num_docs() const FIX_EXCLUDES(master_mu_);
  uint64_t layout_generation() const FIX_EXCLUDES(shards_mu_);
  const std::string& workdir() const { return workdir_; }

  /// True when any shard answers `index_name` by full scan (quarantine).
  bool IsDegraded(const std::string& index_name) const
      FIX_EXCLUDES(shards_mu_);
  /// Per-shard degradation flags, by shard ordinal.
  std::vector<bool> DegradedShards(const std::string& index_name) const
      FIX_EXCLUDES(shards_mu_);

  /// Shard `s`'s Database — tests, benches, and stats tooling reach
  /// per-shard state (health, index handles) through this. The pointer is
  /// valid until the next Rebalance retires the shard.
  Database* shard_db(uint32_t s) FIX_EXCLUDES(shards_mu_);

  /// Shared plan-cache statistics (one cache across all shards).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_.GetStats(); }

 private:
  /// One shard: a Database plus the local->global doc-id map. `gate`
  /// orders corpus mutation against in-flight queries on this shard only
  /// — scatter legs hold it shared for the leg, the insert path holds it
  /// exclusive around the corpus append. Index commits happen outside the
  /// gate (the COW protocol serves readers throughout).
  struct Shard {
    // LOCK-ORDER: 5 ShardedDatabase::Shard::gate
    mutable SharedMutex gate;
    std::unique_ptr<Database> db;
    /// Local doc id -> global doc id, ascending (locals are assigned in
    /// global-id order). Guarded by `gate` alongside the corpus.
    std::vector<uint32_t> to_global FIX_GUARDED_BY(gate);
    uint32_t ordinal = 0;
    std::string dir;  ///< absolute shard directory
  };
  using ShardVector = std::vector<std::shared_ptr<Shard>>;

  explicit ShardedDatabase(std::string workdir);

  /// Copies the live shard vector under the shared lock — queries execute
  /// against the snapshot so a concurrent Rebalance can never pull a
  /// shard out from under them.
  ShardVector SnapshotShards() const FIX_EXCLUDES(shards_mu_);

  /// Interns every master label the shard does not have yet, in master id
  /// order, keeping the shard table a full mirror. Caller holds master_mu_
  /// and the shard's gate exclusively.
  static void SyncShardLabels(const LabelTable& master, Corpus* corpus);

  /// The scatter-gather core behind Query and ExecuteMany.
  [[nodiscard]] Result<ExecStats> ScatterGather(
      const std::string& index_name, const TwigQuery& q,
      std::vector<NodeRef>* results);

  /// Serializes the manifest for the given layout and writes it with a
  /// temp-file + rename (readers of the file never see a torn manifest).
  [[nodiscard]] Status WriteManifest(const ShardLayout& layout) const;

  /// Snapshots the current layout (shards, generation, document count) and
  /// writes it with WriteManifest. Inserts call it after growing a shard.
  [[nodiscard]] Status RewriteManifest()
      FIX_EXCLUDES(shards_mu_, master_mu_);

  /// Persists the master label table (encode under master_mu_, write
  /// outside). Mutators call it after growing the table.
  [[nodiscard]] Status PersistMasterLabels() FIX_EXCLUDES(master_mu_);

  /// The effective IndexOptions for shard ordinal `s` (override or
  /// default).
  IndexOptions OptionsForShard(uint32_t s) const;

  std::string workdir_;
  ShardedOptions options_;

  /// Guards the shard vector and layout generation. Held briefly: readers
  /// snapshot the vector, Rebalance swaps it.
  // LOCK-ORDER: 3 ShardedDatabase::shards_mu_
  mutable SharedMutex shards_mu_;
  ShardVector shards_ FIX_GUARDED_BY(shards_mu_);
  uint64_t generation_ FIX_GUARDED_BY(shards_mu_) = 0;

  /// Guards the master label table, the global doc counter, and document
  /// routing — the only cross-shard serialization point on the write
  /// path, held for parse/route bookkeeping but never across a shard's
  /// persist or index commit.
  // LOCK-ORDER: 4 ShardedDatabase::master_mu_
  mutable Mutex master_mu_;
  LabelTable master_labels_ FIX_GUARDED_BY(master_mu_);
  uint64_t total_docs_ FIX_GUARDED_BY(master_mu_) = 0;

  /// One plan cache for all shards: an XPath compiled once (against the
  /// master table) is reused by every scatter leg.
  mutable PlanCache plan_cache_;

  /// Fans out scatter legs, parallel builds, and batched insert commits.
  /// Null when the layout has one shard (legs run inline).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fix

#endif  // FIX_CORE_SHARDED_DATABASE_H_
