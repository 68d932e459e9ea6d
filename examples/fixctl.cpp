// fixctl: a command-line driver for the whole library — generate or load a
// corpus, build indexes, run queries, inspect statistics. This is the
// "ops tool" a downstream user would reach for first.
//
// Run `fixctl help` for the full command synopsis; the tables driving both
// the parser and the help text live in fixctl_cli.{h,cc} and are kept in
// sync by tests/fixctl_cli_test.cc.
//
// <dir> holds the corpus gen/load wrote (labels/primary/manifest) and,
// once built, a sharded layout (shards.manifest, labels.master and one
// Database directory per shard, each with its "main.fix" index). build
// always writes a layout (one shard by default); query, stats and wal read
// only layouts. Every subcommand is restartable: state lives on disk.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/timer.h"
#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/persist.h"
#include "core/sharded_database.h"
#include "datagen/datasets.h"
#include "fixctl_cli.h"
#include "server/client.h"
#include "storage/wal.h"
#include "xml/doc_stats.h"

namespace {

int Usage() {
  std::fprintf(stderr, "%s", fixctl::UsageText().c_str());
  return 2;
}

int Fail(const fix::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// gen and load refuse a directory that already holds a layout: build
/// rebalances a layout's own documents and never reads the top-level corpus
/// again, so a corpus written there would be silently ignored.
fix::Status CheckNoLayout(const std::string& dir) {
  auto layout = fix::ReadShardLayout(dir);
  if (layout.status().IsNotFound()) return fix::Status::OK();
  if (!layout.ok()) return layout.status();
  return fix::Status::InvalidArgument(
      dir + " already holds a sharded layout, which `fixctl build` "
            "rebalances without reading a new corpus; write the corpus to "
            "a new directory");
}

int CmdGen(const std::string& dir, const std::string& kind, double scale) {
  if (auto s = CheckNoLayout(dir); !s.ok()) return Fail(s);
  fix::Corpus corpus;
  if (kind == "tcmd") {
    fix::TcmdOptions o;
    o.num_docs = static_cast<int>(o.num_docs * scale);
    fix::GenerateTcmd(&corpus, o);
  } else if (kind == "dblp") {
    fix::DblpOptions o;
    o.num_publications = static_cast<int>(o.num_publications * scale);
    fix::GenerateDblp(&corpus, o);
  } else if (kind == "xmark") {
    fix::XMarkOptions o;
    o.num_items = static_cast<int>(o.num_items * scale);
    o.num_people = static_cast<int>(o.num_people * scale);
    o.num_open_auctions = static_cast<int>(o.num_open_auctions * scale);
    o.num_closed_auctions = static_cast<int>(o.num_closed_auctions * scale);
    o.num_categories = static_cast<int>(o.num_categories * scale);
    fix::GenerateXMark(&corpus, o);
  } else if (kind == "treebank") {
    fix::TreebankOptions o;
    o.num_sentences = static_cast<int>(o.num_sentences * scale);
    fix::GenerateTreebank(&corpus, o);
  } else {
    return Usage();
  }
  if (auto s = corpus.Save(dir); !s.ok()) return Fail(s);
  std::printf("generated %zu document(s), %zu elements -> %s\n",
              corpus.num_docs(), corpus.TotalElements(), dir.c_str());
  return 0;
}

int CmdLoad(const std::string& dir, const std::vector<std::string>& files) {
  if (auto s = CheckNoLayout(dir); !s.ok()) return Fail(s);
  fix::Corpus corpus;
  for (const std::string& file : files) {
    auto xml = fix::ReadFile(file);
    if (!xml.ok()) return Fail(xml.status());
    auto id = corpus.AddXml(*xml);
    if (!id.ok()) {
      std::fprintf(stderr, "%s: ", file.c_str());
      return Fail(id.status());
    }
  }
  if (auto s = corpus.Save(dir); !s.ok()) return Fail(s);
  std::printf("loaded %zu document(s), %zu elements -> %s\n",
              corpus.num_docs(), corpus.TotalElements(), dir.c_str());
  return 0;
}

int CmdBuild(const std::string& dir, int argc, char** argv) {
  const fixctl::CliCommand* cmd = fixctl::FindCommand("build");
  fix::ShardedOptions sopts;
  fix::IndexOptions& options = sopts.index;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (fixctl::FindFlag(*cmd, arg) == nullptr) {
      std::fprintf(stderr, "fixctl build: unknown flag %s\n", arg.c_str());
      return Usage();
    }
    if (arg == "--depth" && i + 1 < argc) {
      options.depth_limit = std::atoi(argv[++i]);
    } else if (arg == "--clustered") {
      options.clustered = true;
    } else if (arg == "--beta" && i + 1 < argc) {
      options.value_beta = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--lambda2") {
      options.use_lambda2 = true;
    } else if (arg == "--sound") {
      options.sound_probe = true;
    } else if (arg == "--cache-mb" && i + 1 < argc) {
      options.feature_cache_mb = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--shards" && i + 1 < argc) {
      sopts.shard_count = static_cast<uint32_t>(std::atoi(argv[++i]));
      if (sopts.shard_count == 0) {
        std::fprintf(stderr, "fixctl build: --shards must be >= 1\n");
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  auto sdb = fix::ShardedDatabase::Open(dir, sopts);
  if (sdb.ok()) {
    // An existing layout: re-partition every document it holds (inserted
    // ones included) into shard_count shards and build main with the new
    // options, in a fresh layout generation.
    if (auto s = (*sdb)->Rebalance(sopts.shard_count, "main"); !s.ok()) {
      return Fail(s);
    }
    std::printf("rebuilt %u shard(s) at layout generation %llu\n",
                (*sdb)->shard_count(),
                static_cast<unsigned long long>((*sdb)->layout_generation()));
    return 0;
  }
  if (!sdb.status().IsNotFound()) return Fail(sdb.status());
  // No layout yet: partition the corpus gen/load wrote in this directory
  // and build every shard's index in parallel.
  auto corpus = fix::Corpus::Load(dir);
  if (!corpus.ok()) return Fail(corpus.status());
  sdb = fix::ShardedDatabase::Partition(*corpus, dir, sopts);
  if (!sdb.ok()) return Fail(sdb.status());
  fix::BuildStats stats;
  if (auto s = (*sdb)->BuildIndexes("main", &stats); !s.ok()) return Fail(s);
  std::printf("built %u shard(s): %llu entries in %.3f s (B+-trees "
              "%.1f MB); %llu oversized pattern(s)\n",
              sopts.shard_count, static_cast<unsigned long long>(stats.entries),
              stats.construction_seconds,
              stats.btree_bytes / (1024.0 * 1024.0),
              static_cast<unsigned long long>(stats.oversized_patterns));
  return 0;
}

int CmdPing(const std::string& address) {
  fix::Timer timer;
  auto client = fix::server::FixdClient::Connect(address);
  if (!client.ok()) return Fail(client.status());
  if (auto s = (*client)->Ping(); !s.ok()) return Fail(s);
  std::printf("PONG from %s (%.2f ms)\n", address.c_str(),
              timer.ElapsedMillis());
  return 0;
}

/// Remote query: ships the XPath to a fixd server and prints the wire
/// outcome. The server owns parsing and execution, so --explain/--metrics
/// (local index introspection) do not apply here; results are printed as
/// (doc, node) pairs — label names live in the server's corpus.
int CmdQueryRemote(const std::string& address, const std::string& xpath) {
  auto client = fix::server::FixdClient::Connect(address);
  if (!client.ok()) return Fail(client.status());
  auto outcome = (*client)->Query("main", xpath);
  if (!outcome.ok()) return Fail(outcome.status());
  std::printf("%llu result(s); candidates %llu%s%s\n",
              static_cast<unsigned long long>(outcome->result_count),
              static_cast<unsigned long long>(outcome->candidates),
              outcome->used_index ? "" : " [full-scan fallback]",
              outcome->degraded ? " [index degraded]" : "");
  size_t shown = 0;
  for (const fix::wire::WireNodeRef& ref : outcome->results) {
    if (shown++ == 10) {
      std::printf("  ... (%zu more)\n", outcome->results.size() - 10);
      break;
    }
    std::printf("  doc %u node %u\n", ref.doc_id, ref.node_id);
  }
  return 0;
}

int CmdStatsRemote(const std::string& address) {
  auto client = fix::server::FixdClient::Connect(address);
  if (!client.ok()) return Fail(client.status());
  auto text = (*client)->Stats();
  if (!text.ok()) return Fail(text.status());
  std::printf("%s", text->c_str());
  return 0;
}

int CmdQuery(const std::string& dir, const std::string& xpath, bool explain,
             bool metrics) {
  auto sdb = fix::ShardedDatabase::Open(dir);
  if (!sdb.ok()) return Fail(sdb.status());
  if (explain) {
    // The compiled plan's label ids are valid on every shard (each shard's
    // table mirrors the master), so the per-shard estimates add up.
    auto query = (*sdb)->Compile(xpath);
    if (!query.ok()) return Fail(query.status());
    // Best effort: a shard that cannot estimate drops the line, not the
    // query.
    uint64_t estimate = 0;
    uint64_t entries = 0;
    bool estimated = true;
    for (uint32_t s = 0; s < (*sdb)->shard_count(); ++s) {
      fix::FixIndex* index = (*sdb)->shard_db(s)->index("main");
      if (index == nullptr) continue;  // quarantined: the leg full-scans
      auto shard_estimate = index->EstimateCandidates(*query);
      if (!shard_estimate.ok()) {
        estimated = false;
        break;
      }
      estimate += *shard_estimate;
      entries += index->num_entries();
    }
    if (estimated) {
      std::printf("estimate: ~%llu candidate(s) of %llu entries\n",
                  static_cast<unsigned long long>(estimate),
                  static_cast<unsigned long long>(entries));
    }
  }
  std::vector<fix::NodeRef> results;
  auto stats = (*sdb)->Query("main", xpath, &results);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("%llu result(s) across %u shard(s); candidates %llu/%llu "
              "(pp %.2f%%), lookup %.2f ms, refine %.2f ms%s%s\n",
              static_cast<unsigned long long>(stats->result_count),
              (*sdb)->shard_count(),
              static_cast<unsigned long long>(stats->candidates),
              static_cast<unsigned long long>(stats->total_entries),
              stats->pruning_power() * 100, stats->lookup_ms,
              stats->refine_ms,
              stats->used_index ? "" : " [full-scan fallback]",
              stats->degraded ? " [shard(s) degraded]" : "");
  size_t shown = 0;
  for (const fix::NodeRef& ref : results) {
    if (shown++ == 10) {
      std::printf("  ... (%zu more)\n", results.size() - 10);
      break;
    }
    auto label = (*sdb)->NodeLabel(ref);
    if (!label.ok()) return Fail(label.status());
    std::printf("  doc %u node %u <%s>\n", ref.doc_id, ref.node_id,
                label->c_str());
  }
  if (metrics) {
    std::printf("\n%s",
                fix::MetricsRegistry::Instance().HumanTable().c_str());
  }
  return 0;
}

int CmdStats(const std::string& dir, const std::string& format) {
  if (format != "human" && format != "prom") {
    std::fprintf(stderr, "fixctl stats: unknown format '%s'\n",
                 format.c_str());
    return Usage();
  }
  auto sdb = fix::ShardedDatabase::Open(dir);
  if (!sdb.ok()) return Fail(sdb.status());
  const bool prom = format == "prom";
  if (!prom) {
    // Corpus and index summary over every shard, then the shard map.
    const uint32_t shards = (*sdb)->shard_count();
    fix::DocStats agg;
    uint64_t entries = 0;
    const fix::FixIndex* any_index = nullptr;
    for (uint32_t s = 0; s < shards; ++s) {
      fix::Database* db = (*sdb)->shard_db(s);
      fix::Corpus& corpus = *db->corpus();
      for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
        agg.Merge(ComputeDocStats(corpus.doc(d), *corpus.labels()));
      }
      if (const fix::FixIndex* index = db->index("main")) {
        entries += index->num_entries();
        any_index = index;
      }
    }
    std::printf("documents: %llu\nelements:  %zu\ntext:      %zu node(s), "
                "%zu byte(s)\nmax depth: %d\nlabels:    %zu\n",
                static_cast<unsigned long long>((*sdb)->num_docs()),
                agg.elements, agg.text_nodes, agg.text_bytes, agg.max_depth,
                (*sdb)->shard_db(0)->corpus()->labels()->size());
    if (any_index != nullptr) {
      const fix::IndexOptions& o = any_index->options();
      std::printf("index:     %llu entries, depth limit %d%s%s\n",
                  static_cast<unsigned long long>(entries), o.depth_limit,
                  o.clustered ? ", clustered" : "",
                  o.value_beta > 0 ? ", values" : "");
    } else {
      std::printf("index:     (none attached)\n");
    }
    std::printf("layout:    %u shard(s), generation %llu\n", shards,
                static_cast<unsigned long long>((*sdb)->layout_generation()));
    std::vector<bool> degraded = (*sdb)->DegradedShards("main");
    for (uint32_t s = 0; s < shards; ++s) {
      std::printf("  shard %04u: %zu doc(s)%s\n", s,
                  (*sdb)->shard_db(s)->corpus()->num_docs(),
                  degraded[s] ? "  [index DEGRADED — full scan]" : "");
    }
  }
  // Live registry snapshot. In a fresh process this reflects the work this
  // command just did (opening the shards and their indexes populates the
  // PageIo and buffer-pool counters); a long-lived embedder sees its own
  // history. Prometheus mode prints the exposition alone so the output
  // scrapes cleanly.
  fix::MetricsRegistry& registry = fix::MetricsRegistry::Instance();
  if (prom) {
    std::printf("%s", registry.PrometheusText().c_str());
  } else {
    std::printf("\n%s", registry.HumanTable().c_str());
  }
  return 0;
}

/// One shard's block of `fixctl wal`: its main.fix.wal against its sidecar
/// meta.
int PrintShardWal(const std::string& dir) {
  const std::string wal_path = dir + "/main.fix.wal";
  auto scan = fix::Wal::Inspect(wal_path);
  if (!scan.ok()) {
    if (scan.status().IsNotFound()) {
      std::printf("%s: no write-ahead log (index predates the WAL, or none "
                  "built)\n",
                  wal_path.c_str());
      return 0;
    }
    return Fail(scan.status());
  }
  std::printf("%s:\n", wal_path.c_str());
  std::printf("  geometry:       key %u B, value %u B\n", scan->key_size,
              scan->value_size);
  std::printf("  records:        %llu intact (%llu bytes incl. header)\n",
              static_cast<unsigned long long>(scan->records),
              static_cast<unsigned long long>(scan->valid_bytes));
  std::printf("  torn tail:      %s\n",
              scan->torn_tail ? "YES (discarded on next open)" : "no");
  if (scan->has_commit) {
    const fix::WalCommit& c = scan->last_commit;
    std::printf("  last commit:    generation %llu, root page %u, height %u, "
                "%llu entries\n",
                static_cast<unsigned long long>(c.generation), c.root,
                c.height, static_cast<unsigned long long>(c.num_entries));
    std::printf("                  indexed_docs %llu\n",
                static_cast<unsigned long long>(c.indexed_docs));
  } else {
    std::printf("  last commit:    (none — log is empty or checkpointed)\n");
  }
  // Cross-check against the sidecar meta: after a clean checkpoint the
  // sidecar carries the committed generation and the log is empty, so a
  // commit newer than the sidecar means a crash left roll-forward pending.
  auto meta_buf = fix::ReadFile(dir + "/main.fix.meta");
  if (meta_buf.ok()) {
    auto meta = fix::DecodeIndexMeta(*meta_buf);
    if (meta.ok()) {
      std::printf("  sidecar meta:   generation %llu\n",
                  static_cast<unsigned long long>(meta->generation));
      if (scan->has_commit &&
          scan->last_commit.generation > meta->generation) {
        std::printf("  status:         roll-forward PENDING (log generation "
                    "ahead of sidecar; next open replays it)\n");
      } else {
        std::printf("  status:         checkpointed (sidecar is current)\n");
      }
    }
  }
  return 0;
}

int CmdWal(const std::string& dir) {
  auto layout = fix::ReadShardLayout(dir);
  if (!layout.ok()) return Fail(layout.status());
  for (const std::string& shard_dir : layout->shard_dirs) {
    if (int rc = PrintShardWal(dir + "/" + shard_dir); rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "help") == 0 ||
                    std::strcmp(argv[1], "--help") == 0)) {
    std::printf("%s", fixctl::HelpText().c_str());
    return 0;
  }
  if (argc < 3) return Usage();
  std::string cmd = argv[1];
  std::string dir = argv[2];
  if (cmd == "ping") {
    // The operand is host:port, not a directory — no filesystem touch.
    if (argc != 3) return Usage();
    return CmdPing(dir);
  }
  // Remote query/stats never open <dir>; creating it would be a
  // surprising side effect, so scan for --remote before touching disk.
  std::string remote;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--remote=";
    if (arg.rfind(prefix, 0) == 0) {
      remote = arg.substr(prefix.size());
    } else if (arg == "--remote" && i + 1 < argc) {
      remote = argv[i + 1];
    }
  }
  if (remote.empty()) std::filesystem::create_directories(dir);
  if (cmd == "gen" && argc >= 4) {
    return CmdGen(dir, argv[3], argc >= 5 ? std::atof(argv[4]) : 1.0);
  }
  if (cmd == "load" && argc >= 4) {
    return CmdLoad(dir, {argv + 3, argv + argc});
  }
  if (cmd == "build") {
    return CmdBuild(dir, argc - 3, argv + 3);
  }
  if (cmd == "query" && argc >= 4) {
    const fixctl::CliCommand* spec = fixctl::FindCommand("query");
    bool explain = false;
    bool metrics = false;
    for (int i = 4; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--remote=", 0) == 0) continue;  // consumed above
      if (fixctl::FindFlag(*spec, argv[i]) == nullptr) return Usage();
      if (arg == "--explain") explain = true;
      if (arg == "--metrics") metrics = true;
      if (arg == "--remote") ++i;  // value consumed above
    }
    if (!remote.empty()) {
      if (explain || metrics) {
        std::fprintf(stderr,
                     "fixctl query: --explain/--metrics are local index "
                     "options; not valid with --remote\n");
        return Usage();
      }
      return CmdQueryRemote(remote, argv[3]);
    }
    return CmdQuery(dir, argv[3], explain, metrics);
  }
  if (cmd == "stats") {
    const fixctl::CliCommand* spec = fixctl::FindCommand("stats");
    std::string format = "human";
    for (int i = 3; i < argc; ++i) {
      std::string arg = argv[i];
      const std::string prefix = "--format=";
      if (arg.rfind(prefix, 0) == 0) {
        format = arg.substr(prefix.size());
      } else if (arg.rfind("--remote=", 0) == 0) {
        continue;  // consumed by the pre-scan above
      } else if (fixctl::FindFlag(*spec, arg) != nullptr && i + 1 < argc) {
        const char* value = argv[++i];
        if (arg == "--format") format = value;
        // --remote's value was consumed by the pre-scan above.
      } else {
        return Usage();
      }
    }
    if (!remote.empty()) return CmdStatsRemote(remote);
    return CmdStats(dir, format);
  }
  if (cmd == "wal") {
    if (argc != 3) return Usage();
    return CmdWal(dir);
  }
  return Usage();
}
