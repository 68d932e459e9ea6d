// fixdb_scrub: offline integrity verifier for FIX index page files.
//
// Usage: fixdb_scrub [--no-structure] [--wal] <file.fix|sharded-dir> [...]
//
// For each file, walks every page verifying the self-describing header
// (magic, format version, embedded page id, CRC32C) and, unless
// --no-structure is given, audits the B+-tree built on those pages
// (node types, depths, fanout, key order within and across leaves, entry
// counts).
// With --wal, additionally verifies the write-ahead log sidecar
// (`<file>.wal`): header magic/CRC, a full record walk, and torn-tail
// detection. A missing log is fine (pre-WAL index); a torn or unparseable
// one counts as damage. Never modifies the files.
//
// A directory argument carrying shards.manifest (a ShardedDatabase
// workdir, `fixctl build --shards`) expands to every `.fix` page file in
// every live shard directory — the whole sharded layout scrubs in one
// invocation. A manifest that fails validation, or a listed shard
// directory with no index files, counts as damage. Exits 0 iff every
// file is clean.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/sharded_database.h"
#include "storage/scrub.h"
#include "storage/wal.h"

namespace {

// Returns true when the log at `path` + ".wal" is clean (or absent).
bool ScrubWal(const std::string& path) {
  const std::string wal_path = path + ".wal";
  fix::Result<fix::WalScanResult> scan = fix::Wal::Inspect(wal_path);
  if (!scan.ok()) {
    if (scan.status().IsNotFound()) {
      std::printf("%s: no WAL (ok)\n", wal_path.c_str());
      return true;
    }
    std::fprintf(stderr, "%s: CORRUPT: %s\n", wal_path.c_str(),
                 scan.status().ToString().c_str());
    return false;
  }
  if (scan->torn_tail) {
    std::fprintf(stderr,
                 "%s: TORN TAIL after %llu intact record(s) (%llu bytes); "
                 "recovery will discard it\n",
                 wal_path.c_str(),
                 static_cast<unsigned long long>(scan->records),
                 static_cast<unsigned long long>(scan->valid_bytes));
    return false;
  }
  if (scan->has_commit) {
    std::printf("%s: OK (%llu record(s), last committed generation %llu)\n",
                wal_path.c_str(),
                static_cast<unsigned long long>(scan->records),
                static_cast<unsigned long long>(
                    scan->last_commit.generation));
  } else {
    std::printf("%s: OK (empty, checkpointed)\n", wal_path.c_str());
  }
  return true;
}

// Expands a sharded-layout workdir into the `.fix` page files of every
// shard named by its manifest, appending them to `paths`. Sorted within
// each shard so output order is deterministic. Returns false (and prints
// why) when the manifest is unreadable or a shard holds no index files.
bool ExpandShardedLayout(const std::string& workdir,
                         std::vector<std::string>* paths) {
  fix::Result<fix::ShardLayout> layout = fix::ReadShardLayout(workdir);
  if (!layout.ok()) {
    std::fprintf(stderr, "%s: CORRUPT manifest: %s\n", workdir.c_str(),
                 layout.status().ToString().c_str());
    return false;
  }
  std::printf("%s: sharded layout, %u shard(s), generation %llu\n",
              workdir.c_str(), layout->shard_count,
              static_cast<unsigned long long>(layout->generation));
  bool ok = true;
  for (const std::string& dir : layout->shard_dirs) {
    const std::string shard_dir = workdir + "/" + dir;
    std::vector<std::string> shard_files;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(shard_dir, ec)) {
      if (entry.path().extension() == ".fix") {
        shard_files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "%s: cannot list shard: %s\n", shard_dir.c_str(),
                   ec.message().c_str());
      ok = false;
      continue;
    }
    if (shard_files.empty()) {
      std::fprintf(stderr, "%s: no index files in shard\n",
                   shard_dir.c_str());
      ok = false;
      continue;
    }
    std::sort(shard_files.begin(), shard_files.end());
    paths->insert(paths->end(), shard_files.begin(), shard_files.end());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  fix::ScrubOptions options;
  bool scrub_wal = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-structure") == 0) {
      options.verify_structure = false;
    } else if (std::strcmp(argv[i], "--wal") == 0) {
      scrub_wal = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--no-structure] [--wal] <file.fix|sharded-dir> [...]\n",
          argv[0]);
      return 0;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--no-structure] [--wal] <file.fix|sharded-dir> "
                 "[...]\n",
                 argv[0]);
    return 2;
  }

  int failures = 0;
  // Expand sharded-layout directories in place before scrubbing.
  {
    std::vector<std::string> expanded;
    for (const std::string& path : paths) {
      if (fix::IsShardedLayout(path)) {
        if (!ExpandShardedLayout(path, &expanded)) ++failures;
      } else {
        expanded.push_back(path);
      }
    }
    paths = std::move(expanded);
  }
  for (const std::string& path : paths) {
    fix::Result<fix::ScrubReport> result = fix::ScrubPageFile(path, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: cannot scrub: %s\n", path.c_str(),
                   result.status().ToString().c_str());
      ++failures;
      continue;
    }
    const fix::ScrubReport& report = result.value();
    if (report.clean()) {
      std::printf("%s: OK (%llu pages verified)\n", path.c_str(),
                  static_cast<unsigned long long>(report.ok_pages));
    } else {
      std::fprintf(stderr, "%s: CORRUPT (%llu/%llu pages verified, %zu violations)\n",
                   path.c_str(),
                   static_cast<unsigned long long>(report.ok_pages),
                   static_cast<unsigned long long>(report.pages),
                   report.violations.size());
      for (const std::string& v : report.violations) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
      ++failures;
    }
    if (scrub_wal && !ScrubWal(path)) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
