// Concurrent-read throughput: N threads hammer one shared unclustered FIX
// index with a fixed XPath workload (a slice of the Figure 6 grid), each
// thread owning its own FixQueryProcessor per the concurrent-read contract
// (fix_index.h / btree.h / buffer_pool.h). Reports QPS and tail latency
// (p50/p95/p99) per thread count, plus a determinism check: every thread
// must produce the same per-pass result total.
//
// A second sweep measures the COW+WAL write path under read load: reader
// threads keep querying at full service while a single writer commits
// generations via InsertDocument, at a paced read/write operation mix
// (95/5 and 50/50). Readers never block on the commit — the sweep reports
// read and write tail latencies side by side, and the `.metrics.prom`
// snapshot next to the CSV carries the fix.wal.* counters for the run.
//
// A third sweep (its own CSV: bench_qps_shards.csv) drives the sharded
// scatter-gather path across 1/2/4/8 hash shards × 1/2/4/8 client
// threads with a mixed read/write phase per layout; every result vector
// is checked byte-identical to the 1-shard baseline, and its
// `.metrics.prom` snapshot carries the fix.shard.* counters.
//
// QPS scales with thread count up to the host's core count (on 4 vCPUs,
// ~3.7x from 1 to 8 threads; EXPERIMENTS.md) and flattens beyond it; the
// per-thread determinism checks prove correctness under concurrency
// whatever the scaling.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "core/sharded_database.h"
#include "harness.h"
#include "server/client.h"

namespace fix::bench {
namespace {

struct Workload {
  DataSet data;
  std::vector<const char*> xpaths;
};

const Workload kWorkloads[] = {
    {DataSet::kDblp,
     {"//inproceedings/title/i", "//dblp/inproceedings/author",
      "//inproceedings[url]/title[sub][i]", "//article[number]/author"}},
    {DataSet::kXMark,
     {"//item/mailbox/mail/text/emph/keyword",
      "//description/parlist/listitem",
      "//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
      "//item[payment][quantity][shipping][mailbox/mail/text]"
      "/description/parlist"}},
};

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kRoundsPerThread = 8;

/// Nearest-rank percentile over a sorted sample (p in [0, 100]).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// One DBLP-shaped document per write op; each commit adds one more result
/// to "//inproceedings/title/i" and "//dblp/inproceedings/author", so stale
/// reads are observable as result counts outside the committed range.
std::string MixedWriteDoc(int i) {
  return "<dblp><inproceedings><author>Writer " + std::to_string(i) +
         "</author><title>Mixed sweep <i>entry</i></title>"
         "<booktitle>Bench Conference</booktitle><url>db/bench" +
         std::to_string(i) +
         "</url><year>1998</year></inproceedings></dblp>";
}

/// Mixed read/write sweep against the (already read-benched) DBLP index:
/// kMixReaders query threads plus ONE writer thread (the single-writer
/// contract), paced so the completed-operation mix tracks
/// `reads_per_write : 1`. The pacing is a mutual speed limit — the writer
/// waits for reads to catch up and readers stay at most one write-quantum
/// ahead — so neither side free-runs; within a quantum both run unthrottled
/// and reader latency includes whatever the concurrent commit costs them.
void RunMixedSweep(Report* report, Corpus* corpus, FixIndex* index,
                   const std::vector<TwigQuery>& queries) {
  constexpr int kMixReaders = 4;
  constexpr int kMixWrites = 24;
  struct Mix {
    const char* name;
    uint64_t reads_per_write;
  };
  constexpr Mix kMixes[] = {{"95/5", 19}, {"50/50", 1}};

  report->Section("mixed read/write (COW commits under read load)");
  report->Note("1 writer (InsertDocument, one WAL commit per op) + " +
               std::to_string(kMixReaders) +
               " readers, paced to the listed completed-op mix; reader "
               "results are validated against the committed generation "
               "range after every run.");
  report->Header({"dataset", "mix", "readers", "reads", "writes", "wall_ms",
                  "read_qps", "writes_per_s", "r_p50_ms", "r_p95_ms",
                  "r_p99_ms", "w_p50_ms", "w_p95_ms", "w_p99_ms"});

  for (const Mix& mix : kMixes) {
    // Corpus mutation is writer-exclusive, so the documents for this run
    // are appended before any reader thread exists; they only become
    // query-visible as the writer commits them.
    std::vector<uint32_t> doc_ids;
    doc_ids.reserve(kMixWrites);
    for (int i = 0; i < kMixWrites; ++i) {
      auto id = corpus->AddXml(MixedWriteDoc(i));
      FIX_CHECK(id.ok());
      doc_ids.push_back(*id);
    }

    const uint64_t gen_before = index->generation();
    std::atomic<uint64_t> read_tickets{0};
    std::atomic<uint64_t> writes_done{0};
    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::vector<std::vector<double>> read_lat(kMixReaders);
    std::vector<double> write_lat;
    write_lat.reserve(kMixWrites);

    Timer wall;
    std::vector<std::thread> readers;
    readers.reserve(kMixReaders);
    for (int t = 0; t < kMixReaders; ++t) {
      readers.emplace_back([&, t] {
        FixQueryProcessor proc(corpus, index);
        while (true) {
          const uint64_t ticket = read_tickets.fetch_add(1);
          while (!done.load() &&
                 ticket >= mix.reads_per_write * (writes_done.load() + 1)) {
            std::this_thread::yield();
          }
          if (done.load()) break;
          const TwigQuery& q = queries[ticket % queries.size()];
          Timer timer;
          auto s = proc.Execute(q);
          read_lat[t].push_back(timer.ElapsedMillis());
          if (!s.ok()) failures.fetch_add(1);
        }
      });
    }
    std::thread writer([&] {
      for (int w = 0; w < kMixWrites; ++w) {
        while (read_tickets.load() <
               mix.reads_per_write * static_cast<uint64_t>(w)) {
          std::this_thread::yield();
        }
        Timer timer;
        Status s = index->InsertDocument(doc_ids[w]);
        write_lat.push_back(timer.ElapsedMillis());
        if (!s.ok()) {
          failures.fetch_add(1);
          break;
        }
        writes_done.store(static_cast<uint64_t>(w) + 1);
      }
      done.store(true);
    });
    writer.join();
    for (std::thread& th : readers) th.join();
    const double wall_ms = wall.ElapsedMillis();

    FIX_CHECK(failures.load() == 0);
    // Every write is one committed generation; readers never blocked it.
    FIX_CHECK(index->generation() == gen_before + kMixWrites);

    std::vector<double> merged;
    for (const std::vector<double>& v : read_lat) {
      merged.insert(merged.end(), v.begin(), v.end());
    }
    std::sort(merged.begin(), merged.end());
    std::sort(write_lat.begin(), write_lat.end());
    const uint64_t reads = merged.size();
    char read_qps[32], wps[32];
    std::snprintf(read_qps, sizeof(read_qps), "%.1f",
                  wall_ms > 0 ? reads / (wall_ms / 1000.0) : 0.0);
    std::snprintf(wps, sizeof(wps), "%.1f",
                  wall_ms > 0 ? kMixWrites / (wall_ms / 1000.0) : 0.0);
    report->Row({DataSetName(DataSet::kDblp), mix.name,
                 std::to_string(kMixReaders), Num(reads), Num(kMixWrites),
                 Ms(wall_ms), read_qps, wps, Ms(Percentile(merged, 50)),
                 Ms(Percentile(merged, 95)), Ms(Percentile(merged, 99)),
                 Ms(Percentile(write_lat, 50)), Ms(Percentile(write_lat, 95)),
                 Ms(Percentile(write_lat, 99))});

    // Post-run validation: a quiescent pass must see exactly the fully
    // committed state (every inserted doc answering).
    FixQueryProcessor proc(corpus, index);
    for (const TwigQuery& q : queries) {
      auto s = proc.Execute(q);
      FIX_CHECK(s.ok());
    }
  }
}

void RunShardSweep();

void Run() {
  Report report("bench_qps");
  report.Note("Concurrent read throughput: N threads, one shared "
              "unclustered index, each thread running " +
              std::to_string(kRoundsPerThread) +
              " passes over a fixed 4-query workload.");
  report.Note("QPS scales up to the host's core count; identical "
              "per-thread result totals prove thread-safety.");
  for (const Workload& w : kWorkloads) {
    report.Section(std::string("concurrent reads: ") + DataSetName(w.data));
    report.Header({"dataset", "threads", "ops", "wall_ms", "qps", "p50_ms",
                   "p95_ms", "p99_ms", "results_per_pass"});
    std::unique_ptr<Corpus> corpus = BuildCorpus(w.data);
    Result<FixIndex> index =
        BuildFix(corpus.get(), w.data, /*clustered=*/false, 0, nullptr,
                 std::string("qps_") + DataSetName(w.data));
    FIX_CHECK(index.ok());

    std::vector<TwigQuery> queries;
    queries.reserve(w.xpaths.size());
    for (const char* xpath : w.xpaths) {
      queries.push_back(Compile(corpus.get(), xpath));
    }

    // Single-threaded ground truth for the determinism check: results per
    // full pass over the workload.
    uint64_t expected_per_pass = 0;
    {
      FixQueryProcessor proc(corpus.get(), &*index);
      for (const TwigQuery& q : queries) {
        auto s = proc.Execute(q);
        FIX_CHECK(s.ok());
        expected_per_pass += s->result_count;
      }
    }

    for (int n : kThreadCounts) {
      std::vector<std::vector<double>> lat_ms(n);
      std::vector<uint64_t> result_totals(n, 0);
      const int ops_per_thread =
          kRoundsPerThread * static_cast<int>(queries.size());

      Timer wall;
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (int t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
          FixQueryProcessor proc(corpus.get(), &*index);
          lat_ms[t].reserve(ops_per_thread);
          for (int round = 0; round < kRoundsPerThread; ++round) {
            for (const TwigQuery& q : queries) {
              Timer timer;
              auto s = proc.Execute(q);
              lat_ms[t].push_back(timer.ElapsedMillis());
              FIX_CHECK(s.ok());
              result_totals[t] += s->result_count;
            }
          }
        });
      }
      for (std::thread& th : threads) th.join();
      double wall_ms = wall.ElapsedMillis();

      // Every thread ran the same passes against the same shared index;
      // any divergence means the concurrent read path corrupted a lookup.
      for (int t = 0; t < n; ++t) {
        FIX_CHECK(result_totals[t] ==
                  expected_per_pass * kRoundsPerThread);
      }

      std::vector<double> merged;
      merged.reserve(static_cast<size_t>(n) * ops_per_thread);
      for (const std::vector<double>& v : lat_ms) {
        merged.insert(merged.end(), v.begin(), v.end());
      }
      std::sort(merged.begin(), merged.end());
      const uint64_t ops = merged.size();
      double qps = wall_ms > 0 ? ops / (wall_ms / 1000.0) : 0;

      char qps_s[32];
      std::snprintf(qps_s, sizeof(qps_s), "%.1f", qps);
      report.Row({DataSetName(w.data), std::to_string(n), Num(ops),
                  Ms(wall_ms), qps_s, Ms(Percentile(merged, 50)),
                  Ms(Percentile(merged, 95)), Ms(Percentile(merged, 99)),
                  Num(expected_per_pass)});
    }

    if (w.data == DataSet::kDblp) {
      RunMixedSweep(&report, corpus.get(), &*index, queries);
    }
  }
  // The sharded sweep owns its own Report so the scatter-gather numbers
  // (and the fix.shard.* counters) land in their own CSV + snapshot.
  RunShardSweep();
}

/// Shard-count × thread-count sweep through the production scatter-gather
/// path (writes its own CSV + `.metrics.prom` carrying the fix.shard.*
/// counters). The TCMD corpus — many small documents, so every shard
/// holds real work — is partitioned into 1/2/4/8 hash shards; each layout
/// is hammered by 1/2/4/8 client threads through ShardedDatabase::Query.
/// Parity is the contract under test: every result vector, on every
/// thread, at every shard count, must be byte-identical to the 1-shard
/// baseline. A mixed phase then re-runs each layout with one writer
/// inserting documents through InsertXml (the single-writer contract)
/// while readers stay at full service — the inserted documents match no
/// workload query, so reader parity must hold *during* the writes, and a
/// quiescent marker query afterwards must see every insert.
void RunShardSweep() {
  constexpr int kShardCounts[] = {1, 2, 4, 8};
  constexpr int kMixReaders = 4;
  constexpr int kMixWrites = 12;
  const std::vector<std::string> xpaths = {
      "/article/prolog/authors/author/name", "//author/contact/email",
      "/article/body/section/p"};

  Report report("bench_qps_shards");
  report.Note("Scatter-gather sweep: the TCMD corpus partitioned into "
              "1/2/4/8 hash shards, 1/2/4/8 client threads per layout; "
              "every result vector is checked byte-identical to the "
              "1-shard baseline.");
  report.Note("QPS scales up to the host's core count; per-op parity "
              "checks prove the scatter-gather path's determinism and "
              "isolation under concurrency.");

  std::unique_ptr<Corpus> corpus = BuildCorpus(DataSet::kTcmd);
  std::vector<std::vector<NodeRef>> baseline(xpaths.size());

  report.Section("scatter-gather reads + mixed read/write: tcmd");
  report.Header({"dataset", "phase", "shards", "threads", "ops", "writes",
                 "wall_ms", "qps", "p50_ms", "p95_ms", "p99_ms",
                 "results_per_pass"});
  for (int shards : kShardCounts) {
    // Each layout partitions the pristine in-memory corpus, so the mixed
    // phase's inserts into the previous layout never leak forward.
    const std::string dir = WorkDir("qps_shards_" + std::to_string(shards));
    ShardedOptions sopts;
    sopts.shard_count = static_cast<uint32_t>(shards);
    sopts.index.depth_limit = PaperDepthLimit(DataSet::kTcmd);
    auto sdb = ShardedDatabase::Partition(*corpus, dir, sopts);
    FIX_CHECK(sdb.ok());
    FIX_CHECK((*sdb)->BuildIndexes("main").ok());

    // Quiescent pass: the 1-shard layout anchors the baseline; every
    // other shard count must reproduce it byte for byte.
    uint64_t expected_per_pass = 0;
    for (size_t i = 0; i < xpaths.size(); ++i) {
      std::vector<NodeRef> results;
      auto s = (*sdb)->Query("main", xpaths[i], &results);
      FIX_CHECK(s.ok());
      FIX_CHECK(!s->degraded);
      if (shards == kShardCounts[0]) {
        baseline[i] = std::move(results);
      } else {
        FIX_CHECK(results == baseline[i]);
      }
      expected_per_pass += baseline[i].size();
    }

    for (int n : kThreadCounts) {
      const int ops_per_thread =
          kRoundsPerThread * static_cast<int>(xpaths.size());
      std::vector<std::vector<double>> lat_ms(n);
      std::atomic<int> failures{0};

      Timer wall;
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (int t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
          lat_ms[t].reserve(ops_per_thread);
          for (int round = 0; round < kRoundsPerThread; ++round) {
            for (size_t i = 0; i < xpaths.size(); ++i) {
              std::vector<NodeRef> results;
              Timer timer;
              auto s = (*sdb)->Query("main", xpaths[i], &results);
              lat_ms[t].push_back(timer.ElapsedMillis());
              if (!s.ok() || results != baseline[i]) {
                failures.fetch_add(1);
                return;
              }
            }
          }
        });
      }
      for (std::thread& th : threads) th.join();
      const double wall_ms = wall.ElapsedMillis();
      FIX_CHECK(failures.load() == 0);

      std::vector<double> merged;
      merged.reserve(static_cast<size_t>(n) * ops_per_thread);
      for (const std::vector<double>& v : lat_ms) {
        merged.insert(merged.end(), v.begin(), v.end());
      }
      std::sort(merged.begin(), merged.end());
      const uint64_t ops = merged.size();
      char qps_s[32];
      std::snprintf(qps_s, sizeof(qps_s), "%.1f",
                    wall_ms > 0 ? ops / (wall_ms / 1000.0) : 0.0);
      report.Row({DataSetName(DataSet::kTcmd), "read", std::to_string(shards),
                  std::to_string(n), Num(ops), "0", Ms(wall_ms), qps_s,
                  Ms(Percentile(merged, 50)), Ms(Percentile(merged, 95)),
                  Ms(Percentile(merged, 99)), Num(expected_per_pass)});
    }

    // Mixed phase: readers against the same layout while one writer
    // routes inserts across the shards. The inserted documents match no
    // workload query, so parity against the pre-write baseline must hold
    // on every read, concurrent with the commits. Reads are ticket-paced
    // to the write quanta (same mutual speed limit as the mixed WAL
    // sweep): free-running readers on a single CPU re-acquire the shard
    // gates back to back and can starve the writer's exclusive
    // acquisition — with pacing the sweep measures commit cost under
    // read load, not starvation.
    {
      constexpr uint64_t kReadsPerWrite = 8;
      std::atomic<uint64_t> read_tickets{0};
      std::atomic<uint64_t> writes_done{0};
      std::atomic<bool> done{false};
      std::atomic<int> failures{0};
      std::vector<std::vector<double>> lat_ms(kMixReaders);
      Timer wall;
      std::vector<std::thread> readers;
      readers.reserve(kMixReaders);
      for (int t = 0; t < kMixReaders; ++t) {
        readers.emplace_back([&, t] {
          while (true) {
            const uint64_t ticket = read_tickets.fetch_add(1);
            while (!done.load() &&
                   ticket >= kReadsPerWrite * (writes_done.load() + 1)) {
              std::this_thread::yield();
            }
            if (done.load()) break;
            const size_t i = ticket % xpaths.size();
            std::vector<NodeRef> results;
            Timer timer;
            auto s = (*sdb)->Query("main", xpaths[i], &results);
            lat_ms[t].push_back(timer.ElapsedMillis());
            if (!s.ok() || results != baseline[i]) {
              failures.fetch_add(1);
              return;
            }
          }
        });
      }
      std::thread writer([&] {
        for (int w = 0; w < kMixWrites; ++w) {
          while (read_tickets.load() <
                 kReadsPerWrite * static_cast<uint64_t>(w)) {
            std::this_thread::yield();
          }
          auto id = (*sdb)->InsertXml(
              "main",
              "<article><prolog><title>shard sweep filler</title></prolog>"
              "<benchmark><marker>m" +
                  std::to_string(w) + "</marker></benchmark></article>");
          if (!id.ok()) {
            failures.fetch_add(1);
            break;
          }
          writes_done.store(static_cast<uint64_t>(w) + 1);
        }
        done.store(true);
      });
      writer.join();
      for (std::thread& th : readers) th.join();
      const double wall_ms = wall.ElapsedMillis();
      FIX_CHECK(failures.load() == 0);

      // Quiescent validation: the workload still answers the baseline and
      // every routed insert is query-visible through its shard's index.
      for (size_t i = 0; i < xpaths.size(); ++i) {
        std::vector<NodeRef> results;
        auto s = (*sdb)->Query("main", xpaths[i], &results);
        FIX_CHECK(s.ok());
        FIX_CHECK(results == baseline[i]);
      }
      {
        std::vector<NodeRef> markers;
        auto s = (*sdb)->Query("main", "//benchmark/marker", &markers);
        FIX_CHECK(s.ok());
        FIX_CHECK(markers.size() == static_cast<size_t>(kMixWrites));
      }

      std::vector<double> merged;
      for (const std::vector<double>& v : lat_ms) {
        merged.insert(merged.end(), v.begin(), v.end());
      }
      std::sort(merged.begin(), merged.end());
      const uint64_t reads = merged.size();
      char qps_s[32];
      std::snprintf(qps_s, sizeof(qps_s), "%.1f",
                    wall_ms > 0 ? reads / (wall_ms / 1000.0) : 0.0);
      report.Row({DataSetName(DataSet::kTcmd), "mixed",
                  std::to_string(shards), std::to_string(kMixReaders),
                  Num(reads), Num(kMixWrites), Ms(wall_ms), qps_s,
                  Ms(Percentile(merged, 50)), Ms(Percentile(merged, 95)),
                  Ms(Percentile(merged, 99)), Num(expected_per_pass)});
    }
  }
}

/// Remote sweep against a running fixd server (`--remote host:port`). The
/// server must serve the default-scale DBLP corpus with the paper's depth
/// limit (`fixctl gen DIR dblp` + `fixctl build DIR --depth 6` — the
/// generators are deterministic, so that corpus is identical to
/// BuildCorpus(kDblp) here, and depth 6 matches BuildFix's ground-truth
/// index: result bytes include ordering, which follows candidate order). The sweep first proves the
/// wire path is lossless — every QUERY and QUERY_BATCH result vector must
/// be byte-identical to an in-process execution over the same corpus —
/// then measures end-to-end QPS and tail latency across 1/2/4/8 client
/// connections, each thread owning one FixdClient (one request in flight
/// per connection, matching the server's model).
void RunRemote(const std::string& address) {
  const Workload& w = kWorkloads[0];
  FIX_CHECK(w.data == DataSet::kDblp);

  Report report("bench_qps_remote");
  report.Note("Network sweep against fixd at " + address +
              "; per-op latency includes wire framing, one TCP round "
              "trip, and server-side dispatch.");
  report.Note("Every response is checked byte-identical to an in-process "
              "execution over the same deterministic DBLP corpus.");

  // In-process ground truth: same corpus, same workload, local execution.
  std::unique_ptr<Corpus> corpus = BuildCorpus(w.data);
  Result<FixIndex> index = BuildFix(corpus.get(), w.data,
                                    /*clustered=*/false, 0, nullptr,
                                    "qps_remote");
  FIX_CHECK(index.ok());
  std::vector<std::string> xpaths(w.xpaths.begin(), w.xpaths.end());
  std::vector<std::vector<NodeRef>> expected(xpaths.size());
  {
    FixQueryProcessor proc(corpus.get(), &*index);
    for (size_t i = 0; i < xpaths.size(); ++i) {
      TwigQuery q = Compile(corpus.get(), xpaths[i]);
      // Database::Query runs the same refinement server-side (and
      // ExecuteMany's deterministic merge reproduces it), so the comparison
      // below is order-sensitive byte equality, not just set equality.
      auto s = proc.Execute(q, &expected[i]);
      FIX_CHECK(s.ok());
    }
  }

  auto same = [](const std::vector<wire::WireNodeRef>& got,
                 const std::vector<NodeRef>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].doc_id != want[i].doc_id ||
          got[i].node_id != want[i].node_id) {
        return false;
      }
    }
    return true;
  };

  // Parity phase: single QUERYs plus one QUERY_BATCH with server-side
  // fan-out; a mismatch is a wire-protocol or server-dispatch bug, so it
  // aborts the benchmark rather than producing numbers for a broken path.
  {
    auto client = server::FixdClient::Connect(address);
    FIX_CHECK(client.ok());
    for (size_t i = 0; i < xpaths.size(); ++i) {
      auto outcome = (*client)->Query("main", xpaths[i]);
      FIX_CHECK(outcome.ok());
      FIX_CHECK(same(outcome->results, expected[i]));
    }
    auto batch = (*client)->QueryBatch("main", xpaths, /*threads=*/2);
    FIX_CHECK(batch.ok());
    FIX_CHECK(batch->size() == xpaths.size());
    for (size_t i = 0; i < xpaths.size(); ++i) {
      FIX_CHECK((*batch)[i].code == wire::Code::kOk);
      FIX_CHECK(same((*batch)[i].results, expected[i]));
    }
    report.Note("parity: " + std::to_string(xpaths.size()) +
                " QUERY + 1 QUERY_BATCH byte-identical to in-process");
  }

  report.Section("remote concurrent reads: " +
                 std::string(DataSetName(w.data)));
  report.Header({"dataset", "transport", "threads", "ops", "wall_ms", "qps",
                 "p50_ms", "p95_ms", "p99_ms", "results_per_pass"});
  uint64_t expected_per_pass = 0;
  for (const std::vector<NodeRef>& v : expected) expected_per_pass += v.size();

  for (int n : kThreadCounts) {
    const int ops_per_thread =
        kRoundsPerThread * static_cast<int>(xpaths.size());
    std::vector<std::vector<double>> lat_ms(n);
    std::atomic<int> failures{0};

    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        auto client = server::FixdClient::Connect(address);
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        lat_ms[t].reserve(ops_per_thread);
        for (int round = 0; round < kRoundsPerThread; ++round) {
          for (size_t i = 0; i < xpaths.size(); ++i) {
            Timer timer;
            auto outcome = (*client)->Query("main", xpaths[i]);
            lat_ms[t].push_back(timer.ElapsedMillis());
            if (!outcome.ok() || !same(outcome->results, expected[i])) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const double wall_ms = wall.ElapsedMillis();
    FIX_CHECK(failures.load() == 0);

    std::vector<double> merged;
    merged.reserve(static_cast<size_t>(n) * ops_per_thread);
    for (const std::vector<double>& v : lat_ms) {
      merged.insert(merged.end(), v.begin(), v.end());
    }
    std::sort(merged.begin(), merged.end());
    const uint64_t ops = merged.size();
    char qps_s[32];
    std::snprintf(qps_s, sizeof(qps_s), "%.1f",
                  wall_ms > 0 ? ops / (wall_ms / 1000.0) : 0.0);
    report.Row({DataSetName(w.data), "fixd", std::to_string(n), Num(ops),
                Ms(wall_ms), qps_s, Ms(Percentile(merged, 50)),
                Ms(Percentile(merged, 95)), Ms(Percentile(merged, 99)),
                Num(expected_per_pass)});
  }
}

}  // namespace
}  // namespace fix::bench

int main(int argc, char** argv) {
  std::string remote;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--remote=", 0) == 0) {
      remote = arg.substr(std::strlen("--remote="));
    } else if (arg == "--remote" && i + 1 < argc) {
      remote = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--remote host:port]\n"
                   "  (no flags: in-process sweeps; --remote: network sweep "
                   "against a fixd serving the default DBLP corpus)\n",
                   argv[0]);
      return 2;
    }
  }
  if (remote.empty()) {
    fix::bench::Run();
  } else {
    fix::bench::RunRemote(remote);
  }
  return 0;
}
