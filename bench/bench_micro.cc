// Microbenchmarks (google-benchmark) for the hot kernels: the symmetric
// eigensolver, skew-spectrum extraction, bisimulation construction, B+-tree
// operations, XPath parsing, and twig matching. These back the paper's
// Section 3.3 cost claims (sub-millisecond eigensolves for pattern-sized
// matrices).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "datagen/datasets.h"
#include "graph/bisim_builder.h"
#include "query/compile.h"
#include "query/match.h"
#include "query/xpath_parser.h"
#include "spectral/skew_matrix.h"
#include "spectral/spectrum.h"
#include "spectral/sym_eigen.h"
#include "storage/btree.h"

namespace fix {
namespace {

DenseMatrix RandomSkew(size_t n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (rng.Chance(0.3)) {
        double w = 1 + rng.Uniform(40);
        m.at(j, i) = w;
        m.at(i, j) = -w;
      }
    }
  }
  return m;
}

void BM_SymmetricEigenvalues(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  DenseMatrix skew = RandomSkew(n, 7);
  // Symmetrize (MtM) outside the timer? No: the paper's cost includes the
  // full feature extraction, so time the whole SkewSpectrum path.
  for (auto _ : state) {
    auto sigmas = SkewSpectrum(skew);
    benchmark::DoNotOptimize(sigmas);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SymmetricEigenvalues)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Arg(256)->Complexity(benchmark::oNCubed);

void BM_BisimBuild(benchmark::State& state) {
  Corpus corpus;
  TreebankOptions o;
  o.num_sentences = static_cast<int>(state.range(0));
  GenerateTreebank(&corpus, o);
  const Document& doc = corpus.doc(0);
  for (auto _ : state) {
    auto graph = BuildBisimGraph(doc);
    benchmark::DoNotOptimize(graph);
  }
  state.counters["elements"] =
      static_cast<double>(corpus.TotalElements());
}
BENCHMARK(BM_BisimBuild)->Arg(50)->Arg(200)->Arg(800);

void BM_BTreeInsert(benchmark::State& state) {
  // Random inserts into an empty tree as one COW batch per iteration (the
  // tree's only insert path), including PrepareCommit's flush and fsync.
  std::string dir = "/tmp/fix_bench_micro";
  std::filesystem::create_directories(dir);
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    PageFile file;
    FIX_CHECK(file.Open(dir + "/bt", true).ok());
    BufferPool pool(&file, 1024);
    auto tree = BTree::Create(&pool, 32, 16);
    FIX_CHECK(tree.ok());
    state.ResumeTiming();
    std::string key(32, '\0');
    std::string value(16, '\0');
    FIX_CHECK(tree->BeginBatch().ok());
    for (int i = 0; i < state.range(0); ++i) {
      uint64_t k = rng.Next();
      std::memcpy(key.data(), &k, 8);
      FIX_CHECK(tree->Insert(key, value).ok());
    }
    FIX_CHECK(tree->PrepareCommit().ok());
    tree->FinalizeCommit();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeBulkLoad(benchmark::State& state) {
  // The sorted-run load used by the construction pipeline, against the same
  // key/value shape as BM_BTreeInsert (compare items_per_second directly).
  std::string dir = "/tmp/fix_bench_micro";
  std::filesystem::create_directories(dir);
  Rng rng(13);
  std::vector<std::pair<std::string, std::string>> entries(state.range(0));
  for (auto& [key, value] : entries) {
    key.assign(32, '\0');
    value.assign(16, '\0');
    uint64_t k = rng.Next();
    std::memcpy(key.data(), &k, 8);
  }
  std::sort(entries.begin(), entries.end());
  for (auto _ : state) {
    state.PauseTiming();
    PageFile file;
    FIX_CHECK(file.Open(dir + "/btb", true).ok());
    BufferPool pool(&file, 1024);
    auto tree = BTree::Create(&pool, 32, 16);
    FIX_CHECK(tree.ok());
    state.ResumeTiming();
    FIX_CHECK(tree->BulkLoad(entries).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(1000)->Arg(10000);

void BM_IndexBuild(benchmark::State& state) {
  // End-to-end pipeline: full FIX build over a small XMark corpus at depth 6.
  std::string dir = "/tmp/fix_bench_micro_pipeline";
  Corpus corpus;
  XMarkOptions xmark;
  xmark.num_items = 150;
  xmark.num_people = 150;
  xmark.num_open_auctions = 120;
  xmark.num_closed_auctions = 100;
  xmark.num_categories = 50;
  GenerateXMark(&corpus, xmark);
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    state.ResumeTiming();
    IndexOptions options;
    options.depth_limit = 6;
    options.path = dir + "/index.fix";
    BuildStats stats;
    auto idx = FixIndex::Build(&corpus, options, &stats);
    FIX_CHECK(idx.ok());
    benchmark::DoNotOptimize(stats.entries);
  }
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

void BM_BTreeSeekScan(benchmark::State& state) {
  // Seek plus a 64-entry scan over a bulk-loaded tree (packed 48-byte
  // entries, 85 per leaf), so most scans cross one leaf boundary.
  std::string dir = "/tmp/fix_bench_micro";
  std::filesystem::create_directories(dir);
  PageFile file;
  FIX_CHECK(file.Open(dir + "/bts", true).ok());
  BufferPool pool(&file, 4096);
  auto tree = BTree::Create(&pool, 32, 16);
  FIX_CHECK(tree.ok());
  Rng rng(17);
  std::vector<std::pair<std::string, std::string>> entries(50000);
  for (auto& [key, value] : entries) {
    key.assign(32, '\0');
    value.assign(16, '\0');
    uint64_t k = rng.Next();
    std::memcpy(key.data(), &k, 8);
  }
  std::sort(entries.begin(), entries.end());
  FIX_CHECK(tree->BulkLoad(entries).ok());
  std::string key(32, '\0');
  for (auto _ : state) {
    uint64_t k = rng.Next();
    std::memcpy(key.data(), &k, 8);
    auto it = tree->Seek(key);
    FIX_CHECK(it.ok());
    int scanned = 0;
    while (it->Valid() && scanned < 64) {
      benchmark::DoNotOptimize(it->key());
      FIX_CHECK(it->Next().ok());
      ++scanned;
    }
  }
}
BENCHMARK(BM_BTreeSeekScan);

void BM_XPathParse(benchmark::State& state) {
  const std::string query =
      "//open_auction[.//bidder[name][email]]/annotation/description/text";
  for (auto _ : state) {
    auto q = ParseXPath(query);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_XPathParse);

void BM_TwigMatchFullScan(benchmark::State& state) {
  Corpus corpus;
  XMarkOptions o;
  o.num_items = 60;
  o.num_people = 60;
  o.num_open_auctions = 60;
  o.num_closed_auctions = 60;
  o.num_categories = 30;
  GenerateXMark(&corpus, o);
  auto parsed = ParseXPath("//item[name]/mailbox/mail[to]/text");
  TwigQuery q = std::move(parsed).value();
  q.ResolveLabels(corpus.labels());
  const Document& doc = corpus.doc(0);
  for (auto _ : state) {
    TwigMatcher matcher(&doc);
    auto results = matcher.Evaluate(q);
    benchmark::DoNotOptimize(results);
  }
  state.counters["elements"] = static_cast<double>(corpus.TotalElements());
}
BENCHMARK(BM_TwigMatchFullScan);

void BM_MetricsCounterIncrement(benchmark::State& state) {
  // The registry's hot-path unit: one relaxed fetch_add. This is what every
  // instrumented call site (buffer pool Fetch, PageIo Read, ...) pays.
  Counter* counter = MetricsRegistry::Instance().FindOrCreateCounter(
      "bench.micro.counter", "ops", "");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  Histogram* hist = MetricsRegistry::Instance().FindOrCreateHistogram(
      "bench.micro.hist", "us", "");
  uint64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = v * 2862933555777941757ull + 3037000493ull;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_TraceSpanDisabled(benchmark::State& state) {
  // The zero-sink fast path: with no sink attached a span must cost one
  // relaxed load and a branch — this is the overhead every traced region
  // (query execute/lookup/refine, index probe) carries in production.
  FIX_CHECK(!Trace::enabled());
  for (auto _ : state) {
    TraceSpan span("bench.disabled");
    span.AddAttr("n", uint64_t{1});
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_IndexedQueryHotPath(benchmark::State& state) {
  // End-to-end Algorithm 2 with tracing disabled: the denominator for the
  // "instrumentation adds <= 2% to the query hot path" acceptance check.
  // Compare against BM_TraceSpanDisabled and BM_MetricsCounterIncrement —
  // a query executes ~4 spans and one RecordExecStats (a dozen relaxed
  // RMWs), nanoseconds against the microseconds measured here.
  std::string dir = "/tmp/fix_bench_micro_query";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Corpus corpus;
  XMarkOptions o;
  o.num_items = 60;
  o.num_people = 60;
  o.num_open_auctions = 60;
  o.num_closed_auctions = 60;
  o.num_categories = 30;
  GenerateXMark(&corpus, o);
  IndexOptions options;
  options.depth_limit = 6;
  options.path = dir + "/index.fix";
  auto index = FixIndex::Build(&corpus, options, nullptr);
  FIX_CHECK(index.ok());
  auto parsed = ParseXPath("//item[name]/mailbox/mail[to]/text");
  TwigQuery q = std::move(parsed).value();
  q.ResolveLabels(corpus.labels());
  FixQueryProcessor processor(&corpus, &*index);
  FIX_CHECK(!Trace::enabled());
  for (auto _ : state) {
    auto stats = processor.Execute(q);
    FIX_CHECK(stats.ok());
    benchmark::DoNotOptimize(stats->result_count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedQueryHotPath)->Unit(benchmark::kMicrosecond);

void BM_QueryFeatureExtraction(benchmark::State& state) {
  // Full Algorithm 2 front end: parse -> pattern -> matrix -> eigenvalues.
  LabelTable labels;
  EdgeEncoder encoder;
  auto parsed =
      ParseXPath("//item[name][payment]/mailbox/mail[to][from]/text[bold]");
  TwigQuery q = std::move(parsed).value();
  q.ResolveLabels(&labels);
  for (auto _ : state) {
    auto graph = QueryToBisimGraph(q);
    FIX_CHECK(graph.ok());
    DenseMatrix m = BuildSkewMatrix(*graph, &encoder);
    auto pair = SkewEigPair(m);
    benchmark::DoNotOptimize(pair);
  }
}
BENCHMARK(BM_QueryFeatureExtraction);

}  // namespace
}  // namespace fix

BENCHMARK_MAIN();
