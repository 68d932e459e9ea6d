// Reproduces Figure 5: average selectivity, pruning power, and
// false-positive ratio over 1000 random twig queries per data set.
//
// Shape expectations from the paper:
//   * XMark / Treebank: avg pp tracks avg sel closely (structure-rich);
//   * TCMD: a large gap between sel and pp (~32% in the paper) — similar
//     documents cannot be told apart structurally;
//   * DBLP: a moderate gap (~14% in the paper).
//
// A second table reports the B+-tree probe cost over the same query
// stream: per-probe latency distribution (p50/p95/p99 in microseconds) and
// total index work (B+-tree entries scanned).

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "datagen/query_gen.h"
#include "query/compile.h"
#include "harness.h"

namespace fix::bench {
namespace {

struct PaperAvg {
  DataSet data;
  const char* paper_sel;
  const char* paper_pp;
  const char* paper_fpr;
};

// Approximate bar heights read off Figure 5.
constexpr PaperAvg kPaper[] = {
    {DataSet::kTcmd, "~0.62", "~0.30", "~0.47"},
    {DataSet::kDblp, "~0.84", "~0.70", "~0.42"},
    {DataSet::kXMark, "~0.98", "~0.96", "~0.40"},
    {DataSet::kTreebank, "~0.99", "~0.95", "~0.66"},
};

// Nearest-rank percentile over an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct ProbeRow {
  std::string dataset;
  uint64_t probes = 0;
  uint64_t work = 0;  // B+-tree entries scanned
  double p50 = 0, p95 = 0, p99 = 0;
};

void Run() {
  Report report("bench_fig5_random_queries");
  report.Note("Figure 5: averages over 1000 random twig queries per set.");
  report.Header({"dataset", "queries", "avg_sel", "avg_pp", "avg_fpr",
                 "queries_with_false_neg", "paper_sel", "paper_pp",
                 "paper_fpr"});

  std::vector<ProbeRow> probe_rows;
  for (const PaperAvg& paper : kPaper) {
    auto corpus = BuildCorpus(paper.data);
    auto index = BuildFix(corpus.get(), paper.data, /*clustered=*/false, 0,
                          nullptr,
                          std::string("f5_") + DataSetName(paper.data));
    FIX_CHECK(index.ok());

    QueryGenOptions qopts;
    qopts.seed = 20060301;  // the TR's publication date
    qopts.max_depth = PaperDepthLimit(paper.data) > 0
                          ? PaperDepthLimit(paper.data)
                          : 5;
    qopts.rooted = paper.data == DataSet::kTcmd;  // TCMD queries are rooted
    auto queries = GenerateRandomQueries(*corpus, 1000, qopts);

    double sel = 0, pp = 0, fpr = 0;
    uint64_t with_fn = 0;
    for (const auto& q : queries) {
      QueryMetrics m = MeasureQuery(corpus.get(), &*index, q, q.ToString());
      sel += m.sel;
      pp += m.pp;
      fpr += m.fpr;
      with_fn += m.false_negatives > 0 ? 1 : 0;
    }
    double n = static_cast<double>(queries.size());
    char avg_sel[16], avg_pp[16], avg_fpr[16];
    std::snprintf(avg_sel, sizeof(avg_sel), "%.3f", sel / n);
    std::snprintf(avg_pp, sizeof(avg_pp), "%.3f", pp / n);
    std::snprintf(avg_fpr, sizeof(avg_fpr), "%.3f", fpr / n);
    report.Row({DataSetName(paper.data), Num(queries.size()), avg_sel,
                avg_pp, avg_fpr, Num(with_fn), paper.paper_sel,
                paper.paper_pp, paper.paper_fpr});

    // Probe cost over the same stream: probe the first pure subtwig of
    // each query (the production path the query processor takes before
    // refinement).
    ProbeRow row;
    row.dataset = DataSetName(paper.data);
    std::vector<double> probe_us;
    probe_us.reserve(queries.size());
    for (const auto& q : queries) {
      auto parts = DecomposeAtDescendantEdges(q);
      auto start = std::chrono::steady_clock::now();
      auto lookup = index->Probe(parts[0], /*use_root_label=*/true);
      auto stop = std::chrono::steady_clock::now();
      FIX_CHECK(lookup.ok());
      probe_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
      row.work += lookup->entries_scanned;
      ++row.probes;
    }
    std::sort(probe_us.begin(), probe_us.end());
    row.p50 = Percentile(probe_us, 0.50);
    row.p95 = Percentile(probe_us, 0.95);
    row.p99 = Percentile(probe_us, 0.99);
    probe_rows.push_back(std::move(row));
  }

  report.Section("B+-tree probe cost (same 1000 queries; work = entries "
                 "scanned)");
  report.Header({"dataset", "probes", "probe_work", "probe_p50_us",
                 "probe_p95_us", "probe_p99_us"});
  for (const ProbeRow& row : probe_rows) {
    char p50[16], p95[16], p99[16];
    std::snprintf(p50, sizeof(p50), "%.1f", row.p50);
    std::snprintf(p95, sizeof(p95), "%.1f", row.p95);
    std::snprintf(p99, sizeof(p99), "%.1f", row.p99);
    report.Row({row.dataset, Num(row.probes), Num(row.work), p50, p95,
                p99});
  }
  report.Note(
      "queries_with_false_neg counts random queries where paper-mode "
      "pruning lost producers (see DESIGN.md finding F1; expected nonzero "
      "on recursive data, 0 under IndexOptions::sound_probe).");
}

}  // namespace
}  // namespace fix::bench

int main() {
  fix::bench::Run();
  return 0;
}
