// Reproduces Figure 6 (a, b, c): query runtime on XMark, Treebank, and
// DBLP for the {hi, lo} x {simple path, branching path} query grid, under
// four engines:
//   NoK            — navigational full scan, no index (baseline);
//   FIX uncl.      — unclustered FIX pruning + NoK refinement;
//   F&B            — the covering-index baseline;
//   FIX clustered  — clustered FIX (subtree copies in key order).
//
// Shape expectations from the paper:
//   * XMark/Treebank: FIX-unclustered beats NoK by ~an order of magnitude;
//     FIX-clustered beats F&B.
//   * DBLP: FIX-unclustered still beats NoK, but F&B beats FIX-clustered
//     (tiny, regular F&B graph that fits in memory).

#include <algorithm>
#include <string>

#include "baseline/fb_index.h"
#include "baseline/full_scan.h"
#include "common/timer.h"
#include "harness.h"

namespace fix::bench {
namespace {

struct RuntimeQuery {
  DataSet data;
  const char* name;
  const char* xpath;
};

constexpr RuntimeQuery kQueries[] = {
    {DataSet::kXMark, "XMark_hi_sp", "//item/mailbox/mail/text/emph/keyword"},
    {DataSet::kXMark, "XMark_lo_sp", "//description/parlist/listitem"},
    {DataSet::kXMark, "XMark_hi_bp",
     "//item[name]/mailbox/mail[to]/text[bold]/emph/bold"},
    {DataSet::kXMark, "XMark_lo_bp",
     "//item[payment][quantity][shipping][mailbox/mail/text]"
     "/description/parlist"},
    {DataSet::kTreebank, "Trbnk_hi_sp", "//EMPTY/S/NP/NP/PP"},
    {DataSet::kTreebank, "Trbnk_lo_sp", "//EMPTY/S/VP"},
    {DataSet::kTreebank, "Trbnk_hi_bp", "//EMPTY/S/NP[PP]/NP"},
    {DataSet::kTreebank, "Trbnk_lo_bp", "//EMPTY/S[VP]/NP"},
    {DataSet::kDblp, "DBLP_hi_sp", "//inproceedings/title/i"},
    {DataSet::kDblp, "DBLP_lo_sp", "//dblp/inproceedings/author"},
    {DataSet::kDblp, "DBLP_hi_bp", "//inproceedings[url]/title[sub][i]"},
    {DataSet::kDblp, "DBLP_lo_bp", "//article[number]/author"},
};

/// Medians over repetitions keep the numbers stable on a shared machine.
template <typename F>
double MedianMs(F&& body, int reps = 5) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    body();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void Run() {
  Report report("bench_fig6_runtime");
  report.Note("Figure 6: runtime (ms, median of 5) per engine, plus the "
              "implementation-independent matcher work (nodes touched).");
  report.Note("The paper's testbed was disk-resident; in-memory wall-clock "
              "compresses the I/O-driven gaps, so the work ratio is the "
              "faithful signal of FIX's pruning benefit (Section 6.2).");
  report.Header({"query", "NoK_ms", "FIXuncl_ms", "FB_ms", "FIXclus_ms",
                 "NoK_nodes", "FIX_nodes", "work_ratio", "results"});

  DataSet current = DataSet::kTcmd;  // sentinel != first query's set
  std::unique_ptr<Corpus> corpus;
  Result<FixIndex> uidx = Status::Internal("unbuilt");
  Result<FixIndex> cidx = Status::Internal("unbuilt");
  Result<FbIndex> fb = Status::Internal("unbuilt");

  for (const RuntimeQuery& rq : kQueries) {
    if (corpus == nullptr || rq.data != current) {
      current = rq.data;
      corpus = BuildCorpus(current);
      FIX_CHECK(
          corpus->WritePrimaryStorage(WorkDir(std::string("f6p_") +
                                              DataSetName(current)) +
                                      "/primary.dat")
              .ok());
      uidx = BuildFix(corpus.get(), current, /*clustered=*/false, 0, nullptr,
                      std::string("f6u_") + DataSetName(current));
      cidx = BuildFix(corpus.get(), current, /*clustered=*/true, 0, nullptr,
                      std::string("f6c_") + DataSetName(current));
      fb = FbIndex::Build(corpus.get(), nullptr);
      FIX_CHECK(uidx.ok());
      FIX_CHECK(cidx.ok());
      FIX_CHECK(fb.ok());
    }
    TwigQuery q = Compile(corpus.get(), rq.xpath);

    uint64_t results = 0;
    uint64_t nok_nodes = 0;
    double nok_ms = MedianMs([&] {
      ScanStats s = FullScan(*corpus, q);
      results = s.result_count;
      nok_nodes = s.nodes_visited;
    });
    FixQueryProcessor uproc(corpus.get(), &*uidx);
    uint64_t fix_nodes = 0;
    double fixu_ms = MedianMs([&] {
      auto s = uproc.Execute(q);
      FIX_CHECK(s.ok());
      fix_nodes = s->nodes_visited;
    });
    double fb_ms = MedianMs([&] { FIX_CHECK(fb->Execute(q).ok()); });
    FixQueryProcessor cproc(corpus.get(), &*cidx);
    double fixc_ms = MedianMs([&] { FIX_CHECK(cproc.Execute(q).ok()); });

    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  fix_nodes > 0 ? double(nok_nodes) / fix_nodes : 0.0);
    report.Row({std::string(rq.name) + "  " + rq.xpath, Ms(nok_ms),
                Ms(fixu_ms), Ms(fb_ms), Ms(fixc_ms), Num(nok_nodes),
                Num(fix_nodes), ratio, Num(results)});
  }
}

}  // namespace
}  // namespace fix::bench

int main() {
  fix::bench::Run();
  return 0;
}
