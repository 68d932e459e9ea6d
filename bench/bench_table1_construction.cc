// Reproduces Table 1: data-set characteristics, index construction time
// (ICT), and the sizes of the unclustered (UIdx) and clustered (CIdx) FIX
// indexes, for all four data sets.
//
// Our generators run at laptop scale (the paper used full-size corpora on
// 2006 hardware); absolute numbers differ by the scale factor, but the
// relationships Table 1 demonstrates must hold:
//   * CIdx >> UIdx (clustered copies dominate),
//   * Treebank has by far the costliest construction and largest UIdx
//     relative to its data size (structure-rich ⇒ many distinct patterns),
//   * DBLP/TCMD build fast (few distinct patterns).

#include <string>

#include "common/timer.h"
#include "harness.h"
#include "xml/doc_stats.h"

namespace fix::bench {
namespace {

struct PaperRow {
  DataSet data;
  const char* size;
  const char* elements;
  const char* ict;
  const char* uidx;
  const char* cidx;
};

constexpr PaperRow kPaper[] = {
    {DataSet::kTcmd, "27.9 MB", "115306", "17.8 s", "0.2 MB", "6.1 MB"},
    {DataSet::kDblp, "169 MB", "4022548", "32.5 s", "2 MB", "77.9 MB"},
    {DataSet::kXMark, "116 MB", "1666315", "86 s", "5.6 MB", "143.3 MB"},
    {DataSet::kTreebank, "86 MB", "2437666", "375 s", "37.3 MB",
     "310.6 MB"},
};

void Run() {
  Report report("bench_table1_construction");
  report.Note("Table 1: data sets, construction time, index sizes.");
  report.Note("Generators are scaled down; compare ratios, not absolutes.");
  report.Header({"dataset", "docs", "elements", "depth", "xml_size", "ICT",
                 "UIdx", "CIdx", "bisim_vertices", "oversized",
                 "cache_hit_rate"});

  for (const PaperRow& paper : kPaper) {
    auto corpus = BuildCorpus(paper.data);
    DocStats agg;
    for (uint32_t d = 0; d < corpus->num_docs(); ++d) {
      agg.Merge(ComputeDocStats(corpus->doc(d), *corpus->labels()));
    }

    BuildStats ustats;
    auto uidx = BuildFix(corpus.get(), paper.data, /*clustered=*/false, 0,
                         &ustats, std::string("t1u_") + DataSetName(paper.data));
    FIX_CHECK(uidx.ok());
    BuildStats cstats;
    auto cidx = BuildFix(corpus.get(), paper.data, /*clustered=*/true, 0,
                         &cstats, std::string("t1c_") + DataSetName(paper.data));
    FIX_CHECK(cidx.ok());

    char ict[32];
    std::snprintf(ict, sizeof(ict), "%.3f s", ustats.construction_seconds);
    const uint64_t lookups =
        ustats.feature_cache_hits + ustats.feature_cache_misses;
    report.Row({DataSetName(paper.data), Num(corpus->num_docs()),
                Num(agg.elements), Num(agg.max_depth),
                Mb(agg.serialized_bytes), ict, Mb(ustats.btree_bytes),
                Mb(cstats.btree_bytes + cstats.clustered_bytes),
                Num(ustats.bisim_vertices), Num(ustats.oversized_patterns),
                Pct(lookups ? double(ustats.feature_cache_hits) / lookups
                            : 0.0)});
  }

  report.Section("paper values (full-scale data, Pentium 4, Berkeley DB)");
  report.Header({"dataset", "size", "elements", "ICT", "UIdx", "CIdx"});
  for (const PaperRow& paper : kPaper) {
    report.Row({DataSetName(paper.data), paper.size, paper.elements,
                paper.ict, paper.uidx, paper.cidx});
  }
}

}  // namespace
}  // namespace fix::bench

int main() {
  fix::bench::Run();
  return 0;
}
