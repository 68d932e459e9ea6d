// Shared support for the table/figure benchmark harnesses: data-set
// construction at benchmark scale, the paper's query workloads, metric
// execution, and paper-vs-measured report printing (stdout + CSV).

#ifndef FIX_BENCH_HARNESS_H_
#define FIX_BENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/metrics.h"
#include "query/twig_query.h"

namespace fix::bench {

enum class DataSet { kTcmd, kDblp, kXMark, kTreebank };

const char* DataSetName(DataSet data);

/// Builds a data set at benchmark scale (deterministic). Returns the corpus
/// and logs generation stats.
std::unique_ptr<Corpus> BuildCorpus(DataSet data);

/// The paper's depth limit for each data set (Section 6.1: 0 for the TCMD
/// collection, 6 elsewhere).
int PaperDepthLimit(DataSet data);

/// Builds a FIX index over `corpus` in a temp work dir, with the
/// IndexOptions defaults for every knob not named here.
[[nodiscard]] Result<FixIndex> BuildFix(Corpus* corpus, DataSet data, bool clustered,
                          uint32_t value_beta, BuildStats* stats,
                          const std::string& tag, bool use_lambda2 = false,
                          int depth_limit_override = -1,
                          bool sound_probe = false);

/// Parses + resolves an XPath string against the corpus.
TwigQuery Compile(Corpus* corpus, const std::string& xpath);

/// One measured query: executes through the index, computes ground truth,
/// and reports the Section 6.2 metrics plus a false-negative count (a
/// reproduction-quality signal the paper could not measure).
struct QueryMetrics {
  std::string query;
  double sel = 0, pp = 0, fpr = 0;
  uint64_t entries = 0, candidates = 0, producing = 0, results = 0;
  uint64_t false_negatives = 0;  ///< ground-truth producers lost by pruning
  double lookup_ms = 0, refine_ms = 0;
};

QueryMetrics MeasureQuery(Corpus* corpus, FixIndex* index,
                          const TwigQuery& query, const std::string& label);

/// Fixed-width report writer that tees rows into a CSV file next to the
/// binary (path: <name>.csv).
class Report {
 public:
  explicit Report(const std::string& name);
  ~Report();

  /// Prints a section banner.
  void Section(const std::string& title);

  /// Sets the column headers (also written to the CSV).
  void Header(const std::vector<std::string>& columns);

  /// Adds one row.
  void Row(const std::vector<std::string>& cells);

  /// Free-form note printed to stdout and echoed as a CSV comment.
  void Note(const std::string& text);

 private:
  std::string csv_path_;
  std::string csv_;
  std::vector<size_t> widths_;
};

/// Formatting helpers.
std::string Pct(double fraction);          // "97.48%"
std::string Ms(double ms);                 // "12.34"
std::string Num(uint64_t v);               // "123456"
std::string Mb(uint64_t bytes);            // "5.6 MB"

/// A scratch directory for index files; recreated per call.
std::string WorkDir(const std::string& tag);

}  // namespace fix::bench

#endif  // FIX_BENCH_HARNESS_H_
