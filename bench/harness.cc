#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/timer.h"
#include "datagen/datasets.h"
#include "query/xpath_parser.h"

namespace fix::bench {

const char* DataSetName(DataSet data) {
  switch (data) {
    case DataSet::kTcmd:
      return "XBench-TCMD";
    case DataSet::kDblp:
      return "DBLP";
    case DataSet::kXMark:
      return "XMark";
    case DataSet::kTreebank:
      return "Treebank";
  }
  return "?";
}

std::unique_ptr<Corpus> BuildCorpus(DataSet data) {
  auto corpus = std::make_unique<Corpus>();
  switch (data) {
    case DataSet::kTcmd: {
      TcmdOptions o;  // defaults: 800 documents
      GenerateTcmd(corpus.get(), o);
      break;
    }
    case DataSet::kDblp: {
      DblpOptions o;  // defaults: 9000 publications
      GenerateDblp(corpus.get(), o);
      break;
    }
    case DataSet::kXMark: {
      XMarkOptions o;  // defaults
      GenerateXMark(corpus.get(), o);
      break;
    }
    case DataSet::kTreebank: {
      TreebankOptions o;  // defaults: 1400 sentences
      GenerateTreebank(corpus.get(), o);
      break;
    }
  }
  return corpus;
}

int PaperDepthLimit(DataSet data) {
  return data == DataSet::kTcmd ? 0 : 6;
}

std::string WorkDir(const std::string& tag) {
  std::string dir = "/tmp/fix_bench/" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Result<FixIndex> BuildFix(Corpus* corpus, DataSet data, bool clustered,
                          uint32_t value_beta, BuildStats* stats,
                          const std::string& tag, bool use_lambda2,
                          int depth_limit_override, bool sound_probe) {
  IndexOptions options;
  options.depth_limit = depth_limit_override >= 0 ? depth_limit_override
                                                  : PaperDepthLimit(data);
  options.clustered = clustered;
  options.value_beta = value_beta;
  options.use_lambda2 = use_lambda2;
  options.sound_probe = sound_probe;
  options.path = WorkDir(tag) + "/index.fix";
  return FixIndex::Build(corpus, options, stats);
}

TwigQuery Compile(Corpus* corpus, const std::string& xpath) {
  auto parsed = ParseXPath(xpath);
  FIX_CHECK(parsed.ok());
  TwigQuery q = std::move(parsed).value();
  q.ResolveLabels(corpus->labels());
  return q;
}

QueryMetrics MeasureQuery(Corpus* corpus, FixIndex* index,
                          const TwigQuery& query, const std::string& label) {
  QueryMetrics out;
  out.query = label;
  FixQueryProcessor processor(corpus, index);
  auto stats = processor.Execute(query);
  FIX_CHECK(stats.ok());
  GroundTruth gt =
      ComputeGroundTruth(*corpus, query, index->options().depth_limit);
  out.entries = gt.entries;
  out.candidates = stats->candidates;
  out.producing = gt.producers;  // exact, index-independent
  out.results = gt.results;
  out.false_negatives =
      gt.producers > stats->producing ? gt.producers - stats->producing : 0;
  out.sel = gt.entries ? 1.0 - double(gt.producers) / gt.entries : 0;
  out.pp = gt.entries ? 1.0 - double(stats->candidates) / gt.entries : 0;
  out.fpr = stats->candidates
                ? 1.0 - double(stats->producing) / stats->candidates
                : 0;
  out.lookup_ms = stats->lookup_ms;
  out.refine_ms = stats->refine_ms;
  return out;
}

// --- Report ------------------------------------------------------------

Report::Report(const std::string& name) {
  csv_path_ = name + ".csv";
  std::printf("==================================================================="
              "=============\n");
  std::printf("%s\n", name.c_str());
  std::printf("==================================================================="
              "=============\n");
}

Report::~Report() {
  FILE* f = std::fopen(csv_path_.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(csv_.data(), 1, csv_.size(), f);
    std::fclose(f);
    std::printf("[csv written to %s]\n\n", csv_path_.c_str());
  }
  // The same registry snapshot fixctl stats --format=prom serves: the
  // run's candidate-selection vs refinement split, I/O counts, and
  // eigensolve costs come from the instrumented path, not bespoke
  // stopwatches.
  const std::string prom_path = csv_path_ + ".metrics.prom";
  FILE* pf = std::fopen(prom_path.c_str(), "w");
  if (pf != nullptr) {
    const std::string text = MetricsRegistry::Instance().PrometheusText();
    std::fwrite(text.data(), 1, text.size(), pf);
    std::fclose(pf);
    std::printf("[metrics snapshot written to %s]\n\n", prom_path.c_str());
  }
}

void Report::Section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
  csv_ += "# " + title + "\n";
}

void Report::Header(const std::vector<std::string>& columns) {
  widths_.clear();
  std::string line;
  for (size_t i = 0; i < columns.size(); ++i) {
    size_t w = std::max<size_t>(columns[i].size() + 2, i == 0 ? 44 : 12);
    widths_.push_back(w);
    std::printf("%-*s", static_cast<int>(w), columns[i].c_str());
    if (i > 0) line += ",";
    line += columns[i];
  }
  std::printf("\n");
  csv_ += line + "\n";
}

void Report::Row(const std::vector<std::string>& cells) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t w = i < widths_.size() ? widths_[i] : 12;
    if (cells[i].size() >= w) {
      // Overlong cell: keep at least two spaces of separation so columns
      // stay readable.
      std::printf("%s  ", cells[i].c_str());
    } else {
      std::printf("%-*s", static_cast<int>(w), cells[i].c_str());
    }
    if (i > 0) line += ",";
    line += cells[i];
  }
  std::printf("\n");
  csv_ += line + "\n";
}

void Report::Note(const std::string& text) {
  std::printf("%s\n", text.c_str());
  csv_ += "# " + text + "\n";
}

std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100);
  return buf;
}

std::string Ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::string Mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1024.0 * 1024.0));
  return buf;
}

}  // namespace fix::bench
