// fixbench: the end-to-end benchmark program. It builds a database from
// generated XML text, runs one closed-loop workload against it through the
// public APIs only (Database, ShardedDatabase, FixIndex, server::Server,
// FixdClient), checks every answer against a full-scan ground truth, and
// prints one JSON line of metrics. perfbench/README.md documents the
// workloads, the metrics and the layer each one belongs to.
//
//   fixbench --prepare --workload W --seed N --seconds S --workdir DIR
//   fixbench --workload xmark_read|dblp_write|tcmd_remote --seed N
//            --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// --prepare generates the inputs and their full-scan truth and writes them
// to files in DIR. The measuring invocation reads them back, so it never
// holds the generators' corpora or the truth databases, and its peak RSS is
// the program's own. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it runs the same work with spans around every public call on
// alternate passes and reports the per-layer metrics instead.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/full_scan.h"
#include "common/metrics_registry.h"
#include "core/database.h"
#include "core/sharded_database.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "server/client.h"
#include "server/fixd_server.h"
#include "xml/serializer.h"

namespace fix::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr char kIndex[] = "idx";
constexpr int kTwigs = 256;
constexpr int kDblpReadsPerWrite = 4;
constexpr int kDblpWindowCycles = 16;
constexpr int kTcmdClients = 2;
constexpr int kTcmdReadsPerWrite = 9;
constexpr int kXmarkClients = 2;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "fixbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Must(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t a, int64_t b) { return (b - a) / 1e6; }

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Spans. Each client thread owns a SpanBuffer, so recording takes no lock;
// the buffers are merged and written out when the run ends.

struct Span {
  const char* name;
  const char* layer;  ///< the module the call belongs to ("op" for a root)
  uint64_t request_id;
  int32_t parent;  ///< index in the same buffer; -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

class SpanBuffer {
 public:
  int32_t Open(const char* name, const char* layer, uint64_t rid,
               int32_t parent) {
    spans_.push_back(Span{name, layer, rid, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[id].end_ns = NowNs(); }
  double DurationMs(int32_t id) const {
    return MsBetween(spans_[id].start_ns, spans_[id].end_ns);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span when `buf` is set; a no-op wrapper otherwise.
template <typename Fn>
auto InSpan(SpanBuffer* buf, const char* name, const char* layer,
            uint64_t rid, int32_t parent, Fn&& fn) {
  if (buf == nullptr) return fn();
  const int32_t id = buf->Open(name, layer, rid, parent);
  auto out = fn();
  buf->Close(id);
  return out;
}

// ---------------------------------------------------------------------------
// Registry deltas over the measured phase.

struct Counters {
  std::map<std::string, double> v;
  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
};

Counters SnapshotRegistry() {
  Counters c;
  for (const MetricSnapshot& m : MetricsRegistry::Instance().Snapshot()) {
    switch (m.type) {
      case MetricType::kCounter:
        c.v[m.name] = static_cast<double>(m.counter);
        break;
      default:
        break;
    }
  }
  return c;
}

void AddDelta(const Counters& before, const Counters& after, Counters* acc) {
  for (const auto& [k, val] : after.v) acc->v[k] += val - before[k];
}

// ---------------------------------------------------------------------------
// Inputs, all derived from --seed before anything is timed.

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 31)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 29);
}

struct Inputs {
  std::vector<std::string> insert_xml;  ///< inserted during the run
  std::vector<std::string> xpaths;      ///< kTwigs random twigs
};

std::vector<std::string> Twigs(const Corpus& corpus, uint64_t seed) {
  QueryGenOptions qo;
  qo.seed = SubSeed(seed, 2);
  std::vector<std::string> out;
  for (const TwigQuery& q : GenerateRandomQueries(corpus, kTwigs, qo)) {
    out.push_back(q.ToString());
  }
  if (out.size() != static_cast<size_t>(kTwigs)) {
    Die("query generator returned " + std::to_string(out.size()) + " twigs");
  }
  return out;
}

std::vector<std::string> SerializeAll(const Corpus& corpus) {
  std::vector<std::string> out;
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    out.push_back(SerializeXml(corpus.doc(d), corpus.labels()));
  }
  return out;
}

/// One `<dblp>` document per publication of a generated DBLP corpus: the
/// shape fixd receives when a client inserts one record.
std::vector<std::string> DblpRecords(uint64_t seed, int count) {
  Corpus c;
  DblpOptions o;
  o.seed = seed;
  o.num_publications = count;
  GenerateDblp(&c, o);
  const Document& doc = c.doc(0);
  std::vector<std::string> out;
  for (NodeId n = doc.first_child(doc.root_element()); n != kInvalidNode;
       n = doc.next_sibling(n)) {
    if (!doc.IsElement(n)) continue;
    out.push_back("<dblp>" + SerializeXml(doc, *c.labels(), {}, n) +
                  "</dblp>");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ground truth: full scans over the same XML text, compiled through the
// public Database::Compile so truth and answer use one parse.

using Answer = std::vector<NodeRef>;

void Normalize(Answer* a) {
  auto less = [](const NodeRef& x, const NodeRef& y) {
    return x.doc_id != y.doc_id ? x.doc_id < y.doc_id : x.node_id < y.node_id;
  };
  std::sort(a->begin(), a->end(), less);
  a->erase(std::unique(a->begin(), a->end()), a->end());
}

bool IsSubset(const Answer& sub, const Answer& super) {
  size_t j = 0;
  for (const NodeRef& r : sub) {
    while (j < super.size() && (super[j].doc_id < r.doc_id ||
                                (super[j].doc_id == r.doc_id &&
                                 super[j].node_id < r.node_id))) {
      ++j;
    }
    if (j == super.size() || !(super[j] == r)) return false;
  }
  return true;
}

struct Truth {
  std::vector<Answer> base;       ///< [query] over the base documents
  std::vector<double> scan_ms;    ///< [query] full-scan time
  /// [query][insert] node ids matched inside planned insert document i.
  std::vector<std::vector<std::vector<NodeId>>> inserted;
};

/// Full scans of every twig over a scratch database holding `xmls`; calls
/// `take(query, normalized answer, scan ms)`.
template <typename Fn>
void ScanAll(const std::vector<std::string>& xmls,
             const std::vector<std::string>& xpaths, const std::string& dir,
             Fn&& take) {
  Database scratch(dir);
  for (const std::string& x : xmls) Must(scratch.AddXml(x), "truth ingest");
  for (size_t qi = 0; qi < xpaths.size(); ++qi) {
    TwigQuery q = Must(scratch.Compile(xpaths[qi]), "compile for truth");
    Answer a;
    ScanStats s = FullScan(*scratch.corpus(), q, &a);
    Normalize(&a);
    take(qi, std::move(a), s.eval_ms);
  }
}

Truth ComputeTruth(const std::vector<std::string>& base_xml,
                   const std::vector<std::string>& insert_xml,
                   const std::vector<std::string>& xpaths,
                   const std::string& dir) {
  Truth t;
  ScanAll(base_xml, xpaths, dir + "/base", [&](size_t, Answer a, double ms) {
    t.base.push_back(std::move(a));
    t.scan_ms.push_back(ms);
  });
  t.inserted.assign(xpaths.size(),
                    std::vector<std::vector<NodeId>>(insert_xml.size()));
  ScanAll(insert_xml, xpaths, dir + "/inserts",
          [&](size_t qi, Answer a, double) {
            for (const NodeRef& r : a) {
              t.inserted[qi][r.doc_id].push_back(r.node_id);
            }
          });
  return t;
}

// ---------------------------------------------------------------------------
// The files --prepare hands to the measuring invocation on the same
// machine: 64-bit words in its byte order, and length-prefixed strings.

class Writer {
 public:
  explicit Writer(const std::string& path) : out_(path, std::ios::binary) {
    if (!out_) Die("cannot write " + path);
  }
  void U64(uint64_t v) { out_.write(reinterpret_cast<const char*>(&v), 8); }
  void F64(double v) { out_.write(reinterpret_cast<const char*>(&v), 8); }
  void Str(const std::string& v) {
    U64(v.size());
    out_.write(v.data(), static_cast<std::streamsize>(v.size()));
  }
  void Close() {
    out_.close();
    if (!out_) Die("write failed");
  }

 private:
  std::ofstream out_;
};

class Reader {
 public:
  explicit Reader(const std::string& path) : in_(path, std::ios::binary) {
    if (!in_) Die("cannot read " + path + " (run --prepare first)");
  }
  uint64_t U64() {
    uint64_t v = 0;
    Read(reinterpret_cast<char*>(&v), 8);
    return v;
  }
  double F64() {
    double v = 0;
    Read(reinterpret_cast<char*>(&v), 8);
    return v;
  }
  std::string Str() {
    std::string v(U64(), '\0');
    Read(v.data(), v.size());
    return v;
  }

 private:
  void Read(char* p, size_t n) {
    in_.read(p, static_cast<std::streamsize>(n));
    if (!in_) Die("truncated input file");
  }
  std::ifstream in_;
};

void WriteStrings(const std::string& path, const std::vector<std::string>& v) {
  Writer w(path);
  w.U64(v.size());
  for (const std::string& s : v) w.Str(s);
  w.Close();
}

std::vector<std::string> ReadStrings(const std::string& path) {
  Reader r(path);
  std::vector<std::string> v(r.U64());
  for (std::string& s : v) s = r.Str();
  return v;
}

void WriteTruth(const std::string& path, const Truth& t) {
  Writer w(path);
  w.U64(t.base.size());
  for (size_t q = 0; q < t.base.size(); ++q) {
    w.F64(t.scan_ms[q]);
    w.U64(t.base[q].size());
    for (const NodeRef& r : t.base[q]) {
      w.U64(static_cast<uint64_t>(r.doc_id) << 32 | r.node_id);
    }
    w.U64(t.inserted[q].size());
    for (const std::vector<NodeId>& nodes : t.inserted[q]) {
      w.U64(nodes.size());
      for (NodeId n : nodes) w.U64(n);
    }
  }
  w.Close();
}

Truth ReadTruth(const std::string& path) {
  Reader r(path);
  Truth t;
  const uint64_t queries = r.U64();
  t.base.resize(queries);
  t.inserted.resize(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    t.scan_ms.push_back(r.F64());
    t.base[q].resize(r.U64());
    for (NodeRef& x : t.base[q]) {
      const uint64_t v = r.U64();
      x = {static_cast<uint32_t>(v >> 32), static_cast<NodeId>(v)};
    }
    t.inserted[q].resize(r.U64());
    for (std::vector<NodeId>& nodes : t.inserted[q]) {
      nodes.resize(r.U64());
      for (NodeId& n : nodes) n = static_cast<NodeId>(r.U64());
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Per-op records and the correctness verdicts.

/// kFalseNegative is a base-document answer that is a strict subset of its
/// truth: the signature of finding F1 of the paper's probe on recursive
/// data. It fails the op but leaves the run correct. Any other mismatch,
/// including a missing result in an inserted document, is kWrong.
enum class Verdict { kOk, kFalseNegative, kWrong, kError };

struct ReadRecord {
  uint32_t query = 0;
  uint32_t window = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  double ms = 0;
  bool traced = false;
  bool error = false;
  bool degraded = false;  ///< answered by the full-scan fallback
  Verdict base = Verdict::kOk;
  Answer inserted;  ///< results inside documents inserted during the run
  ExecStats stats;  ///< in-process reads only
  bool has_stats = false;
};

struct WriteRecord {
  uint32_t window = 0;
  uint32_t planned = 0;  ///< index into Inputs::insert_xml
  uint32_t doc_id = 0;
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
  double ms = 0;
  bool error = false;
};

Verdict Worse(Verdict a, Verdict b) {
  return static_cast<int>(a) > static_cast<int>(b) ? a : b;
}

/// Splits `all` at the first inserted document and checks the base part
/// against the truth: equal, a strict subset (F1), or wrong.
ReadRecord Judge(Answer all, uint32_t base_docs, const Answer& truth) {
  Normalize(&all);
  ReadRecord r;
  auto split = std::find_if(all.begin(), all.end(), [&](const NodeRef& x) {
    return x.doc_id >= base_docs;
  });
  r.inserted.assign(split, all.end());
  all.erase(split, all.end());
  r.base = all == truth             ? Verdict::kOk
           : IsSubset(all, truth) ? Verdict::kFalseNegative
                                  : Verdict::kWrong;
  return r;
}

/// Truth inside the documents of every acknowledged insert.
Answer InsertedTruth(const Truth& t, uint32_t q,
                     const std::vector<WriteRecord>& writes) {
  Answer a;
  for (const WriteRecord& w : writes) {
    if (w.error) continue;
    for (NodeId n : t.inserted[q][w.planned]) a.push_back({w.doc_id, n});
  }
  Normalize(&a);
  return a;
}

/// Checks the inserted-document part of a read taken while writes ran: a
/// document may answer only if its insert was sent before the read
/// completed, it must answer in full, and every document acknowledged
/// before the read was sent must answer. Anything else is kWrong.
Verdict JudgeInserted(const ReadRecord& r, const Truth& t,
                      const std::map<uint32_t, const WriteRecord*>& by_doc) {
  std::map<uint32_t, std::vector<NodeId>> got;
  for (const NodeRef& x : r.inserted) got[x.doc_id].push_back(x.node_id);
  for (const auto& [doc, nodes] : got) {
    auto it = by_doc.find(doc);
    if (it == by_doc.end() || it->second->send_ns > r.done_ns ||
        nodes != t.inserted[r.query][it->second->planned]) {
      return Verdict::kWrong;
    }
  }
  for (const auto& [doc, w] : by_doc) {
    if (w->ack_ns < r.send_ns && !t.inserted[r.query][w->planned].empty() &&
        got.count(doc) == 0) {
      return Verdict::kWrong;
    }
  }
  return Verdict::kOk;
}

// ---------------------------------------------------------------------------
// Workload plumbing shared by all three workloads.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  bool prepare = false;
};

struct Run {
  Options opt;
  Inputs in;
  Truth truth;
  uint32_t base_docs = 0;
  uint64_t base_xml_bytes = 0;
  int passes = 0;
  std::vector<double> setup_s, build_s, ingest_ms;
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  /// Wall time of each window: a fixed slice of the work (a pass, or 16
  /// DBLP cycles). The bounded metrics are medians over windows, so a burst
  /// of host contention shorter than half the run does not move them.
  std::vector<double> window_s;
  double measured_s = 0;
  /// ru_maxrss at the end of the measured phase, before the verification
  /// passes and the reopen.
  uint64_t peak_rss_kib = 0;
  Counters counts;              ///< registry deltas over untraced passes
  uint64_t counted_reads = 0, counted_writes = 0;
  uint64_t counted_xml_bytes = 0;
  std::vector<SpanBuffer> span_buffers;
  std::vector<double> shard_query_ms, server_overhead_ms;
  double request_us_p50 = 0;
  double reopen_s = 0;
  uint64_t index_bytes = 0;
  uint64_t lost_writes = 0;
  bool reopen_degraded = false;  ///< an index was quarantined on reopen
  /// Quiescent answers: wrong or failed, base-document F1 subsets, and
  /// answered by the full-scan fallback.
  uint64_t quiescent_wrong = 0, quiescent_fn = 0, quiescent_degraded = 0;
  std::string db_dir;
};

uint64_t PeakRssKiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

/// Passes per run: the work is fixed for a given --seconds, so two runs
/// with one seed do identical work. `pass_s` is the nominal time of one
/// pass on the 4-vCPU reference machine.
int PassesFor(double seconds, double pass_s, int min_passes) {
  return std::max(min_passes, static_cast<int>(std::lround(seconds / pass_s)));
}

int Passes(const Options& opt) {
  if (opt.workload == "xmark_read") return PassesFor(opt.seconds, 1.3, 4);
  if (opt.workload == "dblp_write") return PassesFor(opt.seconds, 10.5, 2);
  return PassesFor(opt.seconds, 0.7, 2);
}

/// Inserts per tcmd_remote client: one before every kTcmdReadsPerWrite-th
/// read of its half of each pass.
int TcmdWritesPerClient(int passes) {
  const int reads = passes * kTwigs / kTcmdClients;
  return (reads + kTcmdReadsPerWrite - 1) / kTcmdReadsPerWrite;
}

int InsertCount(const Options& opt) {
  const int passes = Passes(opt);
  if (opt.workload == "dblp_write") return passes * kTwigs / kDblpReadsPerWrite;
  if (opt.workload == "tcmd_remote") {
    return TcmdWritesPerClient(passes) * kTcmdClients;
  }
  return 0;
}

std::string InputPath(const Options& opt, const char* name) {
  return opt.workdir + "/inputs/" + name;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
}

uint64_t IndexBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.rfind(std::string(kIndex) + ".fix", 0) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

IndexOptions ProductionOptions(int depth_limit) {
  IndexOptions o;
  o.depth_limit = depth_limit;
  return o;
}

/// Counts registry deltas only over untraced passes, so the side calls of
/// the traced passes never leak into the per-op counts.
struct PassCounter {
  explicit PassCounter(Run* r) : run(r) {}
  Run* run;
  bool active = false;
  Counters before;
  uint64_t reads0 = 0, writes0 = 0;
  void Begin(bool traced) {
    active = !traced;
    if (!active) return;
    before = SnapshotRegistry();
    reads0 = run->reads.size();
    writes0 = run->writes.size();
  }
  void End(uint64_t xml_bytes) {
    if (!active) return;
    AddDelta(before, SnapshotRegistry(), &run->counts);
    run->counted_reads += run->reads.size() - reads0;
    run->counted_writes += run->writes.size() - writes0;
    run->counted_xml_bytes += xml_bytes;
  }
};

/// Traced runs trace the even passes and count on the odd ones, so the
/// counts come from warm passes and never include a traced side call.
bool PassTraced(const Run& run, int pass) {
  return run.opt.trace && pass % 2 == 0;
}

// ---------------------------------------------------------------------------
// --prepare: every input and its truth, derived from --seed.

void Prepare(const Options& opt) {
  const int inserts = InsertCount(opt);
  std::vector<std::string> base_xml, insert_xml, xpaths;
  {
    Corpus src;
    if (opt.workload == "xmark_read") {
      XMarkOptions xo;
      xo.seed = SubSeed(opt.seed, 1);
      xo.num_items *= 3;
      xo.num_people *= 3;
      xo.num_open_auctions *= 3;
      xo.num_closed_auctions *= 3;
      xo.num_categories *= 3;
      GenerateXMark(&src, xo);
    } else if (opt.workload == "dblp_write") {
      DblpOptions dopt;
      dopt.seed = SubSeed(opt.seed, 1);
      GenerateDblp(&src, dopt);
    } else {
      TcmdOptions to;
      to.seed = SubSeed(opt.seed, 1);
      GenerateTcmd(&src, to);
    }
    base_xml = SerializeAll(src);
    xpaths = Twigs(src, opt.seed);
  }
  if (opt.workload == "dblp_write") {
    insert_xml = DblpRecords(SubSeed(opt.seed, 3), inserts);
  } else if (opt.workload == "tcmd_remote") {
    Corpus extra;
    TcmdOptions eo;
    eo.seed = SubSeed(opt.seed, 3);
    eo.num_docs = inserts;
    GenerateTcmd(&extra, eo);
    insert_xml = SerializeAll(extra);
  }
  ResetDir(opt.workdir + "/inputs");
  const Truth truth = ComputeTruth(base_xml, insert_xml, xpaths,
                                   opt.workdir + "/truth");
  std::error_code ec;
  fs::remove_all(opt.workdir + "/truth", ec);
  if (insert_xml.size() != static_cast<size_t>(inserts)) {
    Die("generator gave " + std::to_string(insert_xml.size()) +
        " insert documents, not " + std::to_string(inserts));
  }
  WriteStrings(InputPath(opt, "base.bin"), base_xml);
  WriteStrings(InputPath(opt, "inserts.bin"), insert_xml);
  WriteStrings(InputPath(opt, "twigs.bin"), xpaths);
  WriteTruth(InputPath(opt, "truth.bin"), truth);
}

/// Reads what --prepare wrote, except the base XML, which each set-up
/// reads for itself.
void LoadInputs(Run* run) {
  run->in.insert_xml = ReadStrings(InputPath(run->opt, "inserts.bin"));
  run->in.xpaths = ReadStrings(InputPath(run->opt, "twigs.bin"));
  run->truth = ReadTruth(InputPath(run->opt, "truth.bin"));
  if (run->in.xpaths.size() != static_cast<size_t>(kTwigs) ||
      run->truth.base.size() != run->in.xpaths.size() ||
      run->in.insert_xml.size() != static_cast<size_t>(InsertCount(run->opt))) {
    Die("inputs do not match this workload; run --prepare again");
  }
  run->passes = Passes(run->opt);
}

// ---------------------------------------------------------------------------
// In-process workloads: xmark_read and dblp_write.

/// The base XML text for one set-up. It is read before the set-up clock
/// starts and dropped once ingested, so the measuring process holds it only
/// while the program parses it, as a client would.
std::vector<std::string> LoadBaseXml(Run* run) {
  std::vector<std::string> xml =
      ReadStrings(InputPath(run->opt, "base.bin"));
  run->base_docs = static_cast<uint32_t>(xml.size());
  run->base_xml_bytes = 0;
  for (const std::string& x : xml) run->base_xml_bytes += x.size();
  return xml;
}

/// Returns the memory a torn-down set-up freed to the system, so each
/// set-up starts from the same heap and peak RSS does not ratchet.
void ReleaseHeap() { malloc_trim(0); }

std::unique_ptr<Database> SetupLocal(Run* run, int depth_limit, int reps) {
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < reps; ++rep) {
    db.reset();
    ReleaseHeap();
    ResetDir(run->db_dir);
    std::vector<std::string> xml = LoadBaseXml(run);
    const int64_t t0 = NowNs();
    db = std::make_unique<Database>(run->db_dir);
    for (const std::string& x : xml) {
      const int64_t p0 = NowNs();
      Must(db->AddXml(x), "AddXml");
      run->ingest_ms.push_back(MsBetween(p0, NowNs()));
    }
    std::vector<std::string>().swap(xml);
    Must(db->Finalize(), "Finalize");
    Must(db->Save(), "Save");
    const int64_t b0 = NowNs();
    Must(db->BuildIndex(kIndex, ProductionOptions(depth_limit)), "BuildIndex");
    const int64_t t1 = NowNs();
    run->setup_s.push_back((t1 - t0) / 1e9);
    run->build_s.push_back((t1 - b0) / 1e9);
  }
  return db;
}

/// One in-process read; traced reads split Query into its two public calls.
void LocalRead(Run* run, Database* db, uint32_t q, SpanBuffer* buf,
               uint64_t rid, ReadRecord* out) {
  const std::string& xp = run->in.xpaths[q];
  Answer res;
  Result<ExecStats> st = Status::Internal("unset");
  Result<TwigQuery> twig = Status::Internal("unset");
  const int64_t t0 = NowNs();
  if (buf == nullptr) {
    st = db->Query(kIndex, xp, &res);
  } else {
    const int32_t root = buf->Open("op.read", "op", rid, -1);
    twig = InSpan(buf, "Database::Compile", "query", rid, root,
                  [&] { return db->Compile(xp); });
    if (twig.ok()) {
      st = InSpan(buf, "Database::ExecuteCompiled", "core", rid, root, [&] {
        return db->ExecuteCompiled(kIndex, twig.value(), &res);
      });
    } else {
      st = twig.status();
    }
    buf->Close(root);
  }
  const int64_t t1 = NowNs();
  if (!st.ok()) {
    out->error = true;
  } else {
    *out = Judge(std::move(res), run->base_docs, run->truth.base[q]);
    out->stats = st.value();
    out->has_stats = true;
    out->degraded = st.value().degraded;
  }
  out->query = q;
  out->send_ns = t0;
  out->done_ns = t1;
  out->ms = MsBetween(t0, t1);
  out->traced = buf != nullptr;
  if (buf != nullptr && st.ok()) {
    // Side call, outside the op's latency: the query's spectral features.
    FixIndex* index = db->index(kIndex);
    if (twig.ok() && index != nullptr) {
      InSpan(buf, "FixIndex::QueryFeatures", "spectral", rid, -1,
             [&] { return index->QueryFeatures(twig.value()).ok(); });
    }
  }
}

/// Judges one answer of a quiescent pass: the base part against its truth
/// (where only an F1 subset is tolerated), the inserted part exactly against
/// every acknowledged document. Keeps the answer for the comparison across
/// reopen.
void JudgeQuiescent(Run* run, uint32_t q, bool ok, bool degraded, Answer res,
                    std::vector<Answer>* answers) {
  Normalize(&res);
  if (!ok) {
    ++run->quiescent_wrong;
  } else {
    const ReadRecord r = Judge(res, run->base_docs, run->truth.base[q]);
    if (r.base == Verdict::kFalseNegative) ++run->quiescent_fn;
    if (r.base == Verdict::kWrong ||
        r.inserted != InsertedTruth(run->truth, q, run->writes)) {
      ++run->quiescent_wrong;
    }
    if (degraded) ++run->quiescent_degraded;
  }
  answers->push_back(std::move(res));
}

void QuiescentLocal(Run* run, Database* db, std::vector<Answer>* answers) {
  for (uint32_t q = 0; q < kTwigs; ++q) {
    Answer res;
    auto st = db->Query(kIndex, run->in.xpaths[q], &res);
    JudgeQuiescent(run, q, st.ok(), st.ok() && st.value().degraded,
                   std::move(res), answers);
  }
}

/// Writes lost across a reopen: the documents that did not come back, or
/// at least one when the answers changed.
uint64_t LostWrites(uint64_t before_docs, uint64_t after_docs,
                    bool same_answers) {
  const uint64_t gone = before_docs > after_docs ? before_docs - after_docs : 0;
  return gone > 0 || same_answers ? gone : 1;
}

/// Quiescent pass, reopen, second pass: the two must agree exactly, and
/// every acknowledged document must survive the reopen.
void VerifyLocal(Run* run, std::unique_ptr<Database> db) {
  std::vector<Answer> before, after;
  QuiescentLocal(run, db.get(), &before);
  const size_t docs = db->corpus()->num_docs();
  db.reset();
  const int64_t t0 = NowNs();
  db = Must(Database::Open(run->db_dir), "reopen");
  run->reopen_s = (NowNs() - t0) / 1e9;
  run->reopen_degraded = db->IsDegraded(kIndex);
  QuiescentLocal(run, db.get(), &after);
  run->lost_writes = LostWrites(docs, db->corpus()->num_docs(), before == after);
  run->index_bytes = IndexBytes(run->db_dir);
}

void RunXmark(Run* run) {
  auto db = SetupLocal(run, 6, 5);
  run->span_buffers.resize(kXmarkClients);
  PassCounter pc(run);
  const int64_t t0 = NowNs();
  for (int p = 0; p < run->passes; ++p) {
    const bool traced = PassTraced(*run, p);
    pc.Begin(traced);
    std::vector<ReadRecord> recs(kTwigs);
    std::atomic<uint32_t> next{0};
    const int64_t w0 = NowNs();
    std::vector<std::thread> clients;
    for (int c = 0; c < kXmarkClients; ++c) {
      clients.emplace_back([&, c] {
        SpanBuffer* buf = traced ? &run->span_buffers[c] : nullptr;
        for (uint32_t q; (q = next.fetch_add(1)) < kTwigs;) {
          LocalRead(run, db.get(), q, buf,
                    static_cast<uint64_t>(p) * kTwigs + q, &recs[q]);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    run->window_s.push_back((NowNs() - w0) / 1e9);
    for (ReadRecord& r : recs) {
      r.window = static_cast<uint32_t>(p);
      run->reads.push_back(std::move(r));
    }
    pc.End(0);
  }
  run->measured_s = (NowNs() - t0) / 1e9;
  run->peak_rss_kib = PeakRssKiB();
  VerifyLocal(run, std::move(db));
}

void RunDblp(Run* run) {
  auto db = SetupLocal(run, 6, 5);
  run->span_buffers.resize(1);
  SpanBuffer* spans = &run->span_buffers[0];
  PassCounter pc(run);
  const int cycles_per_pass = kTwigs / kDblpReadsPerWrite;
  const int64_t t0 = NowNs();
  for (int p = 0; p < run->passes; ++p) {
    const bool traced = PassTraced(*run, p);
    SpanBuffer* buf = traced ? spans : nullptr;
    pc.Begin(traced);
    uint64_t xml_bytes = 0;
    int64_t w0 = 0;
    for (int c = 0; c < cycles_per_pass; ++c) {
      if (c % kDblpWindowCycles == 0) w0 = NowNs();
      const uint32_t window = static_cast<uint32_t>(run->window_s.size());
      const uint32_t planned = static_cast<uint32_t>(p * cycles_per_pass + c);
      const std::string& xml = run->in.insert_xml[planned];
      const uint64_t rid = (1ULL << 40) + planned;
      WriteRecord w;
      w.window = window;
      w.planned = planned;
      w.send_ns = NowNs();
      // The sequence fixd's INSERT runs: parse, persist the corpus, commit.
      const int32_t root = buf ? buf->Open("op.write", "op", rid, -1) : -1;
      auto id = InSpan(buf, "Database::AddXml", "xml", rid, root,
                       [&] { return db->AddXml(xml); });
      Status s = id.status();
      if (s.ok()) {
        w.doc_id = id.value();
        s = InSpan(buf, "Database::Save", "core", rid, root,
                   [&] { return db->Save(); });
      }
      if (s.ok()) {
        FixIndex* index = db->index(kIndex);
        s = index == nullptr ? Status::NotFound("index")
                             : InSpan(buf, "FixIndex::InsertDocument", "core",
                                      rid, root, [&] {
                                        return index->InsertDocument(w.doc_id);
                                      });
      }
      if (buf) buf->Close(root);
      w.ack_ns = NowNs();
      w.ms = MsBetween(w.send_ns, w.ack_ns);
      w.error = !s.ok();
      xml_bytes += xml.size();
      run->writes.push_back(w);
      for (int k = 0; k < kDblpReadsPerWrite; ++k) {
        const uint32_t q = static_cast<uint32_t>(
            (c * kDblpReadsPerWrite + k) % kTwigs);
        ReadRecord r;
        LocalRead(run, db.get(), q, buf,
                  (2ULL << 40) + run->reads.size(), &r);
        r.window = window;
        run->reads.push_back(std::move(r));
      }
      if (c % kDblpWindowCycles == kDblpWindowCycles - 1) {
        run->window_s.push_back((NowNs() - w0) / 1e9);
      }
    }
    pc.End(xml_bytes);
  }
  run->measured_s = (NowNs() - t0) / 1e9;
  run->peak_rss_kib = PeakRssKiB();
  VerifyLocal(run, std::move(db));
}

// ---------------------------------------------------------------------------
// tcmd_remote: a sharded database served by an in-process fixd.

struct Served {
  std::unique_ptr<ShardedDatabase> sdb;
  std::unique_ptr<server::Server> srv;
};

ShardedOptions TcmdShardOptions() {
  ShardedOptions so;
  so.shard_count = 2;
  so.index = ProductionOptions(0);
  so.scatter_threads = 2;
  return so;
}

server::ServerOptions TcmdServerOptions() {
  server::ServerOptions o;
  o.workers = 2;
  o.index = kIndex;
  o.index_options = ProductionOptions(0);
  return o;
}

void StopServed(Served* s) {
  if (s->srv) Must(s->srv->Stop(), "server stop");
  s->srv.reset();
  s->sdb.reset();
}

Served SetupTcmd(Run* run, int reps) {
  Served s;
  for (int rep = 0; rep < reps; ++rep) {
    StopServed(&s);
    ReleaseHeap();
    ResetDir(run->db_dir);
    std::vector<std::string> xml = LoadBaseXml(run);
    const int64_t t0 = NowNs();
    {
      Database source(run->db_dir + "/source");
      for (const std::string& x : xml) {
        const int64_t p0 = NowNs();
        Must(source.AddXml(x), "AddXml");
        run->ingest_ms.push_back(MsBetween(p0, NowNs()));
      }
      std::vector<std::string>().swap(xml);
      s.sdb = Must(ShardedDatabase::Partition(*source.corpus(),
                                              run->db_dir + "/served",
                                              TcmdShardOptions()),
                   "Partition");
    }
    const int64_t b0 = NowNs();
    Must(s.sdb->BuildIndexes(kIndex), "BuildIndexes");
    const int64_t b1 = NowNs();
    s.srv = std::make_unique<server::Server>(s.sdb.get(), TcmdServerOptions());
    Must(s.srv->Start(), "Server::Start");
    const int64_t t1 = NowNs();
    run->setup_s.push_back((t1 - t0) / 1e9);
    run->build_s.push_back((b1 - b0) / 1e9);
  }
  return s;
}

Answer FromWire(const wire::QueryOutcome& o) {
  Answer a;
  for (const wire::WireNodeRef& r : o.results) a.push_back({r.doc_id, r.node_id});
  return a;
}

double ParseQuantile(const std::string& prom, const std::string& metric) {
  const std::string key = metric + "{quantile=\"0.5\"} ";
  const size_t at = prom.find(key);
  return at == std::string::npos
             ? 0
             : std::strtod(prom.c_str() + at + key.size(), nullptr);
}

void RunTcmd(Run* run) {
  Served s = SetupTcmd(run, 9);
  std::vector<std::unique_ptr<server::FixdClient>> clients;
  for (int c = 0; c < kTcmdClients; ++c) {
    clients.push_back(
        Must(server::FixdClient::Connect("127.0.0.1", s.srv->port()),
             "FixdClient::Connect"));
  }
  run->span_buffers.resize(kTcmdClients);
  PassCounter pc(run);
  std::vector<int> read_no(kTcmdClients, 0), write_no(kTcmdClients, 0);
  const int per_pass = kTwigs / kTcmdClients;
  const int64_t t0 = NowNs();
  for (int p = 0; p < run->passes; ++p) {
    const bool traced = PassTraced(*run, p);
    pc.Begin(traced);
    std::vector<std::vector<ReadRecord>> reads(kTcmdClients);
    std::vector<std::vector<WriteRecord>> writes(kTcmdClients);
    std::vector<std::vector<double>> shard_ms(kTcmdClients),
        overhead_ms(kTcmdClients);
    std::vector<std::thread> threads;
    const int64_t w0 = NowNs();
    for (int c = 0; c < kTcmdClients; ++c) {
      threads.emplace_back([&, c] {
        server::FixdClient* cl = clients[c].get();
        SpanBuffer* buf = traced ? &run->span_buffers[c] : nullptr;
        for (int i = 0; i < per_pass; ++i) {
          if (read_no[c] % kTcmdReadsPerWrite == 0) {
            WriteRecord w;
            w.planned = static_cast<uint32_t>(write_no[c]++ * kTcmdClients + c);
            const uint64_t rid = (1ULL << 40) + w.planned;
            w.send_ns = NowNs();
            const int32_t root = buf ? buf->Open("op.write", "op", rid, -1) : -1;
            auto ack = InSpan(buf, "FixdClient::Insert", "server", rid, root, [&] {
              return cl->Insert(kIndex, run->in.insert_xml[w.planned]);
            });
            if (buf) buf->Close(root);
            w.ack_ns = NowNs();
            w.ms = MsBetween(w.send_ns, w.ack_ns);
            w.error = !ack.ok();
            if (ack.ok()) w.doc_id = ack.value().doc_id;
            writes[c].push_back(w);
          }
          const uint32_t q = static_cast<uint32_t>(i * kTcmdClients + c);
          const std::string& xp = run->in.xpaths[q];
          const uint64_t rid = (2ULL << 40) + (static_cast<uint64_t>(c) << 32) +
                               static_cast<uint64_t>(read_no[c]++);
          const int64_t r0 = NowNs();
          const int32_t root = buf ? buf->Open("op.read", "op", rid, -1) : -1;
          auto out = InSpan(buf, "FixdClient::Query", "server", rid, root,
                            [&] { return cl->Query(kIndex, xp); });
          if (buf) buf->Close(root);
          const int64_t r1 = NowNs();
          ReadRecord r;
          if (!out.ok() || out.value().code != wire::Code::kOk) {
            r.error = true;
          } else {
            r = Judge(FromWire(out.value()), run->base_docs,
                      run->truth.base[q]);
            r.degraded = out.value().degraded;
          }
          r.query = q;
          r.send_ns = r0;
          r.done_ns = r1;
          r.ms = MsBetween(r0, r1);
          r.traced = traced;
          if (buf != nullptr && !r.error) {
            // Side calls, outside the op's latency: the same query in
            // process, so the wire's share can be split off.
            Answer local;
            ShardedDatabase* sdb = s.sdb.get();
            const int32_t sq = buf->Open("ShardedDatabase::Query", "core",
                                         rid, -1);
            auto st = sdb->Query(kIndex, xp, &local);
            buf->Close(sq);
            if (st.ok()) {
              r.stats = st.value();
              r.has_stats = true;
              shard_ms[c].push_back(buf->DurationMs(sq));
              overhead_ms[c].push_back(r.ms - buf->DurationMs(sq));
            }
            auto twig = InSpan(buf, "ShardedDatabase::Compile", "query", rid,
                               -1, [&] { return sdb->Compile(xp); });
            FixIndex* index = sdb->shard_db(0)->index(kIndex);
            if (twig.ok() && index != nullptr) {
              InSpan(buf, "FixIndex::QueryFeatures", "spectral", rid, -1,
                     [&] { return index->QueryFeatures(twig.value()).ok(); });
            }
          }
          reads[c].push_back(std::move(r));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    run->window_s.push_back((NowNs() - w0) / 1e9);
    uint64_t xml_bytes = 0;
    for (int c = 0; c < kTcmdClients; ++c) {
      for (ReadRecord& r : reads[c]) {
        r.window = static_cast<uint32_t>(p);
        run->reads.push_back(std::move(r));
      }
      for (WriteRecord& w : writes[c]) {
        w.window = static_cast<uint32_t>(p);
        run->writes.push_back(w);
        xml_bytes += run->in.insert_xml[w.planned].size();
      }
      run->shard_query_ms.insert(run->shard_query_ms.end(),
                                 shard_ms[c].begin(), shard_ms[c].end());
      run->server_overhead_ms.insert(run->server_overhead_ms.end(),
                                     overhead_ms[c].begin(),
                                     overhead_ms[c].end());
    }
    pc.End(xml_bytes);
  }
  run->measured_s = (NowNs() - t0) / 1e9;
  run->peak_rss_kib = PeakRssKiB();
  auto stats = clients[0]->Stats();
  if (stats.ok()) {
    run->request_us_p50 = ParseQuantile(stats.value(), "fixd_request_latency_us");
  }

  // Quiescent pass over the wire, then stop, reopen and repeat in process.
  std::vector<Answer> before, after;
  for (uint32_t q = 0; q < kTwigs; ++q) {
    auto out = clients[0]->Query(kIndex, run->in.xpaths[q]);
    const bool ok = out.ok() && out.value().code == wire::Code::kOk;
    JudgeQuiescent(run, q, ok, ok && out.value().degraded,
                   ok ? FromWire(out.value()) : Answer{}, &before);
  }
  clients.clear();
  const uint64_t docs = s.sdb->num_docs();
  StopServed(&s);
  const int64_t r0 = NowNs();
  s.sdb = Must(ShardedDatabase::Open(run->db_dir + "/served",
                                     TcmdShardOptions()),
               "reopen");
  run->reopen_s = (NowNs() - r0) / 1e9;
  for (uint32_t q = 0; q < kTwigs; ++q) {
    Answer res;
    auto st = s.sdb->Query(kIndex, run->in.xpaths[q], &res);
    JudgeQuiescent(run, q, st.ok(), st.ok() && st.value().degraded,
                   std::move(res), &after);
  }
  run->reopen_degraded = s.sdb->IsDegraded(kIndex);
  run->lost_writes = LostWrites(docs, s.sdb->num_docs(), before == after);
  StopServed(&s);
  run->index_bytes = IndexBytes(run->db_dir + "/served");
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0, failed = 0;
  uint64_t false_negative_reads = 0, wrong = 0, errors = 0, degraded = 0;
  bool correct = false;
};

Outcome Tally(Run* run) {
  Outcome o;
  std::map<uint32_t, const WriteRecord*> by_doc;
  for (const WriteRecord& w : run->writes) {
    if (!w.error) by_doc[w.doc_id] = &w;
  }
  for (const ReadRecord& r : run->reads) {
    Verdict v = r.error ? Verdict::kError
                        : Worse(r.base, JudgeInserted(r, run->truth, by_doc));
    if (v == Verdict::kFalseNegative) ++o.false_negative_reads;
    if (v == Verdict::kWrong) ++o.wrong;
    if (v == Verdict::kError) ++o.errors;
    // A read the full-scan fallback answered timed no index read.
    if (r.degraded) ++o.degraded;
    if (v != Verdict::kOk || r.degraded) ++o.failed;
  }
  for (const WriteRecord& w : run->writes) {
    if (w.error) ++o.errors, ++o.failed;
  }
  o.failed += run->lost_writes;
  o.attempted = run->reads.size() + run->writes.size();
  // A base-document answer that lost results but returned nothing extra is
  // finding F1 of the paper's probe: it counts as failed and stays visible,
  // but it is the program's documented behaviour, not a broken benchmark.
  // Every other mismatch, a lost write and a quarantined index make the run
  // incorrect.
  o.correct = o.wrong == 0 && o.errors == 0 && run->lost_writes == 0 &&
              run->quiescent_wrong == 0 && run->quiescent_degraded == 0 &&
              !run->reopen_degraded;
  return o;
}

std::vector<double> ReadMs(const Run& run, std::optional<bool> traced) {
  std::vector<double> v;
  for (const ReadRecord& r : run.reads) {
    if (!traced || r.traced == *traced) v.push_back(r.ms);
  }
  return v;
}

/// The end-to-end metrics. `bounded` are the ones BENCHMARK.json bounds:
/// every workload has them, none is ever 0, and their spread over seeds
/// stays within the bound. `extra` are printed only (see README.md).
void EndToEnd(const Run& run, const Outcome& o, std::vector<Metric>* bounded,
              std::vector<Metric>* extra) {
  std::vector<double> reads = ReadMs(run, std::nullopt), writes;
  for (const WriteRecord& w : run.writes) writes.push_back(w.ms);
  const size_t nw = run.window_s.size();
  std::vector<std::vector<double>> window_reads(nw);
  std::vector<double> ops(nw, 0), rate, p50;
  for (const ReadRecord& r : run.reads) {
    window_reads[r.window].push_back(r.ms);
    ++ops[r.window];
  }
  for (const WriteRecord& w : run.writes) ++ops[w.window];
  for (size_t i = 0; i < nw; ++i) {
    rate.push_back(Ratio(ops[i], run.window_s[i]));
    p50.push_back(Percentile(window_reads[i], 50));
  }
  std::fprintf(stdout,
               "windows: %zu; ops/s per window %.1f .. %.1f .. %.1f; read "
               "p50 per window %.3f .. %.3f .. %.3f ms\n",
               nw, Percentile(rate, 0), Percentile(rate, 50),
               Percentile(rate, 100), Percentile(p50, 0), Percentile(p50, 50),
               Percentile(p50, 100));
  std::fprintf(stdout, "set-ups: %zu; %.4f .. %.4f .. %.4f s\n",
               run.setup_s.size(), Percentile(run.setup_s, 0),
               Percentile(run.setup_s, 50), Percentile(run.setup_s, 100));
  uint64_t xml = run.base_xml_bytes;
  for (const WriteRecord& w : run.writes) {
    if (!w.error) xml += run.in.insert_xml[w.planned].size();
  }
  *bounded = {
      {"setup_s", Percentile(run.setup_s, 50), "s"},
      {"ops_per_s", Percentile(rate, 50), "1/s"},
      {"read_p50_ms", Percentile(p50, 50), "ms"},
      {"index_bytes_per_xml_byte", Ratio(run.index_bytes, xml), "ratio"},
      {"peak_rss_mb", run.peak_rss_kib / 1024.0, "MiB"},
  };
  extra->push_back({"read_p90_ms", Percentile(reads, 90), "ms"});
  if (reads.size() >= 1000) {
    extra->push_back({"read_p99_ms", Percentile(reads, 99), "ms"});
  }
  if (!writes.empty()) {
    extra->push_back({"write_p50_ms", Percentile(writes, 50), "ms"});
    extra->push_back({"write_p90_ms", Percentile(writes, 90), "ms"});
  }
  extra->push_back({"failed_op_ratio", Ratio(o.failed, o.attempted), "ratio"});
}

std::vector<double> SpanMs(const Run& run, const std::string& name) {
  std::vector<double> v;
  for (const SpanBuffer& b : run.span_buffers) {
    for (const Span& s : b.spans()) {
      if (name == s.name) v.push_back(MsBetween(s.start_ns, s.end_ns));
    }
  }
  return v;
}

/// Self time per layer over the traced ops: each span's duration minus the
/// time its children cover. Children of one op run on the op's thread one
/// after another, so their durations do not overlap.
std::map<std::string, double> SelfTimes(const Run& run, uint64_t* ops) {
  std::map<std::string, double> self;
  *ops = 0;
  for (const SpanBuffer& b : run.span_buffers) {
    const std::vector<Span>& sp = b.spans();
    std::vector<double> child(sp.size(), 0);
    std::vector<bool> in_op(sp.size(), false);
    for (size_t i = 0; i < sp.size(); ++i) {
      const int32_t p = sp[i].parent;
      in_op[i] = p >= 0 ? in_op[p] : std::string(sp[i].layer) == "op";
      if (p >= 0) child[p] += MsBetween(sp[i].start_ns, sp[i].end_ns);
    }
    for (size_t i = 0; i < sp.size(); ++i) {
      if (!in_op[i]) continue;
      if (sp[i].parent < 0) {
        ++*ops;
        self["trace.op"] += MsBetween(sp[i].start_ns, sp[i].end_ns);
      }
      const std::string layer = sp[i].parent < 0 ? "trace.unexplained"
                                                 : sp[i].layer;
      self[layer] += MsBetween(sp[i].start_ns, sp[i].end_ns) - child[i];
    }
  }
  return self;
}

std::vector<Metric> PerLayer(const Run& run) {
  const Counters& c = run.counts;
  const double r = static_cast<double>(run.counted_reads);
  const double w = static_cast<double>(run.counted_writes);
  const double ops = r + w;
  std::vector<double> lookup, refine;
  for (const ReadRecord& rr : run.reads) {
    if (!rr.has_stats) continue;
    lookup.push_back(rr.stats.lookup_ms);
    refine.push_back(rr.stats.refine_ms);
  }
  const double producing = c["fix.query.producing.total"];
  const double candidates = c["fix.query.candidates.total"];
  const double hits = c["fix.query.plan_cache.hits"];
  const double misses = c["fix.query.plan_cache.misses"];
  const double pool_hits = c["fix.bufferpool.hits"];
  const double pool_misses = c["fix.bufferpool.misses"];

  // Full scan vs the indexed read of the same query, summed over the twigs.
  std::vector<double> sum_ms(kTwigs, 0), n(kTwigs, 0);
  for (const ReadRecord& rr : run.reads) {
    sum_ms[rr.query] += rr.ms;
    n[rr.query] += 1;
  }
  double scan_total = 0, indexed_total = 0;
  for (int q = 0; q < kTwigs; ++q) {
    if (n[q] == 0) continue;
    scan_total += run.truth.scan_ms[q];
    indexed_total += sum_ms[q] / n[q];
  }

  const double traced_p50 = Percentile(ReadMs(run, true), 50);
  const double untraced_p50 = Percentile(ReadMs(run, false), 50);
  uint64_t traced_ops = 0;
  std::map<std::string, double> self = SelfTimes(run, &traced_ops);
  auto per_op = [&](const std::string& k) {
    return Ratio(self.count(k) ? self.at(k) : 0, traced_ops);
  };
  std::vector<double> ingest = SpanMs(run, "Database::AddXml");
  if (ingest.empty()) ingest = run.ingest_ms;
  std::vector<double> compile = SpanMs(run, "Database::Compile");
  if (compile.empty()) compile = SpanMs(run, "ShardedDatabase::Compile");
  auto us = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };

  return {
      {"xml.parse_ms_p50", Percentile(ingest, 50), "ms"},
      {"query.compile_us_p50", Percentile(us(compile), 50), "us"},
      {"query.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"spectral.query_features_us_p50",
       Percentile(us(SpanMs(run, "FixIndex::QueryFeatures")), 50), "us"},
      {"spectral.eigensolves_per_write",
       Ratio(c["fix.spectral.eigensolve.count"], w), "count"},
      {"core.lookup_ms_p50", Percentile(lookup, 50), "ms"},
      {"core.entries_scanned_per_read",
       Ratio(c["fix.query.entries_scanned.total"], r), "count"},
      {"core.candidates_per_read", Ratio(candidates, r), "count"},
      {"core.candidate_precision", Ratio(producing, candidates), "ratio"},
      {"core.refine_ms_p50", Percentile(refine, 50), "ms"},
      {"core.nodes_visited_per_read",
       Ratio(c["fix.query.nodes_visited.total"], r), "count"},
      {"core.insert_ms_p50",
       Percentile(SpanMs(run, "FixIndex::InsertDocument"), 50), "ms"},
      {"core.save_ms_p50", Percentile(SpanMs(run, "Database::Save"), 50), "ms"},
      {"core.spatial_rebuilds_per_write",
       Ratio(c["fix.index.spatial.rebuilds"], w), "count"},
      {"core.build_s", Percentile(run.build_s, 50), "s"},
      {"core.reopen_s", run.reopen_s, "s"},
      {"core.shard_query_ms_p50", Percentile(run.shard_query_ms, 50), "ms"},
      {"storage.pool_accesses_per_op", Ratio(pool_hits + pool_misses, ops),
       "count"},
      {"storage.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
       "ratio"},
      {"storage.pool_misses_per_op", Ratio(pool_misses, ops), "count"},
      {"storage.pool_evictions_per_op",
       Ratio(c["fix.bufferpool.evictions"], ops), "count"},
      {"storage.read_bytes_per_op", Ratio(c["fix.pageio.read_bytes"], ops),
       "B"},
      {"storage.write_bytes_per_xml_byte",
       Ratio(c["fix.pageio.write_bytes"], run.counted_xml_bytes), "ratio"},
      {"storage.fsyncs_per_write", Ratio(c["fix.pageio.fsyncs"], w), "count"},
      {"storage.wal_appends_per_write", Ratio(c["fix.wal.appends"], w),
       "count"},
      {"server.rtt_ms_p50", Percentile(SpanMs(run, "FixdClient::Query"), 50),
       "ms"},
      {"server.overhead_ms_p50", Percentile(run.server_overhead_ms, 50), "ms"},
      {"server.request_us_p50", run.request_us_p50, "us"},
      {"baseline.fullscan_ms_p50", Percentile(run.truth.scan_ms, 50), "ms"},
      {"core.index_speedup", Ratio(scan_total, indexed_total), "ratio"},
      {"trace.overhead_ratio", Ratio(traced_p50, untraced_p50), "ratio"},
      {"trace.op_ms_per_op", per_op("trace.op"), "ms"},
      {"xml.self_ms_per_op", per_op("xml"), "ms"},
      {"query.self_ms_per_op", per_op("query"), "ms"},
      {"core.self_ms_per_op", per_op("core"), "ms"},
      {"server.self_ms_per_op", per_op("server"), "ms"},
      {"trace.unexplained_ms_per_op", per_op("trace.unexplained"), "ms"},
  };
}

void WriteSpans(const Run& run, const std::string& path) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  int64_t id = 0;
  for (const SpanBuffer& b : run.span_buffers) {
    const int64_t base = id;
    for (const Span& s : b.spans()) {
      out << "{\"id\":" << id++ << ",\"parent\":"
          << (s.parent < 0 ? -1 : base + s.parent) << ",\"request\":"
          << s.request_id << ",\"name\":\"" << s.name << "\",\"layer\":\""
          << s.layer << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (k == "--prepare") {
      opt.prepare = true;
      --i;
      continue;
    }
    if (i + 1 == argc) Die("missing value for " + k);
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--workdir") opt.workdir = v;
    else if (k == "--trace-out") opt.trace_out = v;
    else Die("unknown flag " + k);
  }
  if (opt.workdir.empty() || !(opt.seconds > 0)) {
    Die("usage: fixbench [--prepare] --workload W --seed N --seconds S "
        "--trace 0|1 --workdir DIR [--trace-out FILE]");
  }
  if (opt.workload != "xmark_read" && opt.workload != "dblp_write" &&
      opt.workload != "tcmd_remote") {
    Die("unknown workload '" + opt.workload + "'");
  }
  if (opt.prepare) {
    Prepare(opt);
    return 0;
  }
  Run run;
  run.opt = opt;
  run.db_dir = opt.workdir + "/db";
  LoadInputs(&run);
  if (opt.workload == "xmark_read") RunXmark(&run);
  else if (opt.workload == "dblp_write") RunDblp(&run);
  else RunTcmd(&run);

  const Outcome o = Tally(&run);
  std::fprintf(stdout,
               "workload %s seed %llu: %zu reads, %zu writes in %.3f s "
               "(%d passes over %d twigs)\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               run.reads.size(), run.writes.size(), run.measured_s,
               run.passes, kTwigs);
  std::fprintf(stdout,
               "check: %llu failed of %llu ops (%llu base false-negative "
               "reads, %llu wrong, %llu errors, %llu degraded, %llu lost "
               "writes); quiescent passes: %llu base false-negative, %llu "
               "wrong, %llu degraded; index degraded after reopen: %s\n",
               static_cast<unsigned long long>(o.failed),
               static_cast<unsigned long long>(o.attempted),
               static_cast<unsigned long long>(o.false_negative_reads),
               static_cast<unsigned long long>(o.wrong),
               static_cast<unsigned long long>(o.errors),
               static_cast<unsigned long long>(o.degraded),
               static_cast<unsigned long long>(run.lost_writes),
               static_cast<unsigned long long>(run.quiescent_fn),
               static_cast<unsigned long long>(run.quiescent_wrong),
               static_cast<unsigned long long>(run.quiescent_degraded),
               run.reopen_degraded ? "yes" : "no");
  std::vector<Metric> shown, extra;
  if (opt.trace) {
    shown = PerLayer(run);
  } else {
    EndToEnd(run, o, &shown, &extra);
  }
  if (opt.trace) {
    uint64_t traced_ops = 0;
    auto self = SelfTimes(run, &traced_ops);
    double layers = 0;
    for (const auto& [k, v] : self) {
      if (k != "trace.op") layers += v;
    }
    std::fprintf(stdout,
                 "trace: %llu traced ops; layer self times + unexplained = "
                 "%.6f ms, op latency total = %.6f ms\n",
                 static_cast<unsigned long long>(traced_ops), layers,
                 self["trace.op"]);
    if (!opt.trace_out.empty()) WriteSpans(run, opt.trace_out);
  }
  for (const std::vector<Metric>* list : {&shown, &extra}) {
    for (const Metric& m : *list) {
      std::fprintf(stdout, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": " + std::string(o.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : shown) {
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::fprintf(stdout, "%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace fix::perfbench

int main(int argc, char** argv) { return fix::perfbench::Main(argc, argv); }
