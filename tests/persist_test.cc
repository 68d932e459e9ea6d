// Tests for persistence: the serialization codecs, Corpus save/load round
// trips, and reopening a FIX index from disk with identical query behavior.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "core/corpus.h"
#include "core/database.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/persist.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/xpath_parser.h"
#include "storage/wal.h"
#include "xml/serializer.h"

namespace fix {
namespace {

// Version stamped in an encoded meta's header, right after the magic.
uint32_t MetaVersion(const std::string& meta) {
  return DecodeFixed32(meta.data() + 4);
}

// Hand-encodes the v6 form of a meta: v6 is the v7 layout with the header
// version set to 6 and the key-sequence counter that v1–v6 wrote right
// after the options.
std::string AsV6Meta(const std::string& v7, uint32_t seq_counter = 0) {
  EXPECT_EQ(MetaVersion(v7), 7u);
  size_t pos = 8;
  uint32_t field32 = 0;
  uint64_t field64 = 0;
  // depth, clustered, value_beta, use_lambda2, sound_probe
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(GetVarint32(v7, &pos, &field32));
  pos += 8;  // epsilon
  EXPECT_TRUE(GetVarint64(v7, &pos, &field64));  // max_pattern_vertices
  EXPECT_TRUE(GetVarint64(v7, &pos, &field64));  // max_expanded_nodes
  std::string counter;
  PutVarint32(&counter, seq_counter);
  std::string v6 = v7.substr(0, pos) + counter + v7.substr(pos);
  EncodeFixed32(v6.data() + 4, 6);
  return v6;
}

// Hand-encodes the v5 form of a meta: v5 is the v6 layout with the header
// version set to 5.
std::string AsV5Meta(const std::string& v7) {
  std::string v5 = AsV6Meta(v7);
  EncodeFixed32(v5.data() + 4, 5);
  return v5;
}

// Hand-encodes the v4 form of a meta: v4 is the v5 layout with the header
// version set to 4 and a trailing probe-engine selector (0 = B+-tree,
// 1 = kd-tree, 2 = auto).
std::string AsV4Meta(const std::string& v7, uint32_t engine) {
  std::string v4 = AsV5Meta(v7);
  EncodeFixed32(v4.data() + 4, 4);
  PutVarint32(&v4, engine);
  return v4;
}

// A format-1 write-ahead log header, as indexes before meta v7 wrote it:
// 32-byte keys and 16-byte values. No current reader accepts it.
std::string V1WalHeader() {
  std::string header(32, '\0');
  EncodeFixed32(header.data(), kWalMagic);
  EncodeFixed32(header.data() + 4, 1);
  EncodeFixed32(header.data() + 8, 32);
  EncodeFixed32(header.data() + 12, 16);
  EncodeFixed32(header.data() + 28, Crc32c(header.data(), 28));
  return header;
}

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // FIX_PERSIST_TEST_DIR (set by tools/ci.sh) redirects the output and
    // keeps it after the run so fixdb_scrub can verify every page file the
    // suite produced.
    const char* keep = std::getenv("FIX_PERSIST_TEST_DIR");
    keep_output_ = keep != nullptr && keep[0] != '\0';
    const std::string base = keep_output_ ? keep : ::testing::TempDir();
    dir_ = base + "/fix_persist_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    if (!keep_output_) std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  bool keep_output_ = false;
};

TEST_F(PersistTest, FileRoundTrip) {
  std::string payload = "hello\0world", path = dir_ + "/f";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  EXPECT_FALSE(ReadFile(dir_ + "/missing").ok());
}

TEST_F(PersistTest, LabelTableRoundTrip) {
  LabelTable original;
  original.Intern("article");
  original.Intern("author");
  original.Intern("#v3");
  std::string buf = EncodeLabelTable(original);

  LabelTable restored;
  ASSERT_TRUE(DecodeLabelTable(buf, &restored).ok());
  ASSERT_EQ(restored.size(), original.size());
  for (LabelId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(restored.Name(id), original.Name(id));
  }
  // Corruption is detected.
  std::string bad = buf;
  bad[0] ^= 0x55;
  LabelTable fresh;
  EXPECT_FALSE(DecodeLabelTable(bad, &fresh).ok());
  LabelTable fresh2;
  EXPECT_FALSE(DecodeLabelTable(buf.substr(0, buf.size() - 2), &fresh2).ok());
}

TEST_F(PersistTest, ManifestRoundTrip) {
  std::vector<RecordId> records = {{0}, {123}, {1ULL << 40}};
  auto restored = DecodeManifest(EncodeManifest(records));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 3u);
  EXPECT_EQ((*restored)[2].offset, 1ULL << 40);
}

TEST_F(PersistTest, IndexMetaRoundTrip) {
  IndexMeta meta;
  meta.options.depth_limit = 6;
  meta.options.clustered = true;
  meta.options.value_beta = 10;
  meta.options.use_lambda2 = true;
  meta.options.sound_probe = true;
  meta.options.epsilon = 1e-7;
  meta.edge_weights = {{0x100000002ULL, 1}, {0x300000004ULL, 7}};
  meta.storage_format = 1;
  meta.indexed_docs = 321;
  auto restored = DecodeIndexMeta(EncodeIndexMeta(meta));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->options.depth_limit, 6);
  EXPECT_TRUE(restored->options.clustered);
  EXPECT_EQ(restored->options.value_beta, 10u);
  EXPECT_TRUE(restored->options.use_lambda2);
  EXPECT_TRUE(restored->options.sound_probe);
  EXPECT_DOUBLE_EQ(restored->options.epsilon, 1e-7);
  EXPECT_EQ(restored->version, kIndexMetaVersion);
  EXPECT_EQ(restored->edge_weights, meta.edge_weights);
  EXPECT_EQ(restored->storage_format, 1u);
  EXPECT_EQ(restored->indexed_docs, 321u);
}

TEST_F(PersistTest, IndexMetaV4EngineFieldIsValidatedAndDropped) {
  IndexMeta meta;
  meta.options.depth_limit = 3;
  meta.options.sound_probe = true;
  meta.indexed_docs = 9;
  meta.generation = 5;
  meta.wal_bytes = 64;
  const std::string v7 = EncodeIndexMeta(meta);
  for (uint32_t engine : {0u, 1u, 2u}) {
    SCOPED_TRACE(engine);
    auto restored = DecodeIndexMeta(AsV4Meta(v7, engine));
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(restored->version, 4u);
    EXPECT_EQ(EncodeIndexMeta(*restored), v7);
  }
  // v5 and v6 decode to the same meta; their sequence counter is dropped.
  auto from_v5 = DecodeIndexMeta(AsV5Meta(v7));
  ASSERT_TRUE(from_v5.ok()) << from_v5.status();
  EXPECT_EQ(from_v5->version, 5u);
  EXPECT_EQ(EncodeIndexMeta(*from_v5), v7);
  auto from_v6 = DecodeIndexMeta(AsV6Meta(v7, /*seq_counter=*/300000));
  ASSERT_TRUE(from_v6.ok()) << from_v6.status();
  EXPECT_EQ(from_v6->version, 6u);
  EXPECT_EQ(EncodeIndexMeta(*from_v6), v7);
  // An engine value no v4 writer could emit is damage.
  auto unknown = DecodeIndexMeta(AsV4Meta(v7, 3));
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsCorruption()) << unknown.status();
  // A v4 header without its selector is truncated.
  std::string truncated = AsV4Meta(v7, 0);
  truncated.pop_back();
  auto short_meta = DecodeIndexMeta(truncated);
  ASSERT_FALSE(short_meta.ok());
  EXPECT_TRUE(short_meta.status().IsCorruption()) << short_meta.status();
  // v5–v7 carry no selector, so a trailing byte is damage too.
  auto trailing = DecodeIndexMeta(v7 + '\0');
  ASSERT_FALSE(trailing.ok());
  EXPECT_TRUE(trailing.status().IsCorruption()) << trailing.status();
}

TEST_F(PersistTest, EdgeEncoderExportImport) {
  EdgeEncoder original;
  double w1 = original.Weight(3, 4);
  double w2 = original.Weight(5, 6);
  EdgeEncoder restored;
  restored.Import(original.Export());
  EXPECT_EQ(restored.Weight(3, 4), w1);
  EXPECT_EQ(restored.Weight(5, 6), w2);
  // New pairs continue after the imported maximum.
  EXPECT_GT(restored.Weight(7, 8), w2);
}

TEST_F(PersistTest, CorpusSaveLoadRoundTrip) {
  Corpus original;
  ASSERT_TRUE(original.AddXml("<a><b>text</b><c/></a>").ok());
  ASSERT_TRUE(original.AddXml("<x><y/></x>").ok());
  ASSERT_TRUE(original.Save(dir_).ok());

  auto restored = Corpus::Load(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->num_docs(), 2u);
  EXPECT_EQ(restored->TotalElements(), original.TotalElements());
  EXPECT_EQ(restored->labels()->size(), original.labels()->size());
  const Document& doc = restored->doc(0);
  EXPECT_EQ(doc.ChildText(doc.first_child(doc.root_element())), "text");
}

TEST_F(PersistTest, IndexReopenAnswersIdentically) {
  Corpus corpus;
  TcmdOptions gen;
  gen.num_docs = 40;
  GenerateTcmd(&corpus, gen);
  ASSERT_TRUE(corpus.Save(dir_).ok());

  IndexOptions options;
  options.depth_limit = 4;
  options.path = dir_ + "/idx.fix";
  auto built = FixIndex::Build(&corpus, options, nullptr);
  ASSERT_TRUE(built.ok());

  // Fresh process simulation: reload corpus, reopen index.
  auto corpus2 = Corpus::Load(dir_);
  ASSERT_TRUE(corpus2.ok());
  auto reopened = FixIndex::Open(&*corpus2, dir_ + "/idx.fix");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->num_entries(), built->num_entries());
  EXPECT_EQ(reopened->options().depth_limit, 4);

  QueryGenOptions qopts;
  qopts.seed = 55;
  qopts.max_depth = 4;
  auto queries = GenerateRandomQueries(corpus, 20, qopts);
  ASSERT_GT(queries.size(), 5u);
  for (const auto& q : queries) {
    auto a = built->Lookup(q);
    TwigQuery q2 = q;
    q2.ResolveLabels(corpus2->labels());
    auto b = reopened->Lookup(q2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->candidates.size(), b->candidates.size()) << q.ToString();
  }
}

TEST_F(PersistTest, ReopenedClusteredIndexServesCopies) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml("<a><b/><c/></a>").ok());
  ASSERT_TRUE(corpus.Save(dir_).ok());
  IndexOptions options;
  options.clustered = true;
  options.path = dir_ + "/c.fix";
  ASSERT_TRUE(FixIndex::Build(&corpus, options, nullptr).ok());

  auto corpus2 = Corpus::Load(dir_);
  ASSERT_TRUE(corpus2.ok());
  auto reopened = FixIndex::Open(&*corpus2, dir_ + "/c.fix");
  ASSERT_TRUE(reopened.ok());
  FixQueryProcessor processor(&*corpus2, &*reopened);
  auto parsed = ParseXPath("/a[b]/c");
  TwigQuery q = std::move(parsed).value();
  q.ResolveLabels(corpus2->labels());
  auto stats = processor.Execute(q);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 1u);
  EXPECT_GT(stats->sequential_bytes, 0u);
}

// Indexes persisted by meta v4 — whatever probe engine they selected — and
// by meta v5 reopen and answer byte-identically to a fresh v6 index.
// An index written before meta v7 holds 48-byte entries. FixIndex::Open
// refuses it with NotSupported before reading the log (here a format-1 log
// no current reader accepts) or any page. Database::Open upgrades it by
// rebuilding from the corpus with the options the old meta recorded: the
// answers and candidate counts equal a fresh index's, nothing is
// quarantined, and a v7 meta is on disk afterwards.
TEST_F(PersistTest, PreV7IndexUpgradesByRebuildOnDatabaseOpen) {
  const std::string tmpl = dir_ + "/tmpl";
  std::filesystem::create_directories(tmpl);
  IndexOptions options;
  options.depth_limit = 4;
  options.sound_probe = true;
  {
    Database db(tmpl);
    DblpOptions gen;
    gen.num_publications = 80;
    GenerateDblp(db.corpus(), gen);
    ASSERT_TRUE(db.Finalize().ok());
    ASSERT_TRUE(db.BuildIndex("main", options, nullptr).ok());
    ASSERT_TRUE(db.Save().ok());
  }
  auto v7 = ReadFile(tmpl + "/main.fix.meta");
  ASSERT_TRUE(v7.ok());
  ASSERT_EQ(MetaVersion(*v7), 7u);

  QueryGenOptions qopts;
  qopts.seed = 404;
  qopts.max_depth = 4;
  std::vector<TwigQuery> queries;
  std::vector<std::vector<NodeRef>> want;
  std::vector<uint64_t> want_candidates;
  {
    auto fresh = Database::Open(tmpl);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    queries = GenerateRandomQueries(*(*fresh)->corpus(), 25, qopts);
    ASSERT_GT(queries.size(), 5u);
    FixQueryProcessor processor((*fresh)->corpus(), (*fresh)->index("main"));
    for (const TwigQuery& q : queries) {
      want.emplace_back();
      auto stats = processor.Execute(q, &want.back());
      ASSERT_TRUE(stats.ok());
      want_candidates.push_back(stats->candidates);
    }
  }

  std::vector<std::string> old_metas;
  for (uint32_t engine : {0u, 1u, 2u}) {
    old_metas.push_back(AsV4Meta(*v7, engine));
  }
  old_metas.push_back(AsV5Meta(*v7));
  old_metas.push_back(AsV6Meta(*v7, /*seq_counter=*/12345));
  for (size_t k = 0; k < old_metas.size(); ++k) {
    SCOPED_TRACE("meta v" + std::to_string(MetaVersion(old_metas[k])));
    const std::string wd = dir_ + "/old" + std::to_string(k);
    std::filesystem::copy(tmpl, wd, std::filesystem::copy_options::recursive);
    ASSERT_TRUE(WriteFile(wd + "/main.fix.meta", old_metas[k]).ok());
    ASSERT_TRUE(WriteFile(wd + "/main.fix.wal", V1WalHeader()).ok());

    {
      auto corpus = Corpus::Load(wd);
      ASSERT_TRUE(corpus.ok());
      auto refused = FixIndex::Open(&*corpus, wd + "/main.fix");
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kNotSupported)
          << refused.status();
    }

    auto db = Database::Open(wd);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_FALSE((*db)->IsDegraded("main"));
    const StorageHealth health = (*db)->health();
    EXPECT_EQ(health.rebuilds, 1u);
    EXPECT_EQ(health.corruption_events, 0u);
    EXPECT_EQ(health.quarantined_indexes, 0u);
    FixIndex* index = (*db)->index("main");
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->options().depth_limit, 4);
    EXPECT_TRUE(index->options().sound_probe);
    FixQueryProcessor processor((*db)->corpus(), index);
    for (size_t i = 0; i < queries.size(); ++i) {
      TwigQuery q = queries[i];
      q.ResolveLabels((*db)->corpus()->labels());
      std::vector<NodeRef> got;
      auto stats = processor.Execute(q, &got);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(got, want[i]) << q.ToString();
      EXPECT_EQ(stats->candidates, want_candidates[i]) << q.ToString();
    }
    auto upgraded = ReadFile(wd + "/main.fix.meta");
    ASSERT_TRUE(upgraded.ok());
    EXPECT_EQ(MetaVersion(*upgraded), kIndexMetaVersion);
    EXPECT_FALSE(std::filesystem::exists(wd + "/main.fix.meta.quarantined"));
    auto wal = Wal::Inspect(wd + "/main.fix.wal");
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_EQ(wal->key_size, kFeatureKeySize);
    EXPECT_EQ(wal->value_size, 0u);
  }
}

// An upgraded database directory sheds the kd-tree file on Database::Open
// and keeps serving from the attached index.
TEST_F(PersistTest, DatabaseOpenRemovesLeftoverKdTreeFile) {
  {
    Database db(dir_);
    TcmdOptions gen;
    gen.num_docs = 30;
    GenerateTcmd(db.corpus(), gen);
    ASSERT_TRUE(db.Finalize().ok());
    IndexOptions options;
    ASSERT_TRUE(db.BuildIndex("main", options, nullptr).ok());
    ASSERT_TRUE(db.Save().ok());
  }
  const std::string kd_tree_file =
      dir_ + "/main.fix" + kLegacyKdTreeSuffix;
  ASSERT_TRUE(WriteFile(kd_tree_file, std::string(4096, 'k')).ok());

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_FALSE(std::filesystem::exists(kd_tree_file));
  std::vector<NodeRef> results;
  auto stats = (*db)->Query("main", "/article/prolog/authors/author/name",
                            &results);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->used_index);
  EXPECT_FALSE(stats->degraded);
  EXPECT_FALSE(results.empty());
}

TEST_F(PersistTest, OpenRejectsMissingOrCorruptMeta) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml("<a/>").ok());
  EXPECT_FALSE(FixIndex::Open(&corpus, dir_ + "/nonexistent.fix").ok());

  IndexOptions options;
  options.path = dir_ + "/ok.fix";
  ASSERT_TRUE(FixIndex::Build(&corpus, options, nullptr).ok());
  ASSERT_TRUE(WriteFile(dir_ + "/ok.fix.meta", "garbage").ok());
  EXPECT_FALSE(FixIndex::Open(&corpus, dir_ + "/ok.fix").ok());
}

}  // namespace
}  // namespace fix
