// Tests for persistence: the serialization codecs, Corpus save/load round
// trips, and reopening a FIX index from disk with identical query behavior.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/corpus.h"
#include "core/database.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "core/persist.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/xpath_parser.h"
#include "xml/serializer.h"

namespace fix {
namespace {

// Version stamped in an encoded meta's header, right after the magic.
uint32_t MetaVersion(const std::string& meta) {
  return DecodeFixed32(meta.data() + 4);
}

// Hand-encodes the v5 form of a meta: v5 is the v6 layout with the header
// version set to 5.
std::string AsV5Meta(const std::string& v6) {
  std::string v5 = v6;
  EXPECT_EQ(MetaVersion(v5), 6u);
  EncodeFixed32(v5.data() + 4, 5);
  return v5;
}

// Hand-encodes the v4 form of a meta: v4 is the v5 layout with the header
// version set to 4 and a trailing probe-engine selector (0 = B+-tree,
// 1 = kd-tree, 2 = auto).
std::string AsV4Meta(const std::string& v6, uint32_t engine) {
  std::string v4 = AsV5Meta(v6);
  EncodeFixed32(v4.data() + 4, 4);
  PutVarint32(&v4, engine);
  return v4;
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
  meta.next_seq = 4242;
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
  EXPECT_EQ(restored->next_seq, 4242u);
  EXPECT_EQ(restored->edge_weights, meta.edge_weights);
  EXPECT_EQ(restored->storage_format, 1u);
  EXPECT_EQ(restored->indexed_docs, 321u);
}

TEST_F(PersistTest, IndexMetaV4EngineFieldIsValidatedAndDropped) {
  IndexMeta meta;
  meta.options.depth_limit = 3;
  meta.options.sound_probe = true;
  meta.next_seq = 17;
  meta.indexed_docs = 9;
  meta.generation = 5;
  meta.wal_bytes = 64;
  const std::string v6 = EncodeIndexMeta(meta);
  for (uint32_t engine : {0u, 1u, 2u}) {
    SCOPED_TRACE(engine);
    auto restored = DecodeIndexMeta(AsV4Meta(v6, engine));
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(EncodeIndexMeta(*restored), v6);
  }
  // v5 has the v6 layout and decodes to the same meta.
  auto from_v5 = DecodeIndexMeta(AsV5Meta(v6));
  ASSERT_TRUE(from_v5.ok()) << from_v5.status();
  EXPECT_EQ(EncodeIndexMeta(*from_v5), v6);
  // An engine value no v4 writer could emit is damage.
  auto unknown = DecodeIndexMeta(AsV4Meta(v6, 3));
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsCorruption()) << unknown.status();
  // A v4 header without its selector is truncated.
  std::string truncated = AsV4Meta(v6, 0);
  truncated.pop_back();
  auto short_meta = DecodeIndexMeta(truncated);
  ASSERT_FALSE(short_meta.ok());
  EXPECT_TRUE(short_meta.status().IsCorruption()) << short_meta.status();
  // v5 and v6 carry no selector, so a trailing byte is damage too.
  auto trailing = DecodeIndexMeta(v6 + '\0');
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
// Opening also unlinks the kd-tree file v4 indexes kept next to the
// B+-tree. A v5 index (whose leaves may still carry the sibling chain that
// is no longer read) then takes one insert exactly like a v6 twin of it,
// and its meta is rewritten as v6.
TEST_F(PersistTest, V4IndexOpensAndAnswersLikeV5) {
  Corpus corpus;
  DblpOptions gen;
  gen.num_publications = 80;
  GenerateDblp(&corpus, gen);
  ASSERT_TRUE(corpus.Save(dir_).ok());
  IndexOptions options;
  options.depth_limit = 4;
  options.path = dir_ + "/v.fix";
  auto built = FixIndex::Build(&corpus, options, nullptr);
  ASSERT_TRUE(built.ok()) << built.status();

  QueryGenOptions qopts;
  qopts.seed = 404;
  qopts.max_depth = 4;
  auto queries = GenerateRandomQueries(corpus, 25, qopts);
  ASSERT_GT(queries.size(), 5u);
  std::vector<std::vector<NodeRef>> want(queries.size());
  std::vector<uint64_t> want_candidates(queries.size());
  FixQueryProcessor fresh(&corpus, &*built);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto stats = fresh.Execute(queries[i], &want[i]);
    ASSERT_TRUE(stats.ok());
    want_candidates[i] = stats->candidates;
  }

  auto v6 = ReadFile(dir_ + "/v.fix.meta");
  ASSERT_TRUE(v6.ok());
  ASSERT_EQ(MetaVersion(*v6), 6u);
  // Older metas to reopen under: v4 with each engine, then v5 (last, so the
  // insert below runs against a v5 index).
  std::vector<std::string> old_metas;
  for (uint32_t engine : {0u, 1u, 2u}) {
    old_metas.push_back(AsV4Meta(*v6, engine));
  }
  old_metas.push_back(AsV5Meta(*v6));
  const std::string kd_tree_file = dir_ + "/v.fix" + kLegacyKdTreeSuffix;
  for (const std::string& old_meta : old_metas) {
    SCOPED_TRACE(MetaVersion(old_meta));
    ASSERT_TRUE(WriteFile(dir_ + "/v.fix.meta", old_meta).ok());
    ASSERT_TRUE(WriteFile(kd_tree_file, std::string(4096, 'k')).ok());

    auto corpus2 = Corpus::Load(dir_);
    ASSERT_TRUE(corpus2.ok());
    auto reopened = FixIndex::Open(&*corpus2, dir_ + "/v.fix");
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_FALSE(std::filesystem::exists(kd_tree_file));
    EXPECT_EQ(reopened->num_entries(), built->num_entries());
    FixQueryProcessor processor(&*corpus2, &*reopened);
    for (size_t i = 0; i < queries.size(); ++i) {
      TwigQuery q = queries[i];
      q.ResolveLabels(corpus2->labels());
      std::vector<NodeRef> got;
      auto stats = processor.Execute(q, &got);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(got, want[i]) << q.ToString();
      EXPECT_EQ(stats->candidates, want_candidates[i]) << q.ToString();
    }
  }

  // The v5 index and a v6 twin of it (same files, v6 meta) take the same
  // insert and must answer identically afterwards.
  const std::string twin = dir_ + "/twin.fix";
  std::filesystem::copy_file(dir_ + "/v.fix", twin);
  if (std::filesystem::exists(dir_ + "/v.fix.wal")) {
    std::filesystem::copy_file(dir_ + "/v.fix.wal", twin + ".wal");
  }
  ASSERT_TRUE(WriteFile(twin + ".meta", *v6).ok());
  const std::string xml = SerializeXml(corpus.doc(0), *corpus.labels());
  auto corpus_v5 = Corpus::Load(dir_);
  auto corpus_v6 = Corpus::Load(dir_);
  ASSERT_TRUE(corpus_v5.ok());
  ASSERT_TRUE(corpus_v6.ok());
  auto doc_v5 = corpus_v5->AddXml(xml);
  auto doc_v6 = corpus_v6->AddXml(xml);
  ASSERT_TRUE(doc_v5.ok()) << doc_v5.status();
  ASSERT_TRUE(doc_v6.ok()) << doc_v6.status();
  ASSERT_EQ(*doc_v5, *doc_v6);
  auto index_v5 = FixIndex::Open(&*corpus_v5, dir_ + "/v.fix");
  auto index_v6 = FixIndex::Open(&*corpus_v6, twin);
  ASSERT_TRUE(index_v5.ok()) << index_v5.status();
  ASSERT_TRUE(index_v6.ok()) << index_v6.status();
  ASSERT_TRUE(index_v5->InsertDocument(*doc_v5).ok());
  ASSERT_TRUE(index_v6->InsertDocument(*doc_v6).ok());
  EXPECT_EQ(index_v5->num_entries(), index_v6->num_entries());
  EXPECT_GT(index_v5->num_entries(), built->num_entries());
  auto rewritten = ReadFile(dir_ + "/v.fix.meta");
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(MetaVersion(*rewritten), 6u);

  FixQueryProcessor processor_v5(&*corpus_v5, &*index_v5);
  FixQueryProcessor processor_v6(&*corpus_v6, &*index_v6);
  size_t grew = 0;
  for (const TwigQuery& query : queries) {
    TwigQuery q = query;
    q.ResolveLabels(corpus_v5->labels());
    std::vector<NodeRef> got_v5, got_v6;
    auto stats_v5 = processor_v5.Execute(q, &got_v5);
    auto stats_v6 = processor_v6.Execute(q, &got_v6);
    ASSERT_TRUE(stats_v5.ok());
    ASSERT_TRUE(stats_v6.ok());
    EXPECT_EQ(got_v5, got_v6) << q.ToString();
    EXPECT_EQ(stats_v5->candidates, stats_v6->candidates) << q.ToString();
    for (const NodeRef& ref : got_v5) grew += ref.doc_id == *doc_v5;
  }
  EXPECT_GT(grew, 0u);  // the inserted copy of doc 0 is found
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
