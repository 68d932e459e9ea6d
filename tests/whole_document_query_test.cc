// Whole-document (depth-limit 0) reads: Lookup's doc-bitmap intersection
// against a std::set reference built from per-part Probe results, the
// grouped-by-document candidate order Lookup promises on every branch, and
// refinement through the full scan's per-document loop (same results in
// the same order, the same `producing` count). Corpora cover all four
// generators, doc ids on both sides of the 64-bit bitmap word edges, and
// documents inserted after the build.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/corpus.h"
#include "core/fix_index.h"
#include "core/fix_query.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/compile.h"
#include "query/match.h"
#include "query/xpath_parser.h"

namespace fix {
namespace {

/// One corpus family: `generate` appends `count` documents drawn with
/// `seed`.
struct Family {
  const char* name;
  void (*generate)(Corpus* corpus, uint64_t seed, int count);
  int built;     ///< documents present at Build
  int inserted;  ///< documents added afterwards through InsertDocument
  std::vector<const char*> xpaths;
};

void Tcmd(Corpus* corpus, uint64_t seed, int count) {
  GenerateTcmd(corpus, TcmdOptions{.seed = seed, .num_docs = count});
}

void Dblp(Corpus* corpus, uint64_t seed, int count) {
  for (int i = 0; i < count; ++i) {
    GenerateDblp(corpus, DblpOptions{.seed = seed * 100 + i,
                                     .num_publications = 30 + 7 * i});
  }
}

void XMark(Corpus* corpus, uint64_t seed, int count) {
  for (int i = 0; i < count; ++i) {
    GenerateXMark(corpus, XMarkOptions{.seed = seed * 100 + i,
                                       .num_items = 6 + i,
                                       .num_people = 6,
                                       .num_open_auctions = 5,
                                       .num_closed_auctions = 4 + i,
                                       .num_categories = 3});
  }
}

void Treebank(Corpus* corpus, uint64_t seed, int count) {
  for (int i = 0; i < count; ++i) {
    GenerateTreebank(corpus, TreebankOptions{.seed = seed * 100 + i,
                                             .num_sentences = 6 + 3 * i});
  }
}

// TCMD's 126 built and 6 inserted documents put ids 63/64 and 127/128 —
// both sides of two bitmap word edges — into every query's reach, with
// the second edge among the inserted documents.
const Family kFamilies[] = {
    {"tcmd", Tcmd, 126, 6,
     {"//article[.//email]//section/p", "/article//author/contact/email",
      "//prolog//keyword", "/article[.//phone]//references/a_id",
      "//article//section/*", "/article/prolog/title", "/article/*/title",
      "//*/email",
      "/article//epilog[acknowledgements][references/a_id][copyright]",
      "//article[.//acknowledgements]//author[affiliation]"
      "/contact[phone]/email",
      "//body//epilog[references/a_id]/acknowledgements"}},
    {"dblp", Dblp, 5, 2,
     {"/dblp//article/title", "//dblp[.//book]//inproceedings/author",
      "//inproceedings//*", "/dblp/article/author", "/dblp/*/title",
      "//*/title"}},
    {"xmark", XMark, 4, 2,
     {"/site//item/name", "//parlist//listitem/text",
      "//site[.//closed_auction]//person//*", "/site/regions", "/site/*/item",
      "//*/parlist"}},
    {"treebank", Treebank, 5, 2,
     {"/FILE//S//NP", "//EMPTY//VP/NP", "//S//*", "/FILE/EMPTY/S",
      "/FILE/*/S", "//*/NP"}},
};

class WholeDocumentQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fix_whole_doc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Builds `family` at `depth_limit` into `corpus`, then appends and
  /// indexes its inserted documents.
  FixIndex BuildFamily(const Family& family, int depth_limit,
                       Corpus* corpus) {
    family.generate(corpus, 1, family.built);
    IndexOptions options;
    options.depth_limit = depth_limit;
    options.path = dir_ + "/" + family.name + std::to_string(depth_limit) +
                   ".fix";
    auto index = FixIndex::Build(corpus, options, nullptr);
    EXPECT_TRUE(index.ok()) << index.status();
    const uint32_t first_new = static_cast<uint32_t>(corpus->num_docs());
    family.generate(corpus, 2, family.inserted);
    for (uint32_t d = first_new; d < corpus->num_docs(); ++d) {
      Status s = index->InsertDocument(d);
      EXPECT_TRUE(s.ok()) << s;
    }
    return std::move(index).value();
  }

  /// The family's hand-written twigs plus query_gen's // and / twigs.
  static std::vector<TwigQuery> Queries(const Family& family,
                                        Corpus* corpus) {
    std::vector<TwigQuery> out;
    for (const char* text : family.xpaths) {
      auto q = ParseXPath(text);
      EXPECT_TRUE(q.ok()) << text << ": " << q.status();
      out.push_back(std::move(q).value());
      out.back().ResolveLabels(corpus->labels());
    }
    for (bool rooted : {false, true}) {
      QueryGenOptions options;
      options.seed = rooted ? 7 : 5;
      options.rooted = rooted;
      for (TwigQuery& q : GenerateRandomQueries(*corpus, 25, options)) {
        out.push_back(std::move(q));
      }
    }
    return out;
  }

  std::string dir_;
};

/// The documents a whole-document Lookup must keep, recomputed the slow
/// way: std::set intersections of per-part Probe results. A rooted first
/// part with a wildcard keeps every document with its root label.
/// Returns false when the query is uncovered (no usable first part).
/// `first_part` gets the size of the first part's document set.
bool ReferenceDocs(FixIndex* index, const Corpus& corpus,
                   const TwigQuery& query, std::set<uint32_t>* docs,
                   size_t* first_part) {
  std::vector<TwigQuery> parts = DecomposeAtDescendantEdges(query);
  const QueryStep& root = parts[0].steps[parts[0].root];
  const bool label_ok = root.axis == Axis::kChild && !root.wildcard;
  for (size_t i = 0; i < parts.size(); ++i) {
    std::set<uint32_t> part;
    if (parts[i].HasWildcard()) {
      if (i != 0) continue;
      if (!label_ok) return false;
      for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
        const Document& doc = corpus.doc(d);
        if (doc.root_element() != kInvalidNode &&
            doc.label(doc.root_element()) == root.label) {
          part.insert(d);
        }
      }
    } else {
      auto probe = index->Probe(parts[i], i == 0 && label_ok);
      EXPECT_TRUE(probe.ok()) << probe.status();
      for (const FixIndex::Candidate& c : probe->candidates) {
        part.insert(c.key.ref.doc_id);
      }
    }
    if (i == 0) {
      *docs = std::move(part);
      *first_part = docs->size();
    } else {
      std::set<uint32_t> kept;
      std::set_intersection(docs->begin(), docs->end(), part.begin(),
                            part.end(), std::inserter(kept, kept.begin()));
      *docs = std::move(kept);
    }
  }
  return true;
}

TEST_F(WholeDocumentQueryTest, LookupMatchesProbeIntersectionAndScan) {
  size_t pruned = 0;  // queries whose later parts dropped documents
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.name);
    Corpus corpus;
    FixIndex index = BuildFamily(family, 0, &corpus);
    ASSERT_EQ(corpus.num_docs(),
              static_cast<size_t>(family.built + family.inserted));
    FixQueryProcessor processor(&corpus, &index);
    size_t with_results = 0;
    for (const TwigQuery& q : Queries(family, &corpus)) {
      SCOPED_TRACE(q.ToString());
      std::set<uint32_t> expected;
      size_t first_part = 0;
      const bool covered =
          ReferenceDocs(&index, corpus, q, &expected, &first_part);
      auto lookup = index.Lookup(q);
      ASSERT_TRUE(lookup.ok()) << lookup.status();
      ASSERT_EQ(lookup->covered, covered);

      std::vector<NodeRef> via_index;
      auto stats = processor.Execute(q, &via_index);
      ASSERT_TRUE(stats.ok()) << stats.status();
      std::vector<NodeRef> via_scan;
      auto scan = FullScanExecute(&corpus, q, &via_scan, 0);
      ASSERT_TRUE(scan.ok()) << scan.status();
      EXPECT_EQ(via_index, via_scan);
      EXPECT_EQ(stats->result_count, scan->result_count);
      if (!covered) {
        EXPECT_FALSE(stats->used_index);
        continue;
      }

      // One candidate per document, in strictly ascending doc id.
      std::vector<uint32_t> got;
      for (const FixIndex::Candidate& c : lookup->candidates) {
        if (!got.empty()) {
          EXPECT_LT(got.back(), c.key.ref.doc_id);
        }
        got.push_back(c.key.ref.doc_id);
      }
      EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()), expected);

      uint64_t producing = 0;
      for (uint32_t d : got) {
        TwigMatcher matcher(&corpus.doc(d));
        if (!matcher.Evaluate(q).empty()) ++producing;
      }
      EXPECT_TRUE(stats->used_index);
      EXPECT_EQ(stats->candidates, got.size());
      EXPECT_EQ(stats->producing, producing);
      EXPECT_EQ(stats->random_reads, got.size());
      pruned += expected.size() < first_part;
      with_results += !via_scan.empty();
    }
    EXPECT_GT(with_results, 0u);
  }
  // Some later sub-twig must drop documents the first part kept, or the
  // bitmap AND would go untested.
  EXPECT_GT(pruned, 0u);
}

// Whole-document reads and the full scan share one per-document loop: a
// depth-0 read answers as the scan does, and a read without a results
// vector counts exactly what a read with one does.
TEST_F(WholeDocumentQueryTest, DocumentLoopMatchesFullScan) {
  Corpus corpus;
  GenerateTcmd(&corpus, TcmdOptions{.seed = 3, .num_docs = 150});
  IndexOptions options;
  options.depth_limit = 0;
  options.path = dir_ + "/d0.fix";
  auto index = FixIndex::Build(&corpus, options, nullptr);
  ASSERT_TRUE(index.ok()) << index.status();
  FixQueryProcessor processor(&corpus, &*index);
  for (const char* xpath :
       {"//article[.//email]//section/p", "/article/prolog/authors/author",
        "/article/*/title", "//*/email", "//keyword", "//nosuchlabel"}) {
    SCOPED_TRACE(xpath);
    auto parsed = ParseXPath(xpath);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    TwigQuery q = std::move(parsed).value();
    q.ResolveLabels(corpus.labels());

    std::vector<NodeRef> via_index;
    auto read = processor.Execute(q, &via_index);
    ASSERT_TRUE(read.ok()) << read.status();
    auto counts_only = processor.Execute(q, nullptr);
    ASSERT_TRUE(counts_only.ok()) << counts_only.status();
    EXPECT_EQ(counts_only->candidates, read->candidates);
    EXPECT_EQ(counts_only->producing, read->producing);
    EXPECT_EQ(counts_only->result_count, read->result_count);
    EXPECT_EQ(counts_only->nodes_visited, read->nodes_visited);
    EXPECT_EQ(counts_only->random_reads, read->random_reads);

    std::vector<NodeRef> via_scan;
    auto scan = FullScanExecute(&corpus, q, &via_scan, index->num_entries());
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(via_scan, via_index);
    EXPECT_EQ(scan->result_count, read->result_count);
    EXPECT_EQ(scan->producing, read->producing);
  }
}

// The bitmap's word edges: a multi-part query that keeps every TCMD
// document keeps ids 63, 64, 127 and 128, the last two inserted after the
// build.
TEST_F(WholeDocumentQueryTest, BitmapKeepsDocsAcrossWordEdges) {
  Corpus corpus;
  FixIndex index = BuildFamily(kFamilies[0], 0, &corpus);
  auto q = ParseXPath("/article//prolog//title");
  ASSERT_TRUE(q.ok()) << q.status();
  q->ResolveLabels(corpus.labels());
  auto lookup = index.Lookup(*q);
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  ASSERT_EQ(lookup->candidates.size(), corpus.num_docs());
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    EXPECT_EQ(lookup->candidates[d].key.ref.doc_id, d);
  }
}

// Lookup's postcondition on every branch: candidates grouped by document
// in ascending doc id, holding exactly what the probe found.
TEST_F(WholeDocumentQueryTest, LookupGroupsCandidatesByAscendingDoc) {
  for (const Family& family : kFamilies) {
    for (int depth : {0, 6}) {
      SCOPED_TRACE(std::string(family.name) + " depth " +
                   std::to_string(depth));
      Corpus corpus;
      FixIndex index = BuildFamily(family, depth, &corpus);
      for (const TwigQuery& q : Queries(family, &corpus)) {
        SCOPED_TRACE(q.ToString());
        auto lookup = index.Lookup(q);
        ASSERT_TRUE(lookup.ok()) << lookup.status();
        const std::vector<FixIndex::Candidate>& c = lookup->candidates;
        for (size_t i = 1; i < c.size(); ++i) {
          EXPECT_LE(c[i - 1].key.ref.doc_id, c[i].key.ref.doc_id);
        }
        std::vector<TwigQuery> parts = DecomposeAtDescendantEdges(q);
        if (depth == 0 || !lookup->covered || parts[0].HasWildcard()) {
          continue;
        }
        // Depth-limited probe of the first part: same entries, regrouped.
        auto probe = index.Probe(parts[0]);
        ASSERT_TRUE(probe.ok()) << probe.status();
        auto refs = [](const std::vector<FixIndex::Candidate>& cs) {
          std::vector<std::pair<uint32_t, uint32_t>> out;
          for (const FixIndex::Candidate& x : cs) {
            out.emplace_back(x.key.ref.doc_id, x.key.ref.node_id);
          }
          std::sort(out.begin(), out.end());
          return out;
        };
        EXPECT_EQ(refs(c), refs(probe->candidates));
      }
    }
  }
}

}  // namespace
}  // namespace fix
