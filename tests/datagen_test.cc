// Tests for the synthetic data generators: determinism, the structural
// signatures the paper's analysis relies on, and the random query
// generator.

#include <gtest/gtest.h>

#include <set>

#include "core/corpus.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/match.h"
#include "query/xpath_parser.h"
#include "xml/doc_stats.h"

namespace fix {
namespace {

size_t CountMatches(const Corpus& corpus, const std::string& text) {
  auto parsed = ParseXPath(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  TwigQuery q = std::move(parsed).value();
  size_t n = 0;
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    TwigQuery local = q;
    local.ResolveLabels(const_cast<Corpus&>(corpus).labels());
    TwigMatcher matcher(&corpus.doc(d));
    n += matcher.Evaluate(local).size();
  }
  return n;
}

TEST(TcmdGenTest, ShapeAndDeterminism) {
  Corpus c1, c2;
  TcmdOptions options;
  options.num_docs = 50;
  GenerateTcmd(&c1, options);
  GenerateTcmd(&c2, options);
  ASSERT_EQ(c1.num_docs(), 50u);
  EXPECT_EQ(c1.TotalElements(), c2.TotalElements());  // deterministic
  // Every document is a small article; depth is uniform and small.
  for (uint32_t d = 0; d < c1.num_docs(); ++d) {
    const Document& doc = c1.doc(d);
    EXPECT_EQ(c1.labels()->Name(doc.label(doc.root_element())), "article");
    int depth = doc.Depth(doc.root_element());
    EXPECT_GE(depth, 4);
    EXPECT_LE(depth, 8);
  }
  // The representative queries must hit a sensible fraction of docs.
  EXPECT_GT(CountMatches(c1, "/article[epilog]/prolog/authors/author"), 0u);
  EXPECT_GT(CountMatches(
                c1, "/article/prolog[keywords]/authors/author/contact[phone]"),
            0u);
}

TEST(DblpGenTest, ShallowAndRegular) {
  Corpus corpus;
  DblpOptions options;
  options.num_publications = 500;
  GenerateDblp(&corpus, options);
  ASSERT_EQ(corpus.num_docs(), 1u);
  const Document& doc = corpus.doc(0);
  DocStats stats = ComputeDocStats(doc, *corpus.labels());
  EXPECT_LE(stats.max_depth, 5);  // dblp/pub/title/i/text()
  EXPECT_GT(stats.elements, 2000u);
  // The paper's query vocabulary must be live.
  EXPECT_GT(CountMatches(corpus, "//inproceedings/title"), 0u);
  EXPECT_GT(CountMatches(corpus, "//article[number]/author"), 0u);
  EXPECT_GT(CountMatches(corpus, "//proceedings[publisher=\"Springer\"]"),
            0u);
  // Selectivity ordering: [url]/title common, [booktitle]/title[sup][i]
  // rare.
  size_t lo = CountMatches(corpus, "//inproceedings[url]/title");
  size_t hi = CountMatches(corpus, "//proceedings[booktitle]/title[sup][i]");
  EXPECT_GT(lo, hi);
}

TEST(XMarkGenTest, StructureRichAuctionSite) {
  Corpus corpus;
  XMarkOptions options;
  options.num_items = 60;
  options.num_people = 60;
  options.num_open_auctions = 60;
  options.num_closed_auctions = 60;
  options.num_categories = 30;
  GenerateXMark(&corpus, options);
  ASSERT_EQ(corpus.num_docs(), 1u);
  const Document& doc = corpus.doc(0);
  EXPECT_EQ(corpus.labels()->Name(doc.label(doc.root_element())), "site");
  DocStats stats = ComputeDocStats(doc, *corpus.labels());
  EXPECT_GE(stats.max_depth, 7);  // recursive parlists go deep
  // Paper queries must be satisfiable.
  EXPECT_GT(CountMatches(corpus, "//description/parlist/listitem"), 0u);
  EXPECT_GT(CountMatches(corpus,
                         "//closed_auction/annotation/description/text"),
            0u);
  EXPECT_GT(CountMatches(corpus, "//item/mailbox/mail/text/emph/keyword"),
            0u);
  EXPECT_GT(CountMatches(
                corpus, "//open_auction[seller]/annotation/description/text"),
            0u);
}

TEST(TreebankGenTest, DeepRecursiveParses) {
  Corpus corpus;
  TreebankOptions options;
  options.num_sentences = 150;
  GenerateTreebank(&corpus, options);
  ASSERT_EQ(corpus.num_docs(), 1u);
  const Document& doc = corpus.doc(0);
  DocStats stats = ComputeDocStats(doc, *corpus.labels());
  EXPECT_GE(stats.max_depth, 10);  // deep recursion
  EXPECT_GT(CountMatches(corpus, "//EMPTY/S/VP"), 0u);
  EXPECT_GT(CountMatches(corpus, "//EMPTY/S[VP]/NP"), 0u);
  EXPECT_GT(CountMatches(corpus, "//NP[PP]"), 0u);
  // Recursion: S below S.
  EXPECT_GT(CountMatches(corpus, "//S//S"), 0u);
}

TEST(QueryGenTest, GeneratesResolvedDistinctSatisfiableQueries) {
  Corpus corpus;
  TcmdOptions options;
  options.num_docs = 20;
  GenerateTcmd(&corpus, options);
  QueryGenOptions qopts;
  qopts.seed = 3;
  auto queries = GenerateRandomQueries(corpus, 50, qopts);
  EXPECT_GT(queries.size(), 25u);
  std::set<std::string> texts;
  for (const auto& q : queries) {
    EXPECT_TRUE(q.IsPureTwig());
    EXPECT_GE(q.Depth(), 2);
    EXPECT_LE(q.Depth(), qopts.max_depth);
    for (const auto& s : q.steps) EXPECT_NE(s.label, kInvalidLabel);
    texts.insert(q.ToString());
    // Sampled from the data, so every query matches somewhere.
    bool found = false;
    for (uint32_t d = 0; d < corpus.num_docs() && !found; ++d) {
      TwigMatcher matcher(&corpus.doc(d));
      found = !matcher.Evaluate(q).empty();
    }
    EXPECT_TRUE(found) << q.ToString();
  }
  EXPECT_EQ(texts.size(), queries.size());  // distinct
}

TEST(QueryGenTest, DeterministicPerSeed) {
  Corpus corpus;
  TcmdOptions options;
  options.num_docs = 10;
  GenerateTcmd(&corpus, options);
  QueryGenOptions qopts;
  qopts.seed = 9;
  auto q1 = GenerateRandomQueries(corpus, 20, qopts);
  auto q2 = GenerateRandomQueries(corpus, 20, qopts);
  ASSERT_EQ(q1.size(), q2.size());
  for (size_t i = 0; i < q1.size(); ++i) {
    EXPECT_EQ(q1[i].ToString(), q2[i].ToString());
  }
}

}  // namespace
}  // namespace fix
