// Tests for the navigational twig matcher (the refinement engine): axis
// semantics, predicates, value constraints, result bindings,
// context-rooted evaluation, and the one-pass EvaluateFrom against the
// per-context EvaluateAt it replaces in refinement.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/corpus.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/match.h"
#include "query/xpath_parser.h"
#include "xml/parser.h"

namespace fix {
namespace {

class MatchTest : public ::testing::Test {
 protected:
  Document Parse(const std::string& xml) {
    auto doc = ParseXml(xml, &labels_);
    EXPECT_TRUE(doc.ok()) << doc.status();
    return std::move(doc).value();
  }

  TwigQuery Query(const std::string& text) {
    auto q = ParseXPath(text);
    EXPECT_TRUE(q.ok()) << q.status();
    TwigQuery query = std::move(q).value();
    query.ResolveLabels(&labels_);
    return query;
  }

  size_t Count(const Document& doc, const std::string& text) {
    TwigMatcher matcher(&doc);
    return matcher.Evaluate(Query(text)).size();
  }

  LabelTable labels_;
};

TEST_F(MatchTest, ChildAxis) {
  Document doc = Parse("<a><b/><c><b/></c></a>");
  EXPECT_EQ(Count(doc, "/a/b"), 1u);
  EXPECT_EQ(Count(doc, "/a/c/b"), 1u);
  EXPECT_EQ(Count(doc, "/a/x"), 0u);
  EXPECT_EQ(Count(doc, "/b"), 0u);  // b is not the root element
}

TEST_F(MatchTest, DescendantAxis) {
  Document doc = Parse("<a><b/><c><b/></c></a>");
  EXPECT_EQ(Count(doc, "//b"), 2u);
  EXPECT_EQ(Count(doc, "//a"), 1u);
  EXPECT_EQ(Count(doc, "//c//b"), 1u);
}

TEST_F(MatchTest, InteriorDescendant) {
  Document doc = Parse("<a><x><y><b/></y></x><b/></a>");
  EXPECT_EQ(Count(doc, "/a//b"), 2u);
  EXPECT_EQ(Count(doc, "/a/x//b"), 1u);
}

TEST_F(MatchTest, Predicates) {
  Document doc = Parse(
      "<lib><book><title/><isbn/></book><book><title/></book></lib>");
  EXPECT_EQ(Count(doc, "//book[isbn]/title"), 1u);
  EXPECT_EQ(Count(doc, "//book/title"), 2u);
  EXPECT_EQ(Count(doc, "//book[isbn][title]"), 1u);
}

TEST_F(MatchTest, PredicatePaths) {
  Document doc = Parse(
      "<r><item><mailbox><mail><text/></mail></mailbox><d/></item>"
      "<item><mailbox/><d/></item></r>");
  EXPECT_EQ(Count(doc, "//item[mailbox/mail/text]/d"), 1u);
  EXPECT_EQ(Count(doc, "//item[mailbox]/d"), 2u);
  EXPECT_EQ(Count(doc, "//item[.//text]/d"), 1u);
}

TEST_F(MatchTest, ValueEquality) {
  Document doc = Parse(
      "<dblp><inproceedings><year>1998</year><title/></inproceedings>"
      "<inproceedings><year>1999</year><title/></inproceedings></dblp>");
  EXPECT_EQ(Count(doc, "//inproceedings[year=\"1998\"]/title"), 1u);
  EXPECT_EQ(Count(doc, "//inproceedings[year=\"1997\"]/title"), 0u);
  EXPECT_EQ(Count(doc, "//inproceedings[year]/title"), 2u);
}

TEST_F(MatchTest, ResultBindingsAreDeduplicated) {
  // Two distinct b-parents share one c descendant set; result nodes must be
  // unique even when reachable through multiple bindings.
  Document doc = Parse("<a><b><b><c/></b></b></a>");
  EXPECT_EQ(Count(doc, "//b//c"), 1u);
}

TEST_F(MatchTest, ExistsMatchesEvaluate) {
  Document doc = Parse("<a><b><c/></b></a>");
  TwigMatcher matcher(&doc);
  EXPECT_FALSE(matcher.Evaluate(Query("//b/c")).empty());
  EXPECT_TRUE(matcher.Evaluate(Query("//c/b")).empty());
}

TEST_F(MatchTest, EvaluateAtBindsContext) {
  Document doc = Parse("<a><s><n/></s><s><m/></s></a>");
  TwigQuery q = Query("//s/n");
  TwigMatcher matcher(&doc);
  // Locate the two s elements.
  NodeId root = doc.root_element();
  NodeId s1 = doc.first_child(root);
  NodeId s2 = doc.next_sibling(s1);
  EXPECT_FALSE(matcher.EvaluateAt(s1, q).empty());
  EXPECT_TRUE(matcher.EvaluateAt(s2, q).empty());
  // Context label must match the root step.
  EXPECT_TRUE(matcher.EvaluateAt(root, q).empty());
}

TEST_F(MatchTest, NewQueryResetsMemo) {
  Document doc = Parse("<a><b/></a>");
  TwigMatcher matcher(&doc);
  TwigQuery q1 = Query("//a[b]");
  TwigQuery q2 = Query("//a[c]");
  NodeId root = doc.root_element();
  EXPECT_FALSE(matcher.EvaluateAt(root, q1).empty());
  matcher.NewQuery();
  EXPECT_TRUE(matcher.EvaluateAt(root, q2).empty());
}

TEST_F(MatchTest, RecursiveLabelsDeepNesting) {
  Document doc = Parse("<S><S><NP/><S><NP><PP/></NP></S></S></S>");
  EXPECT_EQ(Count(doc, "//S/NP"), 2u);
  EXPECT_EQ(Count(doc, "//S//NP"), 2u);
  EXPECT_EQ(Count(doc, "//S/S/NP[PP]"), 1u);
  EXPECT_EQ(Count(doc, "//NP[PP]"), 1u);
}

TEST_F(MatchTest, TextNodesNeverBindSteps) {
  Document doc = Parse("<a>b<b/></a>");  // text "b" plus element <b>
  EXPECT_EQ(Count(doc, "//a/b"), 1u);
}

TEST_F(MatchTest, NodesVisitedGrowsWithWork) {
  Document doc = Parse("<a><b/><b/><b/><b/></a>");
  TwigMatcher matcher(&doc);
  matcher.Evaluate(Query("//b"));
  EXPECT_GT(matcher.nodes_visited(), 0u);
}

TEST_F(MatchTest, UnknownLabelNeverMatches) {
  Document doc = Parse("<a><b/></a>");
  EXPECT_EQ(Count(doc, "//zzz"), 0u);
}

TEST_F(MatchTest, EvaluateFromNestedContexts) {
  // Nested s contexts: the outer one's // walk covers the inner one, and
  // each reaches n through a different chain.
  Document doc = Parse("<s><s><n/></s><x><n/></x><m/></s>");
  TwigQuery q = Query("//s//n");
  std::vector<NodeId> contexts;
  for (NodeId n = 1; n < doc.num_nodes(); ++n) {
    if (doc.IsElement(n)) contexts.push_back(n);
  }
  TwigMatcher matcher(&doc);
  TwigMatcher::PassStats pass;
  std::vector<NodeId> got = matcher.EvaluateFrom(contexts, q, false, &pass);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(pass.contexts, 2u);  // the two s elements
  EXPECT_EQ(pass.producing, 2u);
  EXPECT_EQ(pass.frontier, 4u);  // 2 s + 2 n
  // Rooted: only the outer s sits under the document node.
  TwigQuery rooted = Query("/s/n");
  TwigMatcher rooted_matcher(&doc);
  EXPECT_TRUE(rooted_matcher.EvaluateFrom(contexts, rooted, true, &pass)
                  .empty());
  EXPECT_EQ(pass.contexts, 1u);
  EXPECT_EQ(pass.producing, 0u);
}

// EvaluateFrom over a context set must equal the per-context EvaluateAt
// loop it replaces, run once per distinct context: the sorted union of the
// results, the number of contexts with a non-empty result (rst), and no
// more matcher work.
struct FromCase {
  const char* name;
  std::function<void(Corpus*)> generate;
};

// Without this, gtest prints the case as raw bytes, which include the
// address of `name` and so give the listed test a different name on every
// run under address-space randomisation.
void PrintTo(const FromCase& c, std::ostream* os) { *os << c.name; }

class EvaluateFromTest : public ::testing::TestWithParam<FromCase> {};

TEST_P(EvaluateFromTest, EqualsUnionOfEvaluateAt) {
  Corpus corpus;
  GetParam().generate(&corpus);
  ASSERT_GT(corpus.num_docs(), 0u);

  std::vector<TwigQuery> queries;
  QueryGenOptions qopts;
  qopts.seed = 17;
  for (TwigQuery& q : GenerateRandomQueries(corpus, 20, qopts)) {
    // The generator emits / below the root; a //-everywhere twin drives
    // the descendant steps and nested frontiers on the same labels.
    TwigQuery twin = q;
    for (uint32_t i = 0; i < twin.steps.size(); ++i) {
      if (i != twin.root) twin.steps[i].axis = Axis::kDescendant;
    }
    queries.push_back(std::move(q));
    queries.push_back(std::move(twin));
  }
  qopts.rooted = true;
  qopts.seed = 18;
  for (TwigQuery& q : GenerateRandomQueries(corpus, 8, qopts)) {
    queries.push_back(std::move(q));
  }
  for (const char* text : {"//*", "//*/*", "//*[*]/*", "/*/*", "//*//*[*]",
                           "/*//*"}) {
    auto q = ParseXPath(text);
    ASSERT_TRUE(q.ok()) << text;
    q->ResolveLabels(corpus.labels());
    queries.push_back(std::move(q).value());
  }
  ASSERT_GT(queries.size(), 40u);

  Rng rng(GetParam().name[0]);
  size_t nonempty = 0;
  for (const TwigQuery& q : queries) {
    SCOPED_TRACE(q.ToString());
    const bool rooted = q.steps[q.root].axis == Axis::kChild;
    const QueryStep& root = q.steps[q.root];
    for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
      const Document& doc = corpus.doc(d);
      // Context sets: empty, every element, a random third of them in
      // random order with repeats, the elements whose label the root step
      // rejects, every node, and a few random elements in random order
      // with a repeat.
      std::vector<std::vector<NodeId>> sets(6);
      for (NodeId n = 1; n < doc.num_nodes(); ++n) {
        sets[4].push_back(n);
        if (!doc.IsElement(n)) continue;
        sets[1].push_back(n);
        if (rng.Uniform(3) == 0) sets[2].push_back(n);
        if (rng.Uniform(200) == 0) sets[5].push_back(n);
        if (!root.wildcard && doc.label(n) != root.label) {
          sets[3].push_back(n);
        }
      }
      for (size_t k : {2, 5}) {
        std::vector<NodeId>& set = sets[k];
        if (!set.empty()) set.push_back(set[rng.Uniform(set.size())]);
        for (size_t i = set.size(); i > 1; --i) {
          std::swap(set[i - 1], set[rng.Uniform(i)]);
        }
      }
      for (size_t k = 0; k < sets.size(); ++k) {
        SCOPED_TRACE("doc " + std::to_string(d) + " set " +
                     std::to_string(k));
        TwigMatcher per_context(&doc);
        std::set<NodeId> expect;
        uint64_t expect_producing = 0;
        for (NodeId c : std::set<NodeId>(sets[k].begin(), sets[k].end())) {
          if (rooted && doc.parent(c) != 0) continue;
          std::vector<NodeId> bindings = per_context.EvaluateAt(c, q);
          if (!bindings.empty()) ++expect_producing;
          expect.insert(bindings.begin(), bindings.end());
        }

        TwigMatcher one_pass(&doc);
        TwigMatcher::PassStats pass;
        std::vector<NodeId> got =
            one_pass.EvaluateFrom(sets[k], q, rooted, &pass);
        ASSERT_EQ(got, std::vector<NodeId>(expect.begin(), expect.end()));
        EXPECT_EQ(pass.producing, expect_producing);
        EXPECT_LE(pass.producing, pass.contexts);
        EXPECT_LE(pass.contexts, pass.frontier);
        EXPECT_LE(one_pass.nodes_visited(), per_context.nodes_visited());
        if (!got.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, EvaluateFromTest,
    ::testing::Values(
        FromCase{"tcmd",
                 [](Corpus* c) {
                   TcmdOptions o;
                   o.num_docs = 12;
                   GenerateTcmd(c, o);
                 }},
        FromCase{"dblp",
                 [](Corpus* c) {
                   DblpOptions o;
                   o.num_publications = 120;
                   GenerateDblp(c, o);
                 }},
        FromCase{"xmark",
                 [](Corpus* c) {
                   XMarkOptions o;
                   o.num_items = 12;
                   o.num_people = 12;
                   o.num_open_auctions = 12;
                   o.num_closed_auctions = 12;
                   o.num_categories = 6;
                   GenerateXMark(c, o);
                 }},
        FromCase{"treebank",
                 [](Corpus* c) {
                   TreebankOptions o;
                   o.num_sentences = 40;
                   GenerateTreebank(c, o);
                 }}),
    [](const ::testing::TestParamInfo<FromCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fix
