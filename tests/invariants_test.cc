// Structural-invariant property tests over generator-produced corpora:
//  * bisimulation graphs are canonical DAGs (sorted deduplicated children,
//    bottom-up ids, exact depths, unique signatures, fully reachable);
//  * Theorem 2 (structure preservation): a twig query matches a document
//    iff its twig pattern matches the document's bisimulation graph;
//  * F&B graphs are true forward+backward-stable partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/bytes.h"
#include "core/corpus.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "graph/bisim_builder.h"
#include "graph/fb_graph.h"
#include "query/match.h"

namespace fix {
namespace {

Corpus SmallCorpus(int which) {
  Corpus corpus;
  switch (which) {
    case 0: {
      TcmdOptions o;
      o.num_docs = 25;
      GenerateTcmd(&corpus, o);
      break;
    }
    case 1: {
      XMarkOptions o;
      o.num_items = 18;
      o.num_people = 18;
      o.num_open_auctions = 18;
      o.num_closed_auctions = 18;
      o.num_categories = 9;
      GenerateXMark(&corpus, o);
      break;
    }
    default: {
      TreebankOptions o;
      o.num_sentences = 60;
      GenerateTreebank(&corpus, o);
      break;
    }
  }
  return corpus;
}

class InvariantsTest : public ::testing::TestWithParam<int> {};

TEST_P(InvariantsTest, BisimGraphIsCanonicalDag) {
  Corpus corpus = SmallCorpus(GetParam());
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    auto graph = BuildBisimGraph(corpus.doc(d), d);
    ASSERT_TRUE(graph.ok());
    std::set<std::pair<LabelId, std::vector<BisimVertexId>>> signatures;
    std::vector<bool> reachable(graph->num_vertices(), false);
    std::vector<BisimVertexId> stack{graph->root()};
    while (!stack.empty()) {
      BisimVertexId v = stack.back();
      stack.pop_back();
      if (reachable[v]) continue;
      reachable[v] = true;
      for (BisimVertexId c : graph->vertex(v).children) stack.push_back(c);
    }
    for (BisimVertexId v = 0; v < graph->num_vertices(); ++v) {
      const BisimVertex& vert = graph->vertex(v);
      // Children are sorted, deduplicated, and created before the parent
      // (bottom-up construction => the graph is trivially acyclic).
      EXPECT_TRUE(std::is_sorted(vert.children.begin(), vert.children.end()));
      EXPECT_EQ(std::adjacent_find(vert.children.begin(), vert.children.end()),
                vert.children.end());
      int expected_depth = 1;
      for (BisimVertexId c : vert.children) {
        EXPECT_LT(c, v);
        expected_depth =
            std::max(expected_depth, graph->vertex(c).depth + 1);
      }
      EXPECT_EQ(vert.depth, expected_depth);
      // Signatures (label + child set) are unique: hash-consing worked.
      EXPECT_TRUE(
          signatures.emplace(vert.label, vert.children).second)
          << "duplicate signature";
      EXPECT_TRUE(reachable[v]) << "orphan vertex " << v;
    }
  }
}

/// Definition 4 matcher: does the twig pattern of `q` match the
/// bisimulation graph? (Existential homomorphism, memoized.)
class PatternMatcher {
 public:
  PatternMatcher(const BisimGraph* graph, const TwigQuery* q)
      : graph_(graph), q_(q),
        memo_(q->steps.size(),
              std::vector<int8_t>(graph->num_vertices(), -1)) {}

  bool MatchesAnywhere() {
    for (BisimVertexId v = 0; v < graph_->num_vertices(); ++v) {
      if (Matches(q_->root, v)) return true;
    }
    return false;
  }

 private:
  bool Matches(uint32_t step, BisimVertexId v) {
    int8_t& memo = memo_[step][v];
    if (memo >= 0) return memo == 1;
    const QueryStep& s = q_->steps[step];
    bool ok = graph_->vertex(v).label == s.label;
    for (size_t i = 0; ok && i < s.children.size(); ++i) {
      uint32_t child_step = s.children[i];
      bool found = false;
      for (BisimVertexId c : graph_->vertex(v).children) {
        if (Matches(child_step, c)) {
          found = true;
          break;
        }
      }
      ok = found;
    }
    memo = ok ? 1 : 0;
    return ok;
  }

  const BisimGraph* graph_;
  const TwigQuery* q_;
  std::vector<std::vector<int8_t>> memo_;
};

TEST_P(InvariantsTest, Theorem2StructurePreservation) {
  Corpus corpus = SmallCorpus(GetParam());
  QueryGenOptions qopts;
  qopts.seed = 313 + GetParam();
  qopts.max_depth = 4;
  auto queries = GenerateRandomQueries(corpus, 40, qopts);
  ASSERT_GT(queries.size(), 10u);

  // Also throw in queries that should NOT match anywhere.
  {
    Corpus& c = corpus;
    TwigQuery bogus;
    bogus.steps.resize(2);
    bogus.steps[0].name = "article";
    bogus.steps[0].label = c.labels()->Intern("article");
    bogus.steps[0].axis = Axis::kDescendant;
    bogus.steps[0].children = {1};
    bogus.steps[0].main_child = 0;
    bogus.steps[1].name = "open_auction";
    bogus.steps[1].label = c.labels()->Intern("open_auction");
    bogus.steps[1].axis = Axis::kChild;
    bogus.root = 0;
    bogus.result = 1;
    queries.push_back(bogus);
  }

  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    auto graph = BuildBisimGraph(corpus.doc(d), d);
    ASSERT_TRUE(graph.ok());
    TwigMatcher matcher(&corpus.doc(d));
    for (const auto& q : queries) {
      if (!q.IsPureTwig()) continue;
      bool on_tree = !matcher.Evaluate(q).empty();
      PatternMatcher pattern_matcher(&*graph, &q);
      bool on_graph = pattern_matcher.MatchesAnywhere();
      EXPECT_EQ(on_tree, on_graph)
          << "Theorem 2 violated for " << q.ToString() << " on doc " << d;
    }
  }
}

TEST_P(InvariantsTest, FbGraphIsStablePartition) {
  Corpus corpus = SmallCorpus(GetParam());
  std::vector<const Document*> docs;
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    docs.push_back(&corpus.doc(d));
  }
  auto graph = FbGraph::Build(docs);
  ASSERT_TRUE(graph.ok());

  // Recover each node's class from the extents.
  std::map<std::pair<uint32_t, NodeId>, FbClassId> cls;
  uint64_t extent_total = 0;
  for (FbClassId c = 0; c < graph->num_classes(); ++c) {
    for (const NodeRef& ref : graph->cls(c).extent) {
      auto [it, inserted] = cls.emplace(
          std::make_pair(ref.doc_id, ref.node_id), c);
      EXPECT_TRUE(inserted) << "node in two classes";
      ++extent_total;
    }
  }
  EXPECT_EQ(extent_total, graph->TotalExtent());

  // Stability: same class => same label, parent classes equal, child class
  // sets equal.
  for (FbClassId c = 0; c < graph->num_classes(); ++c) {
    const FbClass& fc = graph->cls(c);
    std::set<FbClassId> expected_children;
    FbClassId expected_parent = UINT32_MAX;
    bool first = true;
    for (const NodeRef& ref : fc.extent) {
      const Document& doc = corpus.doc(ref.doc_id);
      EXPECT_EQ(doc.label(ref.node_id), fc.label);
      FbClassId parent_cls =
          ref.node_id == 0
              ? UINT32_MAX
              : cls.at({ref.doc_id, doc.parent(ref.node_id)});
      std::set<FbClassId> children;
      for (NodeId ch = doc.first_child(ref.node_id); ch != kInvalidNode;
           ch = doc.next_sibling(ch)) {
        if (!doc.IsElement(ch)) continue;
        children.insert(cls.at({ref.doc_id, ch}));
      }
      if (first) {
        expected_parent = parent_cls;
        expected_children = children;
        first = false;
      } else {
        EXPECT_EQ(parent_cls, expected_parent) << "backward instability";
        EXPECT_EQ(children, expected_children) << "forward instability";
      }
    }
  }
}

// NB: no braced initializers inside the macro — commas inside braces split
// macro arguments.
INSTANTIATE_TEST_SUITE_P(Generators, InvariantsTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(info.param == 0   ? "tcmd"
                                              : info.param == 1 ? "xmark"
                                                                : "treebank");
                         });

}  // namespace
}  // namespace fix
