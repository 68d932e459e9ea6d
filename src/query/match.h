// TwigMatcher: navigational twig-query evaluation over a Document.
//
// This plays the role of the NoK physical operator [32] in the paper's
// architecture (Figure 3): it is the *refinement* query processor run on
// the candidates FIX returns, and — run over every document without an
// index — the no-index baseline of Section 6.3.
//
// Semantics follow Definition 2: the query root binds under the document
// node; / steps bind to children, // steps to descendants; a step matches a
// node iff labels agree, its value constraint (if any) equals the node's
// text content, and every child step is satisfied below. Matching is
// memoized per (node, step), making evaluation linear in |doc|·|query| per
// call.

#ifndef FIX_QUERY_MATCH_H_
#define FIX_QUERY_MATCH_H_

#include <cstdint>
#include <vector>

#include "query/twig_query.h"
#include "xml/document.h"

namespace fix {

class TwigMatcher {
 public:
  explicit TwigMatcher(const Document* doc) : doc_(doc) {}

  /// All bindings of the result step, document-node context. Sorted,
  /// deduplicated.
  std::vector<NodeId> Evaluate(const TwigQuery& q);

  /// Result bindings when `context` is forced to bind the root step
  /// (Algorithm 2: after index lookup the leading //-axis is replaced by /
  /// and evaluation starts at each candidate element).
  std::vector<NodeId> EvaluateAt(NodeId context, const TwigQuery& q);

  /// What one EvaluateFrom pass saw.
  struct PassStats {
    uint64_t contexts = 0;   ///< contexts that bound the root step
    uint64_t frontier = 0;   ///< sum of the main-path frontier sizes
    uint64_t producing = 0;  ///< contexts whose EvaluateAt is non-empty
  };

  /// The union of EvaluateAt over `contexts` (any order, repeats allowed),
  /// in one pass: the contexts that bind the root step — and, when `rooted`,
  /// sit directly under the document node — form the first frontier, in
  /// node order, and each main-path step then runs once over the whole
  /// frontier. Sorted, deduplicated.
  /// `stats` gets what the pass saw, including the number of producing
  /// contexts, counted by a backward pass over the kept frontiers (not
  /// matcher work, so not in nodes_visited).
  std::vector<NodeId> EvaluateFrom(const std::vector<NodeId>& contexts,
                                   const TwigQuery& q, bool rooted,
                                   PassStats* stats);

  /// EvaluateAt/EvaluateFrom share the (node, step) memo across calls for
  /// one query; call this before switching to a different query on the same
  /// matcher. Evaluate() resets automatically.
  void NewQuery() { memo_.clear(); }

  /// Work counter: nodes touched by matching since construction (the
  /// implementation-independent cost proxy used in reports).
  uint64_t nodes_visited() const { return nodes_visited_; }

 private:
  /// Label + value + *predicate* children (main-path continuation excluded).
  bool SatisfiesLocal(NodeId node, const TwigQuery& q, uint32_t step);

  /// Full subtree satisfaction including the main-path child.
  bool Satisfies(NodeId node, const TwigQuery& q, uint32_t step);

  bool ExistsUnder(NodeId node, const TwigQuery& q, uint32_t step, Axis axis);

  /// Nodes reached from `frontier` along main-path step `step` (its axis)
  /// that satisfy the step locally. Sorted, deduplicated.
  std::vector<NodeId> MainPathStep(const std::vector<NodeId>& frontier,
                                   const TwigQuery& q, uint32_t step);

  /// Runs the main path below the root step; `frontier` binds the root.
  /// Returns the last frontier; `kept` (optional) receives every frontier
  /// before it, the root's first.
  std::vector<NodeId> MainPathFrontier(
      std::vector<NodeId> frontier, const TwigQuery& q,
      std::vector<std::vector<NodeId>>* kept = nullptr);

  /// Counts the nodes of the root frontier with a full main-path chain down
  /// to `last`, given MainPathFrontier's `above` and result.
  uint64_t CountProducing(const std::vector<std::vector<NodeId>>& above,
                          const std::vector<NodeId>& last,
                          const TwigQuery& q);

  const Document* doc_;
  /// Per-step memo over nodes: 0 = unknown, 1 = satisfied, 2 = not.
  /// Flat arrays beat a hash map by several times in the matching inner
  /// loop; lazily allocated per step on first touch.
  std::vector<std::vector<uint8_t>> memo_;
  uint64_t nodes_visited_ = 0;
  /// CountProducing's per-node scratch: one array per matcher, reused across
  /// frontiers by advancing `mark_epoch_` instead of clearing.
  std::vector<uint8_t> mark_;
  uint8_t mark_epoch_ = 0;
};

}  // namespace fix

#endif  // FIX_QUERY_MATCH_H_
