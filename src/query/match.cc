#include "query/match.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace fix {

namespace {

/// `nodes` (all < num_nodes) in ascending order, each once, through a
/// bitmap over the document: O(nodes + num_nodes / 64).
std::vector<NodeId> InNodeOrder(const std::vector<NodeId>& nodes,
                                uint32_t num_nodes) {
  std::vector<uint64_t> bits(num_nodes / 64 + 1, 0);
  for (NodeId n : nodes) bits[n / 64] |= uint64_t{1} << (n % 64);
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t m = bits[w]; m != 0; m &= m - 1) {
      out.push_back(static_cast<NodeId>(w * 64 + std::countr_zero(m)));
    }
  }
  return out;
}

}  // namespace

bool TwigMatcher::Satisfies(NodeId node, const TwigQuery& q, uint32_t step) {
  if (memo_.size() < q.steps.size()) memo_.resize(q.steps.size());
  std::vector<uint8_t>& m = memo_[step];
  if (m.empty()) m.assign(doc_->num_nodes(), 0);
  if (m[node] != 0) return m[node] == 1;
  ++nodes_visited_;

  const QueryStep& s = q.steps[step];
  bool ok = doc_->IsElement(node) &&
            (s.wildcard || doc_->label(node) == s.label);
  if (ok && s.value_eq.has_value()) {
    ok = doc_->ChildText(node) == *s.value_eq;
  }
  if (ok) {
    for (uint32_t child_step : s.children) {
      if (!ExistsUnder(node, q, child_step, q.steps[child_step].axis)) {
        ok = false;
        break;
      }
    }
  }
  m[node] = ok ? 1 : 2;
  return ok;
}

bool TwigMatcher::ExistsUnder(NodeId node, const TwigQuery& q, uint32_t step,
                              Axis axis) {
  if (axis == Axis::kChild) {
    for (NodeId c = doc_->first_child(node); c != kInvalidNode;
         c = doc_->next_sibling(c)) {
      if (doc_->IsElement(c) && Satisfies(c, q, step)) return true;
    }
    return false;
  }
  // Descendant axis: depth-first over the strict descendants.
  std::vector<NodeId> stack;
  for (NodeId c = doc_->first_child(node); c != kInvalidNode;
       c = doc_->next_sibling(c)) {
    if (doc_->IsElement(c)) stack.push_back(c);
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (Satisfies(n, q, step)) return true;
    for (NodeId c = doc_->first_child(n); c != kInvalidNode;
         c = doc_->next_sibling(c)) {
      if (doc_->IsElement(c)) stack.push_back(c);
    }
  }
  return false;
}

bool TwigMatcher::SatisfiesLocal(NodeId node, const TwigQuery& q,
                                 uint32_t step) {
  ++nodes_visited_;
  const QueryStep& s = q.steps[step];
  if (!doc_->IsElement(node)) return false;
  if (!s.wildcard && doc_->label(node) != s.label) return false;
  if (s.value_eq.has_value() && doc_->ChildText(node) != *s.value_eq) {
    return false;
  }
  for (size_t i = 0; i < s.children.size(); ++i) {
    if (static_cast<int>(i) == s.main_child) continue;
    uint32_t child_step = s.children[i];
    if (!ExistsUnder(node, q, child_step, q.steps[child_step].axis)) {
      return false;
    }
  }
  return true;
}

std::vector<NodeId> TwigMatcher::MainPathStep(
    const std::vector<NodeId>& frontier, const TwigQuery& q, uint32_t step) {
  std::vector<NodeId> expanded;
  if (q.steps[step].axis == Axis::kChild) {
    for (NodeId node : frontier) {
      for (NodeId c = doc_->first_child(node); c != kInvalidNode;
           c = doc_->next_sibling(c)) {
        if (doc_->IsElement(c) && SatisfiesLocal(c, q, step)) {
          expanded.push_back(c);
        }
      }
    }
  } else {
    std::vector<NodeId> stack;
    for (NodeId node : frontier) {
      for (NodeId c = doc_->first_child(node); c != kInvalidNode;
           c = doc_->next_sibling(c)) {
        if (doc_->IsElement(c)) stack.push_back(c);
      }
      while (!stack.empty()) {
        NodeId n = stack.back();
        stack.pop_back();
        if (SatisfiesLocal(n, q, step)) expanded.push_back(n);
        for (NodeId c = doc_->first_child(n); c != kInvalidNode;
             c = doc_->next_sibling(c)) {
          if (doc_->IsElement(c)) stack.push_back(c);
        }
      }
    }
  }
  // Parsed documents number nodes in preorder, so a / step over a sorted
  // frontier usually comes out sorted already.
  if (!std::is_sorted(expanded.begin(), expanded.end())) {
    std::sort(expanded.begin(), expanded.end());
  }
  expanded.erase(std::unique(expanded.begin(), expanded.end()),
                 expanded.end());
  return expanded;
}

std::vector<NodeId> TwigMatcher::MainPathFrontier(
    std::vector<NodeId> frontier, const TwigQuery& q,
    std::vector<std::vector<NodeId>>* kept) {
  uint32_t step = q.root;
  while (!frontier.empty() && q.steps[step].main_child >= 0) {
    step = q.steps[step].children[q.steps[step].main_child];
    std::vector<NodeId> next = MainPathStep(frontier, q, step);
    if (kept != nullptr) kept->push_back(std::move(frontier));
    frontier = std::move(next);
  }
  return frontier;
}

uint64_t TwigMatcher::CountProducing(
    const std::vector<std::vector<NodeId>>& above,
    const std::vector<NodeId>& last, const TwigQuery& q) {
  if (last.empty()) return 0;
  // steps[i] is the main-path step that frontier i binds (above[i], then
  // `last`).
  std::vector<uint32_t> steps = {q.root};
  for (size_t i = 0; i < above.size(); ++i) {
    const QueryStep& s = q.steps[steps.back()];
    steps.push_back(s.children[s.main_child]);
  }
  // Every node of the last frontier produces. Going up, a node of frontier
  // i produces iff a producing node of frontier i+1 is its child (/ step)
  // or descendant (// step): walk parent links up from each producing
  // node, stopping at a node an earlier walk of this level already passed.
  const std::vector<NodeId>* below = &last;
  std::vector<NodeId> produced;
  for (size_t i = above.size(); i-- > 0;) {
    if (mark_.size() < doc_->num_nodes() || mark_epoch_ > UINT8_MAX - 3) {
      mark_.assign(doc_->num_nodes(), 0);
      mark_epoch_ = 0;
    }
    const uint8_t member = ++mark_epoch_;     // in frontier i, not reached
    const uint8_t producing = ++mark_epoch_;  // in frontier i, reached
    const uint8_t passed = ++mark_epoch_;     // reached, not in frontier i
    for (NodeId n : above[i]) mark_[n] = member;
    const bool child_axis = q.steps[steps[i + 1]].axis == Axis::kChild;
    for (NodeId n : *below) {
      for (NodeId p = doc_->parent(n); p != kInvalidNode;
           p = doc_->parent(p)) {
        if (mark_[p] == producing || mark_[p] == passed) break;
        mark_[p] = mark_[p] == member ? producing : passed;
        if (child_axis) break;
      }
    }
    produced.clear();
    for (NodeId n : above[i]) {
      if (mark_[n] == producing) produced.push_back(n);
    }
    below = &produced;
  }
  return below->size();
}

std::vector<NodeId> TwigMatcher::Evaluate(const TwigQuery& q) {
  memo_.clear();
  std::vector<NodeId> frontier;
  const QueryStep& root = q.steps[q.root];
  if (root.axis == Axis::kChild) {
    for (NodeId c = doc_->first_child(0); c != kInvalidNode;
         c = doc_->next_sibling(c)) {
      if (doc_->IsElement(c) && SatisfiesLocal(c, q, q.root)) {
        frontier.push_back(c);
      }
    }
  } else {
    for (NodeId n = 1; n < doc_->num_nodes(); ++n) {
      if (doc_->IsElement(n) && SatisfiesLocal(n, q, q.root)) {
        frontier.push_back(n);
      }
    }
  }
  return MainPathFrontier(std::move(frontier), q);
}

std::vector<NodeId> TwigMatcher::EvaluateAt(NodeId context,
                                            const TwigQuery& q) {
  std::vector<NodeId> frontier;
  if (SatisfiesLocal(context, q, q.root)) frontier.push_back(context);
  return MainPathFrontier(std::move(frontier), q);
}

std::vector<NodeId> TwigMatcher::EvaluateFrom(
    const std::vector<NodeId>& contexts, const TwigQuery& q, bool rooted,
    PassStats* stats) {
  std::vector<NodeId> frontier;
  const std::vector<NodeId> ordered = InNodeOrder(contexts, doc_->num_nodes());
  for (NodeId c : ordered) {
    if (rooted && doc_->parent(c) != 0) continue;
    if (SatisfiesLocal(c, q, q.root)) frontier.push_back(c);
  }
  // The frontiers above the result are kept for the backward producing
  // count.
  std::vector<std::vector<NodeId>> above;
  std::vector<NodeId> last = MainPathFrontier(std::move(frontier), q, &above);
  stats->contexts = above.empty() ? last.size() : above.front().size();
  stats->frontier = last.size();
  for (const std::vector<NodeId>& f : above) stats->frontier += f.size();
  stats->producing = CountProducing(above, last, q);
  return last;
}

}  // namespace fix
