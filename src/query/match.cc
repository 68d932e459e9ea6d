#include "query/match.h"

#include <algorithm>

namespace fix {

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

std::vector<NodeId> TwigMatcher::MainPathFrontier(std::vector<NodeId> frontier,
                                                  const TwigQuery& q) {
  uint32_t step = q.root;
  while (!frontier.empty() && q.steps[step].main_child >= 0) {
    uint32_t next = q.steps[step].children[q.steps[step].main_child];
    Axis axis = q.steps[next].axis;
    std::vector<NodeId> expanded;
    for (NodeId node : frontier) {
      if (axis == Axis::kChild) {
        for (NodeId c = doc_->first_child(node); c != kInvalidNode;
             c = doc_->next_sibling(c)) {
          if (doc_->IsElement(c) && SatisfiesLocal(c, q, next)) {
            expanded.push_back(c);
          }
        }
      } else {
        std::vector<NodeId> stack;
        for (NodeId c = doc_->first_child(node); c != kInvalidNode;
             c = doc_->next_sibling(c)) {
          if (doc_->IsElement(c)) stack.push_back(c);
        }
        while (!stack.empty()) {
          NodeId n = stack.back();
          stack.pop_back();
          if (SatisfiesLocal(n, q, next)) expanded.push_back(n);
          for (NodeId c = doc_->first_child(n); c != kInvalidNode;
               c = doc_->next_sibling(c)) {
            if (doc_->IsElement(c)) stack.push_back(c);
          }
        }
      }
    }
    std::sort(expanded.begin(), expanded.end());
    expanded.erase(std::unique(expanded.begin(), expanded.end()),
                   expanded.end());
    frontier = std::move(expanded);
    step = next;
  }
  return frontier;
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

bool TwigMatcher::Exists(const TwigQuery& q) { return !Evaluate(q).empty(); }

std::vector<NodeId> TwigMatcher::EvaluateAt(NodeId context,
                                            const TwigQuery& q) {
  std::vector<NodeId> frontier;
  if (SatisfiesLocal(context, q, q.root)) frontier.push_back(context);
  return MainPathFrontier(std::move(frontier), q);
}

bool TwigMatcher::ExistsAt(NodeId context, const TwigQuery& q) {
  return !EvaluateAt(context, q).empty();
}

}  // namespace fix
