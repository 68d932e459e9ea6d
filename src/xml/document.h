// Document: an arena-allocated DOM for one XML document.
//
// Nodes live in a flat vector and refer to each other by 32-bit ids
// (first-child / next-sibling / parent), which keeps the tree compact and
// cache-friendly — the refinement engine traverses these trees in inner
// loops. Node 0 is always the synthetic document node (label "#doc"),
// matching Definition 2's "the root of the twig query matches the document
// node".

#ifndef FIX_XML_DOCUMENT_H_
#define FIX_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "xml/label_table.h"

namespace fix {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Node kinds. Attributes are parsed but kept out of the node tree (they are
/// not indexed by FIX); text nodes participate when value indexing is on.
enum class NodeKind : uint8_t { kElement = 0, kText = 1 };

/// A reference into the corpus' primary storage: which document, which node.
/// This is the "pointer" stored as the value of unclustered index entries.
struct NodeRef {
  uint32_t doc_id = 0;
  NodeId node_id = 0;

  bool operator==(const NodeRef&) const = default;
};

class Document {
 public:
  struct Node {
    LabelId label = kInvalidLabel;   // element name or value label
    NodeKind kind = NodeKind::kElement;
    NodeId parent = kInvalidNode;
    NodeId first_child = kInvalidNode;
    NodeId next_sibling = kInvalidNode;
    uint32_t text = UINT32_MAX;      // index into text pool (text nodes only)
  };

  struct Attribute {
    NodeId owner;        // element the attribute belongs to
    std::string name;
    std::string value;
  };

  Document() {
    Node doc_node;
    doc_node.label = LabelTable::DocumentLabel();
    nodes_.push_back(doc_node);
  }

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  // -- construction (used by the parser, deserializer, and generators) ------

  /// Appends an element child under `parent` and returns its id.
  NodeId AddElement(NodeId parent, LabelId label) {
    return AddNode(parent, label, NodeKind::kElement, UINT32_MAX);
  }

  /// Appends a text child under `parent`. `label` is the (possibly hashed)
  /// value label; the raw text is retained for refinement-time comparison.
  NodeId AddText(NodeId parent, LabelId label, std::string_view text) {
    uint32_t text_idx = static_cast<uint32_t>(texts_.size());
    texts_.emplace_back(text);
    return AddNode(parent, label, NodeKind::kText, text_idx);
  }

  void AddAttribute(NodeId owner, std::string name, std::string value) {
    attributes_.push_back({owner, std::move(name), std::move(value)});
  }

  /// Frees the append scratch (one NodeId per node) once construction is
  /// done; Corpus::AddDocument calls it. Appending afterwards stays correct:
  /// it walks the parent's child chain where no cached last child is left.
  void ReleaseConstructionScratch() {
    std::vector<NodeId>().swap(last_child_);
  }

  // -- accessors -------------------------------------------------------------

  const Node& node(NodeId id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  LabelId label(NodeId id) const { return nodes_[id].label; }
  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  NodeId first_child(NodeId id) const { return nodes_[id].first_child; }
  NodeId next_sibling(NodeId id) const { return nodes_[id].next_sibling; }

  bool IsElement(NodeId id) const {
    return nodes_[id].kind == NodeKind::kElement;
  }
  bool IsText(NodeId id) const { return nodes_[id].kind == NodeKind::kText; }

  const std::string& text(NodeId id) const {
    FIX_CHECK(IsText(id));
    return texts_[nodes_[id].text];
  }

  /// The root *element* (first element child of the document node), or
  /// kInvalidNode for an empty document.
  NodeId root_element() const {
    for (NodeId c = first_child(0); c != kInvalidNode; c = next_sibling(c)) {
      if (IsElement(c)) return c;
    }
    return kInvalidNode;
  }

  /// Number of element nodes, excluding the synthetic document node (the
  /// paper's "# elements" statistic).
  size_t CountElements() const;

  /// Depth of the subtree rooted at `id`, counting `id` itself as level 1.
  /// Depth of the whole document = Depth(root_element()).
  int Depth(NodeId id) const;

  /// Concatenated text content directly under `id` (child text nodes only),
  /// used for value-equality refinement.
  std::string ChildText(NodeId id) const;

  /// Total bytes of text payload (for size statistics).
  size_t TextBytes() const {
    size_t n = 0;
    for (const auto& t : texts_) n += t.size();
    return n;
  }

 private:
  NodeId AddNode(NodeId parent, LabelId label, NodeKind kind, uint32_t text) {
    FIX_CHECK(parent < nodes_.size());
    NodeId id = static_cast<NodeId>(nodes_.size());
    Node n;
    n.label = label;
    n.kind = kind;
    n.parent = parent;
    n.text = text;
    nodes_.push_back(n);
    // Append at the end of the parent's child list, preserving document
    // order. last_child_ scratch avoids O(children) appends.
    if (parent >= last_child_.size()) last_child_.resize(parent + 1, kInvalidNode);
    NodeId last = last_child_[parent];
    if (last == kInvalidNode || nodes_[last].parent != parent) {
      // No cached last child (or stale cache): walk the chain.
      NodeId c = nodes_[parent].first_child;
      if (c == kInvalidNode) {
        nodes_[parent].first_child = id;
      } else {
        while (nodes_[c].next_sibling != kInvalidNode) c = nodes_[c].next_sibling;
        nodes_[c].next_sibling = id;
      }
    } else {
      nodes_[last].next_sibling = id;
    }
    last_child_[parent] = id;
    return id;
  }

  std::vector<Node> nodes_;
  std::vector<std::string> texts_;
  std::vector<Attribute> attributes_;
  std::vector<NodeId> last_child_;  // construction scratch; see above
};

}  // namespace fix

#endif  // FIX_XML_DOCUMENT_H_
