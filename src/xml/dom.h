#ifndef WEBDEX_XML_DOM_H_
#define WEBDEX_XML_DOM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace webdex::xml {

/// Structural node identifier: the (pre, post, depth) scheme of
/// Al-Khalifa et al. [3], used by the LUI / 2LUPI strategies (paper
/// Section 5).  For nodes n1, n2 of the same document:
///   * n1 is an ancestor of n2  iff  n1.pre < n2.pre and n1.post > n2.post
///   * additionally n1 is n2's parent  iff  n1.depth + 1 == n2.depth
struct NodeId {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t depth = 0;

  bool IsAncestorOf(const NodeId& other) const {
    return pre < other.pre && post > other.post;
  }
  bool IsParentOf(const NodeId& other) const {
    return IsAncestorOf(other) && depth + 1 == other.depth;
  }

  friend bool operator==(const NodeId&, const NodeId&) = default;
  /// Document order == pre order.
  friend auto operator<=>(const NodeId& a, const NodeId& b) {
    return a.pre <=> b.pre;
  }

  std::string ToString() const;  // "(pre, post, depth)"
};

enum class NodeKind : uint8_t {
  kElement,
  kAttribute,  // label = attribute name, value = attribute value
  kText,       // value = character data
};

/// The parent index of a document's root.
inline constexpr uint32_t kNoParent = UINT32_MAX;

/// One node of a Document: a fixed-width record in the document's node
/// array, which holds every node in pre order (elements, attributes and
/// text nodes, so word occurrences have positions).  The node at index i
/// has pre = i + 1, and its subtree is the index range [i, end()).  Its
/// label and value live in the document's text buffer and are read
/// through the Document.
class Node {
 public:
  NodeKind kind() const { return static_cast<NodeKind>(kind_label_ >> 30); }
  bool is_element() const { return kind() == NodeKind::kElement; }
  bool is_attribute() const { return kind() == NodeKind::kAttribute; }
  bool is_text() const { return kind() == NodeKind::kText; }

  const NodeId& id() const { return id_; }
  /// Position in the document's node array: pre - 1.
  uint32_t index() const { return id_.pre - 1; }
  /// Index of the parent element; kNoParent on the root.
  uint32_t parent() const { return parent_; }
  /// One past the index of the subtree's last node.
  uint32_t end() const { return end_; }
  /// The document's id for this node's (kind, label), below
  /// Document::label_count(); meaningless on text nodes.
  uint32_t label_id() const { return kind_label_ & kLabelMask; }

 private:
  friend class Document;
  friend class DocumentWriter;
  static constexpr uint32_t kLabelMask = (1u << 30) - 1;

  NodeId id_;
  uint32_t parent_ = kNoParent;
  uint32_t end_ = 0;
  uint32_t kind_label_ = 0;  // kind in the top two bits, label id below
  uint32_t value_begin_ = 0;
  uint32_t value_size_ = 0;
};

/// A parsed XML document: URI (its S3 object name), nodes, and the
/// serialized size used by the cost model's data metrics (Section 7.1).
///
/// Layout: one exactly-sized array of nodes in pre order, one text
/// buffer holding every attribute value and text node's character data
/// followed by each distinct label once, and the label streams.  Nodes
/// never move once the document is built, and moving a Document keeps
/// its buffers, so `const Node*` and the views this class returns stay
/// valid for the document's lifetime.
class Document {
 public:
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  const std::string& uri() const { return uri_; }
  size_t size_bytes() const { return size_bytes_; }
  /// Bytes the document holds on the heap: its node array, text buffer,
  /// label streams, label table and URI.
  size_t heap_bytes() const;

  /// Every node, in pre order (document order).
  std::span<const Node> nodes() const { return nodes_; }
  const Node& root() const { return nodes_.front(); }
  /// The parent element, or nullptr on the root.
  const Node* parent(const Node& node) const {
    return node.parent() == kNoParent ? nullptr : &nodes_[node.parent()];
  }
  /// The subtree rooted at `node` in pre order, `node` first.
  std::span<const Node> subtree(const Node& node) const {
    return std::span<const Node>(nodes_).subspan(node.index(),
                                                 node.end() - node.index());
  }

  /// The children of a node in document order: each child's subtree ends
  /// where the next child starts.
  class ChildRange {
   public:
    class Iterator {
     public:
      const Node& operator*() const { return *node_; }
      const Node* operator->() const { return node_; }
      Iterator& operator++() {
        node_ = base_ + node_->end();
        return *this;
      }
      bool operator==(const Iterator&) const = default;

     private:
      friend class ChildRange;
      Iterator(const Node* base, const Node* node) : base_(base), node_(node) {}
      const Node* base_;
      const Node* node_;
    };
    Iterator begin() const { return {base_, base_ + parent_->index() + 1}; }
    Iterator end() const { return {base_, base_ + parent_->end()}; }

   private:
    friend class Document;
    ChildRange(const Node* base, const Node* parent)
        : base_(base), parent_(parent) {}
    const Node* base_;
    const Node* parent_;
  };
  ChildRange children(const Node& node) const {
    return {nodes_.data(), &node};
  }

  /// Element tag name or attribute name; empty for text nodes.
  std::string_view label(const Node& node) const {
    if (node.is_text()) return {};
    const Label& label = labels_[node.label_id()];
    return {text_.data() + label.name_begin, label.name_size};
  }
  /// Attribute value or text content; empty for elements.
  std::string_view value(const Node& node) const {
    return {text_.data() + node.value_begin_, node.value_size_};
  }

  /// The *string value* of a node per the paper's `val` annotation: the
  /// concatenation of its text descendants (or the attribute value).
  std::string StringValue(const Node& node) const;
  /// Appends the string value into `out` (for callers reusing a buffer
  /// across many nodes, e.g. per-predicate evaluation).
  void AppendStringValue(const Node& node, std::string* out) const;

  /// Number of distinct (kind, label) pairs of element and attribute
  /// nodes: the bound on Node::label_id().
  size_t label_count() const { return labels_.size(); }

  /// The label stream of (kind, label): every element (or attribute)
  /// node with that name, in document order.  Empty for text nodes and
  /// for labels the document does not use.
  std::span<const Node* const> Labelled(NodeKind kind,
                                        std::string_view label) const;

 private:
  friend class DocumentWriter;
  Document() = default;

  /// One (kind, label): its name in `text_` and its stream, the slice
  /// [stream_begin, stream_end) of `labelled_`.  Label ids index the
  /// table, which is sorted by (kind, name) for binary search.
  struct Label {
    NodeKind kind;
    uint32_t name_begin;
    uint32_t name_size;
    uint32_t stream_begin;
    uint32_t stream_end;
  };

  std::string uri_;
  size_t size_bytes_ = 0;
  std::vector<Node> nodes_;
  std::vector<char> text_;
  /// Element and attribute nodes grouped by label id, each group in
  /// document order.
  std::vector<const Node*> labelled_;
  std::vector<Label> labels_;
};

/// Lays a document out node by node in pre order, the way the parser
/// reads it: elements are opened and closed, leaves are added to the
/// innermost open element.  Values are written straight into text();
/// names are passed as views that must stay valid until Finish.  A
/// writer keeps its buffers' capacity across documents, so Scratch()
/// writers make a steady-state parse allocate only the finished
/// document's own arrays.
class DocumentWriter {
 public:
  /// This thread's reusable writer.  Reset it before use.
  static DocumentWriter& Scratch();

  /// Forgets the document being written; keeps capacity.
  void Reset();

  /// Opens an element: the next node, a child of the innermost open
  /// element (or the root).
  void OpenElement(std::string_view name);
  /// Closes the innermost open element.
  void CloseElement();

  /// The buffer leaf values are appended to.
  std::string* text() { return &text_; }
  /// Adds an attribute or a text node to the innermost open element; its
  /// value is what text() gained since it was `value_begin` bytes long.
  void AddAttribute(std::string_view name, size_t value_begin);
  void AddText(size_t value_begin);

  /// The finished document: one root element, every element closed.
  Document Finish(std::string uri, size_t size_bytes);

 private:
  /// A (kind, name) met so far and its node count.
  struct PendingLabel {
    NodeKind kind;
    std::string_view name;
    uint32_t count;
  };

  Node& Append(NodeKind kind, std::string_view name);
  uint32_t LabelOf(NodeKind kind, std::string_view name);

  std::vector<Node> nodes_;
  std::string text_;
  uint32_t open_ = kNoParent;
  uint32_t post_ = 0;
  std::vector<PendingLabel> labels_;
  /// Open-addressed (kind, name) -> label index + 1; 0 is empty.
  std::vector<uint32_t> slots_;
  /// Finish's reusable per-label buffers.
  std::vector<uint32_t> order_;
  std::vector<uint32_t> rank_;
};

/// Builds a document from code (the XMark generator, tests).  Unlike the
/// parser, it takes appends to any node already added, in any order;
/// Finish lays the tree out in pre order, each node's children in the
/// order they were added.
class DocumentBuilder {
 public:
  /// A node of the tree being built.  Pointer-like, so that building
  /// reads as tree code: `site->AddElement("people")->AddText("x")`.
  class NodeRef {
   public:
    NodeRef AddElement(std::string_view label) const;
    NodeRef AddAttribute(std::string_view name, std::string_view value) const;
    NodeRef AddText(std::string_view text) const;
    const NodeRef* operator->() const { return this; }

   private:
    friend class DocumentBuilder;
    NodeRef(DocumentBuilder* builder, uint32_t index)
        : builder_(builder), index_(index) {}
    DocumentBuilder* builder_;
    uint32_t index_;
  };

  explicit DocumentBuilder(std::string_view root_label);

  NodeRef root() { return {this, 0}; }

  /// The document built so far; the builder stays usable.
  Document Finish(std::string uri, size_t size_bytes) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  /// A node with its label and value in `text_`, linked to its children.
  struct Staged {
    NodeKind kind;
    uint32_t label_begin;
    uint32_t label_size;
    uint32_t value_begin;
    uint32_t value_size;
    uint32_t first_child = kNone;
    uint32_t last_child = kNone;
    uint32_t next_sibling = kNone;
  };

  NodeRef Add(uint32_t parent, NodeKind kind, std::string_view label,
              std::string_view value);
  void Write(uint32_t index, DocumentWriter* writer) const;

  std::vector<Staged> nodes_;
  std::string text_;
};

}  // namespace webdex::xml

#endif  // WEBDEX_XML_DOM_H_
