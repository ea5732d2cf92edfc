#include "xml/dom.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/strings.h"

namespace webdex::xml {

static_assert(sizeof(Node) == 32, "nodes are fixed-width records");

std::string NodeId::ToString() const {
  return StrFormat("(%u, %u, %u)", pre, post, depth);
}

size_t Document::heap_bytes() const {
  const size_t uri = uri_.capacity() > std::string().capacity()
                         ? uri_.capacity() + 1
                         : 0;
  return uri + nodes_.capacity() * sizeof(Node) + text_.capacity() +
         labelled_.capacity() * sizeof(const Node*) +
         labels_.capacity() * sizeof(Label);
}

void Document::AppendStringValue(const Node& node, std::string* out) const {
  if (!node.is_element()) {
    out->append(value(node));
    return;
  }
  for (const Node& descendant : subtree(node)) {
    if (descendant.is_text()) out->append(value(descendant));
  }
}

std::string Document::StringValue(const Node& node) const {
  std::string out;
  AppendStringValue(node, &out);
  return out;
}

std::span<const Node* const> Document::Labelled(NodeKind kind,
                                                std::string_view label) const {
  auto name = [this](const Label& entry) {
    return std::string_view(text_.data() + entry.name_begin, entry.name_size);
  };
  const auto it = std::lower_bound(
      labels_.begin(), labels_.end(), std::tie(kind, label),
      [&name](const Label& entry, const auto& key) {
        return std::make_tuple(entry.kind, name(entry)) < key;
      });
  if (it == labels_.end() || it->kind != kind || name(*it) != label) return {};
  return {labelled_.data() + it->stream_begin,
          it->stream_end - it->stream_begin};
}

// --- DocumentWriter ----------------------------------------------------------

DocumentWriter& DocumentWriter::Scratch() {
  thread_local DocumentWriter writer;
  return writer;
}

void DocumentWriter::Reset() {
  nodes_.clear();
  text_.clear();
  open_ = kNoParent;
  post_ = 0;
  labels_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

uint32_t DocumentWriter::LabelOf(NodeKind kind, std::string_view name) {
  if (2 * (labels_.size() + 1) > slots_.size()) {
    // Keep the load at most one half: rehash into twice the slots.
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
    for (uint32_t label = 0; label < labels_.size(); ++label) {
      size_t slot = std::hash<std::string_view>()(labels_[label].name);
      for (;; ++slot) {
        uint32_t& entry = slots_[slot & (slots_.size() - 1)];
        if (entry == 0) {
          entry = label + 1;
          break;
        }
      }
    }
  }
  const size_t mask = slots_.size() - 1;
  for (size_t slot = std::hash<std::string_view>()(name);; ++slot) {
    uint32_t& entry = slots_[slot & mask];
    if (entry == 0) {
      labels_.push_back({kind, name, 0});
      entry = static_cast<uint32_t>(labels_.size());
      return entry - 1;
    }
    const PendingLabel& label = labels_[entry - 1];
    if (label.kind == kind && label.name == name) return entry - 1;
  }
}

Node& DocumentWriter::Append(NodeKind kind, std::string_view name) {
  assert(open_ != kNoParent || nodes_.empty());
  Node& node = nodes_.emplace_back();
  node.id_.pre = static_cast<uint32_t>(nodes_.size());
  node.id_.depth = open_ == kNoParent ? 1 : nodes_[open_].id_.depth + 1;
  node.parent_ = open_;
  node.end_ = node.id_.pre;
  uint32_t label = 0;
  if (kind != NodeKind::kText) {
    label = LabelOf(kind, name);
    ++labels_[label].count;
  }
  node.kind_label_ = static_cast<uint32_t>(kind) << 30 | label;
  return node;
}

void DocumentWriter::OpenElement(std::string_view name) {
  Append(NodeKind::kElement, name);
  open_ = static_cast<uint32_t>(nodes_.size() - 1);
}

void DocumentWriter::CloseElement() {
  Node& element = nodes_[open_];
  element.id_.post = ++post_;
  element.end_ = static_cast<uint32_t>(nodes_.size());
  open_ = element.parent_;
}

void DocumentWriter::AddAttribute(std::string_view name, size_t value_begin) {
  Node& node = Append(NodeKind::kAttribute, name);
  node.id_.post = ++post_;
  node.value_begin_ = static_cast<uint32_t>(value_begin);
  node.value_size_ = static_cast<uint32_t>(text_.size() - value_begin);
}

void DocumentWriter::AddText(size_t value_begin) {
  Node& node = Append(NodeKind::kText, {});
  node.id_.post = ++post_;
  node.value_begin_ = static_cast<uint32_t>(value_begin);
  node.value_size_ = static_cast<uint32_t>(text_.size() - value_begin);
}

Document DocumentWriter::Finish(std::string uri, size_t size_bytes) {
  assert(!nodes_.empty() && open_ == kNoParent);
  // Label ids become ranks in (kind, name) order, so Labelled can
  // binary-search the table; the names follow the values in the text
  // buffer, and each stream gets its slice of `labelled_`.
  order_.resize(labels_.size());
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    return std::tie(labels_[a].kind, labels_[a].name) <
           std::tie(labels_[b].kind, labels_[b].name);
  });
  rank_.resize(labels_.size());
  size_t names = 0;
  for (const PendingLabel& label : labels_) names += label.name.size();

  Document doc;
  doc.uri_ = std::move(uri);
  doc.size_bytes_ = size_bytes;
  doc.text_.reserve(text_.size() + names);
  doc.text_.assign(text_.begin(), text_.end());
  doc.labels_.resize(labels_.size());
  uint32_t stream = 0;
  for (uint32_t rank = 0; rank < order_.size(); ++rank) {
    const PendingLabel& pending = labels_[order_[rank]];
    rank_[order_[rank]] = rank;
    Document::Label& label = doc.labels_[rank];
    label.kind = pending.kind;
    label.name_begin = static_cast<uint32_t>(doc.text_.size());
    label.name_size = static_cast<uint32_t>(pending.name.size());
    doc.text_.insert(doc.text_.end(), pending.name.begin(), pending.name.end());
    label.stream_begin = stream;
    label.stream_end = stream;  // advanced as the stream fills
    stream += pending.count;
  }

  doc.nodes_.assign(nodes_.begin(), nodes_.end());
  doc.labelled_.resize(stream);
  for (Node& node : doc.nodes_) {
    if (node.is_text()) continue;
    const uint32_t rank = rank_[node.label_id()];
    node.kind_label_ = (node.kind_label_ & ~Node::kLabelMask) | rank;
    doc.labelled_[doc.labels_[rank].stream_end++] = &node;
  }
  return doc;
}

// --- DocumentBuilder ---------------------------------------------------------

DocumentBuilder::DocumentBuilder(std::string_view root_label) {
  nodes_.push_back({NodeKind::kElement, 0,
                    static_cast<uint32_t>(root_label.size()), 0, 0});
  text_.assign(root_label);
}

DocumentBuilder::NodeRef DocumentBuilder::Add(uint32_t parent, NodeKind kind,
                                              std::string_view label,
                                              std::string_view value) {
  const auto index = static_cast<uint32_t>(nodes_.size());
  Staged& node = nodes_.emplace_back();
  node.kind = kind;
  node.label_begin = static_cast<uint32_t>(text_.size());
  node.label_size = static_cast<uint32_t>(label.size());
  text_.append(label);
  node.value_begin = static_cast<uint32_t>(text_.size());
  node.value_size = static_cast<uint32_t>(value.size());
  text_.append(value);
  Staged& parent_node = nodes_[parent];
  if (parent_node.last_child == kNone) {
    parent_node.first_child = index;
  } else {
    nodes_[parent_node.last_child].next_sibling = index;
  }
  parent_node.last_child = index;
  return {this, index};
}

DocumentBuilder::NodeRef DocumentBuilder::NodeRef::AddElement(
    std::string_view label) const {
  return builder_->Add(index_, NodeKind::kElement, label, {});
}

DocumentBuilder::NodeRef DocumentBuilder::NodeRef::AddAttribute(
    std::string_view name, std::string_view value) const {
  return builder_->Add(index_, NodeKind::kAttribute, name, value);
}

DocumentBuilder::NodeRef DocumentBuilder::NodeRef::AddText(
    std::string_view text) const {
  return builder_->Add(index_, NodeKind::kText, {}, text);
}

void DocumentBuilder::Write(uint32_t index, DocumentWriter* writer) const {
  const Staged& node = nodes_[index];
  const std::string_view label(text_.data() + node.label_begin,
                               node.label_size);
  if (node.kind != NodeKind::kElement) {
    const size_t begin = writer->text()->size();
    writer->text()->append(text_, node.value_begin, node.value_size);
    if (node.kind == NodeKind::kAttribute) {
      writer->AddAttribute(label, begin);
    } else {
      writer->AddText(begin);
    }
    return;
  }
  writer->OpenElement(label);
  for (uint32_t child = node.first_child; child != kNone;
       child = nodes_[child].next_sibling) {
    Write(child, writer);
  }
  writer->CloseElement();
}

Document DocumentBuilder::Finish(std::string uri, size_t size_bytes) const {
  DocumentWriter& writer = DocumentWriter::Scratch();
  writer.Reset();
  Write(0, &writer);
  return writer.Finish(std::move(uri), size_bytes);
}

}  // namespace webdex::xml
