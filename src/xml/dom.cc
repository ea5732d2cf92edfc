#include "xml/dom.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/strings.h"

namespace webdex::xml {

std::string NodeId::ToString() const {
  return StrFormat("(%u, %u, %u)", pre, post, depth);
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AddElement(std::string label) {
  return AddChild(std::make_unique<Node>(NodeKind::kElement, std::move(label)));
}

Node* Node::AddAttribute(std::string name, std::string value) {
  auto attr = std::make_unique<Node>(NodeKind::kAttribute, std::move(name));
  attr->set_value(std::move(value));
  return AddChild(std::move(attr));
}

Node* Node::AddText(std::string text) {
  auto node = std::make_unique<Node>(NodeKind::kText, "");
  node->set_value(std::move(text));
  return AddChild(std::move(node));
}

void Node::AppendTextTo(std::string* out) const {
  if (is_text() || is_attribute()) {
    out->append(value_);
    return;
  }
  for (const auto& child : children_) {
    if (!child->is_attribute()) child->AppendTextTo(out);
  }
}

std::string Node::StringValue() const {
  std::string out;
  AppendTextTo(&out);
  return out;
}

size_t Node::SubtreeSize() const {
  size_t n = 1;
  for (const auto& child : children_) n += child->SubtreeSize();
  return n;
}

Document::Document(std::string uri, std::unique_ptr<Node> root,
                   size_t size_bytes)
    : uri_(std::move(uri)), root_(std::move(root)), size_bytes_(size_bytes) {
  // One walk assigns the identifiers and tags every element and
  // attribute node with its (kind, label) group, counting group sizes in
  // `end`; a counting sort then lays the groups out in one array.
  std::vector<std::pair<const Node*, uint32_t>> tagged;
  std::vector<LabelRange> groups;
  std::unordered_map<std::string_view, uint32_t> group_of[2];
  uint32_t pre = 1;
  uint32_t post = 1;
  auto walk = [&](auto& self, Node* node, uint32_t depth) -> void {
    NodeId id;
    id.pre = pre++;
    id.depth = depth;
    if (!node->is_text()) {
      auto& index = group_of[node->is_attribute() ? 1 : 0];
      const auto [it, added] = index.try_emplace(
          node->label(), static_cast<uint32_t>(groups.size()));
      if (added) groups.push_back({node->kind(), node->label(), 0, 0});
      ++groups[it->second].end;
      tagged.emplace_back(node, it->second);
    }
    for (const auto& child : node->children()) {
      self(self, child.get(), depth + 1);
    }
    id.post = post++;
    node->set_id(id);
  };
  walk(walk, root_.get(), 1);

  uint32_t offset = 0;
  for (LabelRange& group : groups) {
    group.begin = offset;
    offset += group.end;
    group.end = group.begin;
  }
  labelled_.resize(tagged.size());
  for (const auto& [node, group] : tagged) {
    labelled_[groups[group].end++] = node;
  }
  std::sort(groups.begin(), groups.end(),
            [](const LabelRange& a, const LabelRange& b) {
              return std::tie(a.kind, a.label) < std::tie(b.kind, b.label);
            });
  labels_.assign(groups.begin(), groups.end());
}

std::span<const Node* const> Document::Labelled(NodeKind kind,
                                                std::string_view label) const {
  const auto it = std::lower_bound(
      labels_.begin(), labels_.end(), std::tie(kind, label),
      [](const LabelRange& range, const auto& key) {
        return std::tie(range.kind, range.label) < key;
      });
  if (it == labels_.end() || it->kind != kind || it->label != label) return {};
  return {labelled_.data() + it->begin, it->end - it->begin};
}

void ForEachNode(const Node& node,
                 const std::function<void(const Node&)>& fn) {
  fn(node);
  for (const auto& child : node.children()) ForEachNode(*child, fn);
}

}  // namespace webdex::xml
