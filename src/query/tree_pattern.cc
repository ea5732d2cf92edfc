#include "query/tree_pattern.h"

#include <cstdlib>

#include "common/strings.h"
#include "xml/tokenizer.h"

namespace webdex::query {

bool Predicate::Matches(std::string_view value) const {
  switch (kind) {
    case PredicateKind::kNone:
      return true;
    case PredicateKind::kEquals:
      return Trim(value) == constant;
    case PredicateKind::kContains:
      return xml::ContainsWord(value, constant);
    case PredicateKind::kRange: {
      const std::string trimmed(Trim(value));
      if (trimmed.empty()) return false;
      char* end = nullptr;
      const double v = std::strtod(trimmed.c_str(), &end);
      if (end == trimmed.c_str()) return false;  // not numeric
      const bool above_lo = lo_inclusive ? v >= lo : v > lo;
      const bool below_hi = hi_inclusive ? v <= hi : v < hi;
      return above_lo && below_hi;
    }
  }
  return false;
}

namespace {

void CollectNodes(PatternNode* node, PatternNode* parent,
                  std::vector<PatternNode*>* nodes) {
  node->parent = parent;
  node->index = static_cast<int>(nodes->size());
  nodes->push_back(node);
  for (auto& child : node->children) {
    CollectNodes(child.get(), node, nodes);
  }
}

void AppendNode(const PatternNode& node, bool render_axis, std::string* out) {
  if (render_axis) {
    out->append(node.axis == Axis::kChild ? "/" : "//");
  }
  if (node.is_attribute) out->push_back('@');
  out->append(node.label);
  if (node.want_val) out->append(":val");
  if (node.want_cont) out->append(":cont");
  if (!node.join_tag.empty()) {
    out->push_back('#');
    out->append(node.join_tag);
  }
  switch (node.predicate.kind) {
    case PredicateKind::kNone:
      break;
    case PredicateKind::kEquals:
      out->append("='");
      out->append(node.predicate.constant);
      out->push_back('\'');
      break;
    case PredicateKind::kContains:
      out->append("~'");
      out->append(node.predicate.constant);
      out->push_back('\'');
      break;
    case PredicateKind::kRange:
      out->append(StrFormat(" in%c%g,%g%c",
                            node.predicate.lo_inclusive ? '[' : '(',
                            node.predicate.lo, node.predicate.hi,
                            node.predicate.hi_inclusive ? ']' : ')'));
      break;
  }
  if (!node.children.empty()) {
    out->push_back('[');
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) out->append(", ");
      AppendNode(*node.children[i], /*render_axis=*/true, out);
    }
    out->push_back(']');
  }
}

}  // namespace

TreePattern::TreePattern(std::unique_ptr<PatternNode> root)
    : root_(std::move(root)) {
  CollectNodes(root_.get(), nullptr, &nodes_);
  for (const PatternNode* node : nodes_) {
    if (node->HasOutput()) output_nodes_.push_back(node);
  }
}

std::string TreePattern::ToString() const {
  std::string out;
  AppendNode(*root_, /*render_axis=*/true, &out);
  return out;
}

Query::Query(std::vector<TreePattern> patterns, std::vector<ValueJoin> joins)
    : patterns_(std::move(patterns)), joins_(std::move(joins)) {}

bool Query::HasRangePredicate() const {
  for (const auto& pattern : patterns_) {
    for (const PatternNode* node : pattern.nodes()) {
      if (node->predicate.kind == PredicateKind::kRange) return true;
    }
  }
  return false;
}

std::string Query::ToString() const {
  std::string out;
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (i > 0) out.append("; ");
    out.append(patterns_[i].ToString());
  }
  if (!joins_.empty()) {
    out.append(" where ");
    for (size_t i = 0; i < joins_.size(); ++i) {
      if (i > 0) out.append(", ");
      const ValueJoin& join = joins_[i];
      out.append(StrFormat("$%d.%d=$%d.%d", join.left_pattern,
                           join.left_node, join.right_pattern,
                           join.right_node));
    }
  }
  return out;
}

}  // namespace webdex::query
