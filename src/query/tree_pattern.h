#ifndef WEBDEX_QUERY_TREE_PATTERN_H_
#define WEBDEX_QUERY_TREE_PATTERN_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace webdex::query {

/// Edge type between a pattern node and its parent (paper Section 4:
/// single line = parent-child, double line = ancestor-descendant).
enum class Axis { kChild, kDescendant };

enum class PredicateKind {
  kNone,
  kEquals,    // = c        : string value equals constant
  kContains,  // contains(c): string value contains the word c
  kRange,     // a ? val ? b: numeric value within range
};

/// A value predicate attached to a pattern node (Section 4).
struct Predicate {
  PredicateKind kind = PredicateKind::kNone;
  /// Constant for kEquals / kContains.
  std::string constant;
  /// Bounds for kRange.
  double lo = 0;
  double hi = 0;
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  /// True if `value` (a node string value) satisfies this predicate.
  /// Takes a view: kEquals and kContains compare in place; only kRange
  /// copies (strtod needs a NUL terminator).
  bool Matches(std::string_view value) const;
};

/// One node of a tree pattern.
struct PatternNode {
  /// Edge from the parent pattern node (ignored on the pattern root,
  /// which may match anywhere in a document — see axis-from-root below).
  Axis axis = Axis::kDescendant;
  /// Element tag name, or attribute name when `is_attribute`.
  std::string label;
  bool is_attribute = false;
  /// `val` annotation: project the node's string value.
  bool want_val = false;
  /// `cont` annotation: project the full subtree serialized as XML.
  bool want_cont = false;
  Predicate predicate;
  /// Non-empty when this node participates in a value join ("#tag" in the
  /// query syntax, dashed line in the paper's Figure 2).
  std::string join_tag;
  std::vector<std::unique_ptr<PatternNode>> children;

  // Derived bookkeeping (filled by TreePattern::Finalize).
  PatternNode* parent = nullptr;
  int index = -1;  // pre-order position within the pattern

  bool HasOutput() const { return want_val || want_cont; }
};

/// A single tree pattern: the unit the index look-up strategies work on.
class TreePattern {
 public:
  explicit TreePattern(std::unique_ptr<PatternNode> root);

  TreePattern(TreePattern&&) = default;
  TreePattern& operator=(TreePattern&&) = default;

  const PatternNode& root() const { return *root_; }

  /// All nodes in pre-order; stable indices match PatternNode::index.
  const std::vector<PatternNode*>& nodes() const { return nodes_; }
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Nodes with val/cont annotations, in pre-order (the output schema).
  const std::vector<const PatternNode*>& output_nodes() const {
    return output_nodes_;
  }

  /// Compact, parseable rendering (the parser's syntax).
  std::string ToString() const;

 private:
  std::unique_ptr<PatternNode> root_;
  std::vector<PatternNode*> nodes_;
  std::vector<const PatternNode*> output_nodes_;
};

/// A value join between two pattern nodes identified by (pattern index,
/// node index); the joined nodes must have equal string values
/// (Section 4, dashed lines).
struct ValueJoin {
  int left_pattern = 0;
  int left_node = 0;
  int right_pattern = 0;
  int right_node = 0;
};

/// A full query: one or more tree patterns connected by value joins.
class Query {
 public:
  Query(std::vector<TreePattern> patterns, std::vector<ValueJoin> joins);

  Query(Query&&) = default;
  Query& operator=(Query&&) = default;

  const std::vector<TreePattern>& patterns() const { return patterns_; }
  const std::vector<ValueJoin>& joins() const { return joins_; }
  bool HasValueJoins() const { return !joins_.empty(); }

  /// True if any node carries a range predicate (which index look-ups
  /// must ignore; Section 5.5).
  bool HasRangePredicate() const;

  std::string ToString() const;

 private:
  std::vector<TreePattern> patterns_;
  std::vector<ValueJoin> joins_;
};

}  // namespace webdex::query

#endif  // WEBDEX_QUERY_TREE_PATTERN_H_
