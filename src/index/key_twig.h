#ifndef WEBDEX_INDEX_KEY_TWIG_H_
#define WEBDEX_INDEX_KEY_TWIG_H_

#include <memory>
#include <string>
#include <vector>

#include "query/tree_pattern.h"
#include "xml/structural_join.h"

namespace webdex::index {

using TwigAxis = xml::TwigAxis;

/// A node of the *key twig*: the tree pattern translated to index keys.
///
/// The translation implements the look-up front half shared by all
/// strategies (Section 5):
///   * element pattern node            -> e‖label key
///   * attribute node, no = predicate  -> a‖name key
///   * attribute node with = c         -> a‖name c valued key (exact)
///   * element with = c                -> extra child word-key nodes, one
///                                        per word of c (child axis: the
///                                        value's text is a child)
///   * any node with contains(c)       -> extra descendant word-key node
///     (attribute contains -> self-axis word node, see TwigAxis::kSelf)
///   * range predicates contribute nothing (Section 5.5: look up without
///     the range, evaluate the full query afterwards)
struct TwigNode {
  TwigAxis axis = TwigAxis::kDescendant;  // edge from parent
  std::string key;
  std::vector<std::unique_ptr<TwigNode>> children;
  /// Index of the originating pattern node, or -1 for synthesized
  /// predicate word nodes.
  int pattern_node = -1;
};

struct KeyTwig {
  std::unique_ptr<TwigNode> root;

  /// All nodes, pre-order.
  std::vector<const TwigNode*> Nodes() const;
  /// The edge into each node, parallel to Nodes(): the twig as
  /// xml::SatisfyTwig reads it.
  std::vector<xml::TwigEdge> Edges() const;
  /// Distinct keys of all nodes.
  std::vector<std::string> DistinctKeys() const;
  /// Root-to-leaf paths (sequences of nodes), for the LUP look-up.
  std::vector<std::vector<const TwigNode*>> RootToLeafPaths() const;
};

/// Translates one tree pattern into its key twig.  When
/// `include_predicate_words` is false (the index was built without w‖·
/// keys, see ExtractOptions), no word nodes are synthesized: predicates
/// are then enforced only by the local evaluator, trading look-up
/// precision for a smaller index (paper Figure 8's no-words variant).
KeyTwig BuildKeyTwig(const query::TreePattern& pattern,
                     bool include_predicate_words = true);

}  // namespace webdex::index

#endif  // WEBDEX_INDEX_KEY_TWIG_H_
