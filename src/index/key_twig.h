#ifndef WEBDEX_INDEX_KEY_TWIG_H_
#define WEBDEX_INDEX_KEY_TWIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/tree_pattern.h"
#include "xml/structural_join.h"

namespace webdex::index {

using TwigAxis = xml::TwigAxis;

/// One component of a query path: the axis leading into it plus the key.
struct QueryPathStep {
  TwigAxis axis = TwigAxis::kDescendant;
  std::string key;
};

/// A root-to-leaf query path `(/|//)a1(/|//)a2 ... aj` (Section 5.2).
struct QueryPath {
  std::vector<QueryPathStep> steps;

  /// Key to look up in the LUP index: key(aj), the last step.
  const std::string& LookupKey() const { return steps.back().key; }

  std::string ToString() const;
};

/// The *key twig*: a tree pattern translated to index keys once, with
/// everything the look-ups and their cost estimates read derived in the
/// same pass (Section 5).  The translation:
///   * element pattern node            -> e‖label key
///   * attribute node, no = predicate  -> a‖name key
///   * attribute node with = c         -> a‖name c valued key (exact)
///   * element with = c                -> extra descendant word-key nodes,
///                                        one per word of c
///   * any node with contains(c)       -> extra descendant word-key node
///     (attribute contains -> self-axis word node, see TwigAxis::kSelf)
///   * range predicates contribute nothing (Section 5.5: look up without
///     the range, evaluate the full query afterwards)
///
/// Nodes are numbered in pre-order; a node's word nodes come before the
/// pattern's children.  LU and LUI fetch `keys`, LUP fetches
/// `lookup_keys` and matches `query_paths`, and the LUI twig join walks
/// `edges`.
struct KeyTwig {
  /// The edge into each node: the twig as xml::SatisfyTwig reads it.
  std::vector<xml::TwigEdge> edges;
  /// Each node's key, as an index into `keys` (parallel to `edges`).
  std::vector<uint32_t> node_keys;
  /// The distinct keys, in order of first appearance.
  std::vector<std::string> keys;
  /// One query path per leaf, leaves in pre-order.  Self-axis steps
  /// (attribute-value words) are emitted as child steps, matching how
  /// extraction records their data paths.
  std::vector<QueryPath> query_paths;
  /// The distinct LookupKey()s of `query_paths`, in order of first
  /// appearance: the keys a LUP look-up fetches.
  std::vector<std::string> lookup_keys;
  /// Each lookup key, as an index into `keys`.
  std::vector<uint32_t> lookup_key_ords;
  /// Each query path's lookup key, as an index into `lookup_keys`.
  std::vector<uint32_t> path_lookup;
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
