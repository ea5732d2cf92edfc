#ifndef WEBDEX_XML_STRUCTURAL_JOIN_H_
#define WEBDEX_XML_STRUCTURAL_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "xml/dom.h"

namespace webdex::xml {

/// Edge type between twig nodes.  kSelf links an attribute to the words
/// of its own value (they share one structural ID, because an attribute
/// is a leaf in (pre, post, depth) space).
enum class TwigAxis { kChild, kDescendant, kSelf };

/// One node of a twig listed in pre-order: the index of its parent (-1
/// on the root) and the axis of the edge from that parent.
struct TwigEdge {
  int parent = -1;
  TwigAxis axis = TwigAxis::kDescendant;
};

/// The structural ID of a join member: a decoded ID or a document node.
inline const NodeId& IdOf(const NodeId& id) { return id; }
inline const NodeId& IdOf(const Node* node) { return node->id(); }

/// Calls `fn` on the members of `list` (sorted by pre) that stand in
/// `axis` to `parent`, in document order, until `fn` returns true.
/// Returns whether one did.  The descendants of `parent` are one run of
/// the list: from the first member with pre > parent.pre to the first
/// with post > parent.post, found by binary search and bounded scan.
/// `*id_ops` gains 1 per member the scan examines, the one that ends it
/// included, and 1 per self-axis probe.
template <typename T, typename Fn>
bool AnyRelated(std::span<const T> list, const NodeId& parent,
                TwigAxis axis, uint64_t* id_ops, Fn&& fn) {
  if (axis == TwigAxis::kSelf) {
    *id_ops += 1;
    auto it = std::lower_bound(
        list.begin(), list.end(), parent.pre,
        [](const T& member, uint32_t pre) { return IdOf(member).pre < pre; });
    for (; it != list.end() && IdOf(*it).pre == parent.pre; ++it) {
      if (fn(*it)) return true;
    }
    return false;
  }
  auto it = std::upper_bound(
      list.begin(), list.end(), parent.pre,
      [](uint32_t pre, const T& member) { return pre < IdOf(member).pre; });
  for (; it != list.end(); ++it) {
    *id_ops += 1;
    const NodeId& id = IdOf(*it);
    if (id.post > parent.post) break;  // past the subtree
    if ((axis == TwigAxis::kDescendant || id.depth == parent.depth + 1) &&
        fn(*it)) {
      return true;
    }
  }
  return false;
}

namespace internal {

// Computes sat[i] for the subtree of twig node `i`, children first, in
// pre-order.  False as soon as some satisfying set is empty: then no
// later node is computed and the twig has no embedding.
template <typename T, typename Keep>
bool SatisfySubtree(size_t i, std::span<const TwigEdge> edges,
                    std::span<const std::span<const T>> inputs, Keep& keep,
                    std::vector<std::vector<T>>& sat, uint64_t* id_ops) {
  if (inputs[i].empty()) return false;
  // The subtree of i runs up to the first later node whose parent
  // precedes i; i's children are the nodes in it whose parent is i.
  const int self = static_cast<int>(i);
  size_t end = i + 1;
  bool leaf = true;
  for (; end < edges.size() && edges[end].parent >= self; ++end) {
    if (edges[end].parent != self) continue;
    leaf = false;
    if (!SatisfySubtree(end, edges, inputs, keep, sat, id_ops)) return false;
  }
  std::vector<T>& out = sat[i];
  for (const T& member : inputs[i]) {
    if (!leaf) *id_ops += 1;
    if (!keep(i, member)) continue;
    bool embeds = true;
    for (size_t c = i + 1; c < end && embeds; ++c) {
      if (edges[c].parent != self) continue;
      embeds = AnyRelated(std::span<const T>(sat[c]), IdOf(member),
                          edges[c].axis, id_ops,
                          [](const T&) { return true; });
    }
    if (embeds) out.push_back(member);
  }
  return !out.empty();
}

}  // namespace internal

/// Holistic structural twig join over pre-sorted (pre, post, depth)
/// streams, in the spirit of Bruno, Koudas & Srivastava [7], the join
/// the paper's LUI / 2LUPI look-ups run (Sections 5.3-5.4).  `edges`
/// lists the twig in pre-order and `inputs[i]` holds node i's members in
/// document order.
///
/// Bottom-up pass: sat[i] becomes the members of inputs[i] for which
/// `keep(i, member)` holds and below which node i's whole subtree
/// embeds, i.e. every twig child has a member of its own satisfying set
/// in the edge's relation.  Returns true when sat[0] is non-empty: the
/// twig embeds.  `*id_ops` counts the work: AnyRelated's ops plus 1 per
/// member of an inner node; leaves cost nothing.  When an input or a
/// satisfying set is empty the pass ends there, before any later node
/// is computed; sat[0] and every set left uncomputed are then empty.
template <typename T, typename Keep>
bool SatisfyTwig(std::span<const TwigEdge> edges,
                 std::span<const std::span<const T>> inputs, Keep keep,
                 std::vector<std::vector<T>>* sat, uint64_t* id_ops) {
  sat->resize(edges.size());
  for (std::vector<T>& set : *sat) set.clear();
  return !edges.empty() &&
         internal::SatisfySubtree<T>(0, edges, inputs, keep, *sat, id_ops);
}

}  // namespace webdex::xml

#endif  // WEBDEX_XML_STRUCTURAL_JOIN_H_
