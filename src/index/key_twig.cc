#include "index/key_twig.h"

#include <algorithm>
#include <utility>

#include "index/keys.h"
#include "xml/tokenizer.h"

namespace webdex::index {
namespace {

using query::Axis;
using query::PatternNode;
using query::PredicateKind;

TwigAxis Translate(Axis axis) {
  return axis == Axis::kChild ? TwigAxis::kChild : TwigAxis::kDescendant;
}

/// Appends the next pre-order node, under `parent` with `key`; returns
/// its index.
int AddNode(int parent, TwigAxis axis, std::string key, KeyTwig* twig) {
  const auto ord = static_cast<uint32_t>(
      std::find(twig->keys.begin(), twig->keys.end(), key) -
      twig->keys.begin());
  if (ord == twig->keys.size()) twig->keys.push_back(std::move(key));
  twig->edges.push_back({parent, axis});
  twig->node_keys.push_back(ord);
  return static_cast<int>(twig->edges.size()) - 1;
}

void AddPatternNode(const PatternNode& pnode, int parent, bool words,
                    KeyTwig* twig) {
  const TwigAxis axis = Translate(pnode.axis);
  const auto& pred = pnode.predicate;
  int self = -1;
  if (pnode.is_attribute) {
    if (pred.kind == PredicateKind::kEquals) {
      // The valued attribute key answers @name = c exactly.
      self = AddNode(parent, axis,
                     AttributeValueKey(pnode.label, pred.constant), twig);
    } else {
      self = AddNode(parent, axis, AttributeNameKey(pnode.label), twig);
      if (words && pred.kind == PredicateKind::kContains) {
        const std::string word = xml::NormalizeWord(pred.constant);
        if (!word.empty()) {
          // Words share the attribute's ID.
          AddNode(self, TwigAxis::kSelf, WordKey(word), twig);
        }
      }
    }
  } else {
    self = AddNode(parent, axis, ElementKey(pnode.label), twig);
    if (words && pred.kind == PredicateKind::kEquals) {
      // Every word of the constant must occur under the element.  The
      // text carrying a direct value is a child in ID space, but deeper
      // mixed content is possible, so use descendant edges: never a
      // false negative, and the local evaluator removes any leftovers.
      for (const auto& word : xml::TokenizeWords(pred.constant)) {
        AddNode(self, TwigAxis::kDescendant, WordKey(word), twig);
      }
    } else if (words && pred.kind == PredicateKind::kContains) {
      const std::string word = xml::NormalizeWord(pred.constant);
      if (!word.empty()) {
        AddNode(self, TwigAxis::kDescendant, WordKey(word), twig);
      }
    }
    // kRange: intentionally nothing (Section 5.5).
  }
  for (const auto& child : pnode.children) {
    AddPatternNode(*child, self, words, twig);
  }
}

}  // namespace

std::string QueryPath::ToString() const {
  std::string out;
  for (const auto& step : steps) {
    out.append(step.axis == TwigAxis::kChild ? "/" : "//");
    out.append(step.key);
  }
  return out;
}

KeyTwig BuildKeyTwig(const query::TreePattern& pattern,
                     bool include_predicate_words) {
  KeyTwig twig;
  AddPatternNode(pattern.root(), -1, include_predicate_words, &twig);

  // A node is a leaf unless the next node in pre-order is its first
  // child.  Each leaf's query path runs up its parent chain.
  const auto nodes = static_cast<int>(twig.edges.size());
  for (int leaf = 0; leaf < nodes; ++leaf) {
    if (leaf + 1 < nodes && twig.edges[leaf + 1].parent == leaf) continue;
    size_t depth = 0;
    for (int n = leaf; n >= 0; n = twig.edges[n].parent) ++depth;
    std::vector<QueryPathStep>& steps = twig.query_paths.emplace_back().steps;
    steps.resize(depth);
    for (int n = leaf; n >= 0; n = twig.edges[n].parent) {
      // Attribute-value words share their attribute's position; in the
      // stored data path they appear as one extra child component.
      QueryPathStep& step = steps[--depth];
      step.axis = twig.edges[n].axis == TwigAxis::kSelf ? TwigAxis::kChild
                                                        : twig.edges[n].axis;
      step.key = twig.keys[twig.node_keys[n]];
    }
    const uint32_t key = twig.node_keys[leaf];
    const auto lookup = static_cast<uint32_t>(
        std::find(twig.lookup_key_ords.begin(), twig.lookup_key_ords.end(),
                  key) -
        twig.lookup_key_ords.begin());
    if (lookup == twig.lookup_key_ords.size()) {
      twig.lookup_key_ords.push_back(key);
      twig.lookup_keys.push_back(twig.keys[key]);
    }
    twig.path_lookup.push_back(lookup);
  }
  return twig;
}

}  // namespace webdex::index
