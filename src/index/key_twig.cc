#include "index/key_twig.h"

#include <functional>

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

std::unique_ptr<TwigNode> BuildNode(const PatternNode& pnode,
                                    TwigAxis axis, bool words) {
  auto tnode = std::make_unique<TwigNode>();
  tnode->axis = axis;
  tnode->pattern_node = pnode.index;

  const auto& pred = pnode.predicate;
  if (pnode.is_attribute) {
    if (pred.kind == PredicateKind::kEquals) {
      // The valued attribute key answers @name = c exactly.
      tnode->key = AttributeValueKey(pnode.label, pred.constant);
    } else {
      tnode->key = AttributeNameKey(pnode.label);
      if (words && pred.kind == PredicateKind::kContains) {
        const std::string word = xml::NormalizeWord(pred.constant);
        if (!word.empty()) {
          auto wnode = std::make_unique<TwigNode>();
          wnode->axis = TwigAxis::kSelf;  // words share the attribute's ID
          wnode->key = WordKey(word);
          tnode->children.push_back(std::move(wnode));
        }
      }
    }
  } else {
    tnode->key = ElementKey(pnode.label);
    if (words && pred.kind == PredicateKind::kEquals) {
      // Every word of the constant must occur under the element.  The
      // text carrying a direct value is a child in ID space, but deeper
      // mixed content is possible, so use descendant edges: never a
      // false negative, and the local evaluator removes any leftovers.
      for (const auto& word : xml::TokenizeWords(pred.constant)) {
        auto wnode = std::make_unique<TwigNode>();
        wnode->axis = TwigAxis::kDescendant;
        wnode->key = WordKey(word);
        tnode->children.push_back(std::move(wnode));
      }
    } else if (words && pred.kind == PredicateKind::kContains) {
      const std::string word = xml::NormalizeWord(pred.constant);
      if (!word.empty()) {
        auto wnode = std::make_unique<TwigNode>();
        wnode->axis = TwigAxis::kDescendant;
        wnode->key = WordKey(word);
        tnode->children.push_back(std::move(wnode));
      }
    }
    // kRange: intentionally nothing (Section 5.5).
  }

  for (const auto& child : pnode.children) {
    tnode->children.push_back(
        BuildNode(*child, Translate(child->axis), words));
  }
  return tnode;
}

}  // namespace

KeyTwig BuildKeyTwig(const query::TreePattern& pattern,
                     bool include_predicate_words) {
  KeyTwig twig;
  twig.root = BuildNode(pattern.root(), Translate(pattern.root().axis),
                        include_predicate_words);
  return twig;
}

std::vector<const TwigNode*> KeyTwig::Nodes() const {
  std::vector<const TwigNode*> nodes;
  std::function<void(const TwigNode&)> walk = [&](const TwigNode& node) {
    nodes.push_back(&node);
    for (const auto& child : node.children) walk(*child);
  };
  if (root) walk(*root);
  return nodes;
}

std::vector<xml::TwigEdge> KeyTwig::Edges() const {
  std::vector<xml::TwigEdge> edges;
  std::function<void(const TwigNode&, int)> walk = [&](const TwigNode& node,
                                                       int parent) {
    const int self = static_cast<int>(edges.size());
    edges.push_back({parent, node.axis});
    for (const auto& child : node.children) walk(*child, self);
  };
  if (root) walk(*root, -1);
  return edges;
}

std::vector<std::string> KeyTwig::DistinctKeys() const {
  std::vector<std::string> keys;
  for (const TwigNode* node : Nodes()) {
    bool seen = false;
    for (const auto& key : keys) {
      if (key == node->key) {
        seen = true;
        break;
      }
    }
    if (!seen) keys.push_back(node->key);
  }
  return keys;
}

std::vector<std::vector<const TwigNode*>> KeyTwig::RootToLeafPaths() const {
  std::vector<std::vector<const TwigNode*>> paths;
  std::vector<const TwigNode*> current;
  std::function<void(const TwigNode&)> walk = [&](const TwigNode& node) {
    current.push_back(&node);
    if (node.children.empty()) {
      paths.push_back(current);
    } else {
      for (const auto& child : node.children) walk(*child);
    }
    current.pop_back();
  };
  if (root) walk(*root);
  return paths;
}

}  // namespace webdex::index
