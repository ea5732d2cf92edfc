#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/strings.h"
#include "xml/parser.h"
#include "xml/tokenizer.h"
#include "xmark/xmark_generator.h"

namespace webdex::xml {
namespace {

TEST(NodeIdTest, AncestorAndParentPredicates) {
  // Manually build: a(1,3,1) > b(2,1,2); a > c(3,2,2).
  NodeId a{1, 3, 1}, b{2, 1, 2}, c{3, 2, 2};
  EXPECT_TRUE(a.IsAncestorOf(b));
  EXPECT_TRUE(a.IsParentOf(b));
  EXPECT_TRUE(a.IsAncestorOf(c));
  EXPECT_FALSE(b.IsAncestorOf(c));
  EXPECT_FALSE(b.IsAncestorOf(a));
  NodeId grandchild{2, 1, 3};
  EXPECT_TRUE(a.IsAncestorOf(grandchild));
  EXPECT_FALSE(a.IsParentOf(grandchild));
}

TEST(NodeIdTest, OrderingByPre) {
  NodeId a{1, 5, 1}, b{2, 1, 2};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.ToString(), "(1, 5, 1)");
}

TEST(DomTest, StringValueConcatenatesTextDescendants) {
  auto doc = ParseDocument("t", "<a>x<b>y<c>z</c></b>w</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "xyzw");
}

TEST(DomTest, StringValueExcludesAttributes) {
  auto doc = ParseDocument("t", "<a id=\"skip\">x</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "x");
}

TEST(DomTest, SubtreeSizeCountsAllNodes) {
  auto doc = ParseDocument("t", "<a id=\"1\"><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  // a + @id + b + text = 4.
  EXPECT_EQ(doc.value().root().SubtreeSize(), 4u);
}

TEST(DomTest, ForEachNodeVisitsInDocumentOrder) {
  auto doc = ParseDocument("t", "<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  std::vector<std::string> labels;
  ForEachNode(doc.value().root(), [&](const Node& node) {
    labels.push_back(node.label());
  });
  EXPECT_EQ(labels, (std::vector<std::string>{"a", "b", "c", "d"}));
}

// Structural-ID invariant checks: for every pair of nodes in a document,
// the (pre, post, depth) predicates must agree with the actual tree.
void CollectWithAncestry(const Node& node, std::vector<const Node*>* flat) {
  flat->push_back(&node);
  for (const auto& child : node.children()) {
    CollectWithAncestry(*child, flat);
  }
}

bool ReallyAncestor(const Node* maybe_ancestor, const Node* node) {
  for (const Node* p = node->parent(); p != nullptr; p = p->parent()) {
    if (p == maybe_ancestor) return true;
  }
  return false;
}

class IdInvariants : public ::testing::TestWithParam<int> {};

TEST_P(IdInvariants, PrePostDepthAgreeWithTree) {
  xmark::GeneratorConfig config;
  config.num_documents = 20;
  config.entities_per_document = 6;
  xmark::XmarkGenerator generator(config);
  Document doc = generator.GenerateDom(GetParam());

  std::vector<const Node*> nodes;
  CollectWithAncestry(doc.root(), &nodes);
  ASSERT_GT(nodes.size(), 10u);

  // Pre values are unique and in document order.
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i - 1]->id().pre, nodes[i]->id().pre);
  }
  // Pairwise agreement on a bounded sample (full quadratic check is slow).
  const size_t step = nodes.size() > 400 ? nodes.size() / 400 : 1;
  for (size_t i = 0; i < nodes.size(); i += step) {
    for (size_t j = 0; j < nodes.size(); j += step) {
      if (i == j) continue;
      const bool claimed = nodes[i]->id().IsAncestorOf(nodes[j]->id());
      const bool actual = ReallyAncestor(nodes[i], nodes[j]);
      EXPECT_EQ(claimed, actual)
          << nodes[i]->label() << nodes[i]->id().ToString() << " vs "
          << nodes[j]->label() << nodes[j]->id().ToString();
      if (claimed) {
        EXPECT_EQ(nodes[i]->id().IsParentOf(nodes[j]->id()),
                  nodes[j]->parent() == nodes[i]);
      }
    }
  }
  // Depth equals real tree depth.
  for (const Node* node : nodes) {
    uint32_t depth = 1;
    for (const Node* p = node->parent(); p != nullptr; p = p->parent()) {
      ++depth;
    }
    EXPECT_EQ(node->id().depth, depth);
  }
}

INSTANTIATE_TEST_SUITE_P(Docs, IdInvariants, ::testing::Range(0, 10));

// --- Label streams -----------------------------------------------------------

std::vector<std::string> Labels(std::span<const Node* const> stream) {
  std::vector<std::string> out;
  for (const Node* node : stream) out.push_back(node->label());
  return out;
}

TEST(LabelStreamTest, KeepsDocumentOrderWithinALabel) {
  auto doc = ParseDocument(
      "t", "<a><b id=\"1\"><b id=\"2\"/></b><c/><b id=\"3\">x</b></a>");
  ASSERT_TRUE(doc.ok());
  const auto stream = doc.value().Labelled(NodeKind::kElement, "b");
  ASSERT_EQ(stream.size(), 3u);
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(stream[i]->is_element());
    ASSERT_FALSE(stream[i]->children().empty());
    EXPECT_EQ(stream[i]->children()[0]->value(), std::to_string(i + 1));
    if (i > 0) {
      EXPECT_LT(stream[i - 1]->id().pre, stream[i]->id().pre);
    }
  }
  EXPECT_EQ(Labels(doc.value().Labelled(NodeKind::kElement, "a")),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(doc.value().Labelled(NodeKind::kAttribute, "id").size(), 3u);
}

TEST(LabelStreamTest, ElementAndAttributeOfOneNameStayApart) {
  auto doc = ParseDocument(
      "t",
      "<site><person id=\"p1\"/><seller person=\"p1\"/>"
      "<person id=\"p2\"><buyer person=\"p2\"/></person></site>");
  ASSERT_TRUE(doc.ok());
  const auto elements = doc.value().Labelled(NodeKind::kElement, "person");
  const auto attributes =
      doc.value().Labelled(NodeKind::kAttribute, "person");
  ASSERT_EQ(elements.size(), 2u);
  ASSERT_EQ(attributes.size(), 2u);
  for (const Node* node : elements) EXPECT_TRUE(node->is_element());
  for (const Node* node : attributes) EXPECT_TRUE(node->is_attribute());
  EXPECT_EQ(attributes[0]->value(), "p1");
  EXPECT_EQ(attributes[1]->value(), "p2");
}

TEST(LabelStreamTest, UnknownLabelGivesAnEmptyStream) {
  auto doc = ParseDocument("t", "<a id=\"1\">text</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value().Labelled(NodeKind::kElement, "b").empty());
  EXPECT_TRUE(doc.value().Labelled(NodeKind::kElement, "id").empty());
  EXPECT_TRUE(doc.value().Labelled(NodeKind::kAttribute, "a").empty());
  EXPECT_TRUE(doc.value().Labelled(NodeKind::kText, "").empty());
}

TEST(LabelStreamTest, DocumentIsCompleteWhenConstructed) {
  // A tree handed to the constructor directly gets identifiers and
  // streams, and both survive moving the document.
  auto root = std::make_unique<Node>(NodeKind::kElement, "a");
  root->AddElement("b")->AddText("x");
  root->AddAttribute("id", "7");
  Document built("t", std::move(root), 0);
  const Document doc = std::move(built);
  EXPECT_EQ(doc.root().id(), (NodeId{1, 4, 1}));
  const auto stream = doc.Labelled(NodeKind::kElement, "b");
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0]->id(), (NodeId{2, 2, 2}));
  EXPECT_EQ(stream[0]->parent(), &doc.root());
  EXPECT_EQ(doc.Labelled(NodeKind::kAttribute, "id").size(), 1u);
}

// --- Tokenizer ---------------------------------------------------------------

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  EXPECT_EQ(TokenizeWords("The Lion-Hunt, 1854!"),
            (std::vector<std::string>{"the", "lion", "hunt", "1854"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("... --- !!!").empty());
}

TEST(TokenizerTest, NormalizeWordStripsAndLowercases) {
  EXPECT_EQ(NormalizeWord("Lion!"), "lion");
  EXPECT_EQ(NormalizeWord("1854"), "1854");
  EXPECT_EQ(NormalizeWord("--"), "");
}

TEST(TokenizerTest, ConsistentWithContainsWordPredicate) {
  // Every token of a text must satisfy contains(token) on that text —
  // the invariant that lets the word index answer containment look-ups.
  const std::string text = "A striking oil on canvas, painted in 1863.";
  for (const auto& word : TokenizeWords(text)) {
    EXPECT_TRUE(ContainsWord(text, word)) << word;
  }
}

}  // namespace
}  // namespace webdex::xml
