#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
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
  EXPECT_EQ(doc.value().StringValue(doc.value().root()), "xyzw");
}

TEST(DomTest, StringValueExcludesAttributes) {
  auto doc = ParseDocument("t", "<a id=\"skip\">x</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().StringValue(doc.value().root()), "x");
}

TEST(DomTest, SubtreeSizeCountsAllNodes) {
  auto doc = ParseDocument("t", "<a id=\"1\"><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  // a + @id + b + text = 4.
  EXPECT_EQ(doc.value().subtree(doc.value().root()).size(), 4u);
}

TEST(DomTest, ForEachNodeVisitsInDocumentOrder) {
  auto doc = ParseDocument("t", "<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  std::vector<std::string> labels;
  for (const Node& node : doc.value().nodes()) {
    labels.emplace_back(doc.value().label(node));
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"a", "b", "c", "d"}));
}

// Structural-ID invariant checks: for every pair of nodes in a document,
// the (pre, post, depth) predicates must agree with the actual tree.
void CollectWithAncestry(const Document& doc, const Node& node,
                         std::vector<const Node*>* flat) {
  flat->push_back(&node);
  for (const Node& child : doc.children(node)) {
    CollectWithAncestry(doc, child, flat);
  }
}

bool ReallyAncestor(const Document& doc, const Node* maybe_ancestor,
                    const Node* node) {
  for (const Node* p = doc.parent(*node); p != nullptr; p = doc.parent(*p)) {
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
  CollectWithAncestry(doc, doc.root(), &nodes);
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
      const bool actual = ReallyAncestor(doc, nodes[i], nodes[j]);
      EXPECT_EQ(claimed, actual)
          << doc.label(*nodes[i]) << nodes[i]->id().ToString() << " vs "
          << doc.label(*nodes[j]) << nodes[j]->id().ToString();
      if (claimed) {
        EXPECT_EQ(nodes[i]->id().IsParentOf(nodes[j]->id()),
                  doc.parent(*nodes[j]) == nodes[i]);
      }
    }
  }
  // Depth equals real tree depth.
  for (const Node* node : nodes) {
    uint32_t depth = 1;
    for (const Node* p = doc.parent(*node); p != nullptr;
         p = doc.parent(*p)) {
      ++depth;
    }
    EXPECT_EQ(node->id().depth, depth);
  }
}

INSTANTIATE_TEST_SUITE_P(Docs, IdInvariants, ::testing::Range(0, 10));

// --- Label streams -----------------------------------------------------------

std::vector<std::string> Labels(const Document& doc,
                                std::span<const Node* const> stream) {
  std::vector<std::string> out;
  for (const Node* node : stream) out.emplace_back(doc.label(*node));
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
    const auto children = doc.value().children(*stream[i]);
    ASSERT_NE(children.begin(), children.end());
    EXPECT_EQ(doc.value().value(*children.begin()), std::to_string(i + 1));
    if (i > 0) {
      EXPECT_LT(stream[i - 1]->id().pre, stream[i]->id().pre);
    }
  }
  EXPECT_EQ(Labels(doc.value(), doc.value().Labelled(NodeKind::kElement, "a")),
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
  EXPECT_EQ(doc.value().value(*attributes[0]), "p1");
  EXPECT_EQ(doc.value().value(*attributes[1]), "p2");
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
  // A built tree gets identifiers and streams, and both survive moving
  // the document.
  DocumentBuilder tree("a");
  tree.root()->AddElement("b")->AddText("x");
  tree.root()->AddAttribute("id", "7");
  Document built = tree.Finish("t", 0);
  const Document doc = std::move(built);
  EXPECT_EQ(doc.root().id(), (NodeId{1, 4, 1}));
  const auto stream = doc.Labelled(NodeKind::kElement, "b");
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0]->id(), (NodeId{2, 2, 2}));
  EXPECT_EQ(doc.parent(*stream[0]), &doc.root());
  EXPECT_EQ(doc.Labelled(NodeKind::kAttribute, "id").size(), 1u);
}

TEST(DocumentBuilderTest, AppendsToAnyNodeInChildOrder) {
  // `d` goes under `b` after `c` exists, and an attribute goes on the
  // root last: Finish still lays the tree out in pre order, each node's
  // children in the order they were added.
  DocumentBuilder tree("a");
  const DocumentBuilder::NodeRef b = tree.root()->AddElement("b");
  tree.root()->AddElement("c")->AddText("x");
  b->AddElement("d");
  tree.root()->AddAttribute("id", "7");
  const Document doc = tree.Finish("t", 0);
  std::vector<std::string> labels;
  for (const Node& node : doc.nodes()) {
    labels.emplace_back(node.is_text() ? doc.value(node) : doc.label(node));
  }
  EXPECT_EQ(labels,
            (std::vector<std::string>{"a", "b", "d", "c", "x", "id"}));
  EXPECT_EQ(doc.nodes()[2].id(), (NodeId{3, 1, 3}));
  EXPECT_EQ(doc.parent(doc.nodes()[2]), &doc.nodes()[1]);
  EXPECT_EQ(doc.root().end(), 6u);
  EXPECT_EQ(doc.StringValue(doc.root()), "x");
}

// --- Fingerprint ------------------------------------------------------------

// One Fnv1a64 over every node's (kind, label, value, pre, post, depth), in
// pre order.  The constants below pin the DOM that parsing and generation
// produce for the benchmark corpora.
uint64_t Fingerprint(const Document& doc) {
  std::string record;
  for (const Node& node : doc.nodes()) {
    record += StrFormat("%d|%s|%s|%u|%u|%u\n", static_cast<int>(node.kind()),
                        std::string(doc.label(node)).c_str(),
                        std::string(doc.value(node)).c_str(), node.id().pre,
                        node.id().post, node.id().depth);
  }
  return Fnv1a64(record);
}

uint64_t CorpusFingerprint(const xmark::GeneratorConfig& config, int docs,
                           bool parse) {
  const xmark::XmarkGenerator generator(config);
  std::string fingerprints;
  for (int i = 0; i < docs; ++i) {
    uint64_t fingerprint = 0;
    if (parse) {
      const xmark::GeneratedDocument text = generator.Generate(i);
      auto doc = ParseDocument(text.uri, text.text);
      EXPECT_TRUE(doc.ok()) << text.uri;
      if (!doc.ok()) return 0;
      fingerprint = Fingerprint(doc.value());
    } else {
      fingerprint = Fingerprint(generator.GenerateDom(i));
    }
    fingerprints +=
        StrFormat("%016llx", static_cast<unsigned long long>(fingerprint));
  }
  return Fnv1a64(fingerprints);
}

xmark::GeneratorConfig FullSites() {
  xmark::GeneratorConfig config;
  config.num_documents = 60;
  config.entities_per_document = 600;
  return config;
}

xmark::GeneratorConfig Fragments() {
  xmark::GeneratorConfig config;
  config.split_sections = true;
  config.num_documents = 240;
  config.entities_per_document = 40;
  return config;
}

// Parsing a generated text and generating the DOM directly give the same
// nodes: the generator writes no whitespace-only text.
constexpr uint64_t kFullSites = 0x79f3f302fb418694ull;
constexpr uint64_t kFragments = 0xa0c0b138b27e8383ull;

TEST(DomFingerprintTest, ParsedFullSites) {
  EXPECT_EQ(CorpusFingerprint(FullSites(), 5, /*parse=*/true), kFullSites);
}

TEST(DomFingerprintTest, ParsedFragments) {
  EXPECT_EQ(CorpusFingerprint(Fragments(), 20, /*parse=*/true), kFragments);
}

TEST(DomFingerprintTest, GeneratedFullSites) {
  EXPECT_EQ(CorpusFingerprint(FullSites(), 5, /*parse=*/false), kFullSites);
}

TEST(DomFingerprintTest, GeneratedFragments) {
  EXPECT_EQ(CorpusFingerprint(Fragments(), 20, /*parse=*/false), kFragments);
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

TEST(TokenizerTest, ContainsWordIsWholeWordCaseInsensitive) {
  EXPECT_TRUE(ContainsWord("The Lion Hunt", "Lion"));
  EXPECT_TRUE(ContainsWord("The Lion Hunt", "lion"));
  EXPECT_FALSE(ContainsWord("The Lionheart", "lion"));
  EXPECT_FALSE(ContainsWord("The Lion Hunt", "io"));
  EXPECT_TRUE(ContainsWord("year:1854!", "1854"));
  EXPECT_FALSE(ContainsWord("", "x"));
  EXPECT_FALSE(ContainsWord("x", ""));
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
