#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmark/xmark_generator.h"

namespace webdex::xml {
namespace {

Result<Document> Parse(std::string_view text) {
  return ParseDocument("test.xml", text);
}

std::vector<const Node*> RootChildren(const Document& doc) {
  std::vector<const Node*> children;
  for (const Node& child : doc.children(doc.root())) {
    children.push_back(&child);
  }
  return children;
}

std::string RootValue(const Document& doc) {
  return doc.StringValue(doc.root());
}

std::string SerializeRoot(const Document& doc,
                          const SerializerOptions& options = {}) {
  return Serialize(doc, doc.root(), options);
}

TEST(XmlParserTest, MinimalDocument) {
  auto doc = Parse("<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().label(doc.value().root()), "a");
  EXPECT_TRUE(RootChildren(doc.value()).empty());
  EXPECT_EQ(doc.value().uri(), "test.xml");
  EXPECT_EQ(doc.value().size_bytes(), 4u);
}

TEST(XmlParserTest, NestedElementsAndText) {
  auto doc = Parse("<a><b>hello</b><c>world</c></a>");
  ASSERT_TRUE(doc.ok());
  const std::vector<const Node*> children = RootChildren(doc.value());
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(doc.value().label(*children[0]), "b");
  EXPECT_EQ(doc.value().StringValue(*children[0]), "hello");
  EXPECT_EQ(RootValue(doc.value()), "helloworld");
}

TEST(XmlParserTest, AttributesBecomeAttributeNodes) {
  auto doc = Parse("<painting id=\"1854-1\" style='oil'/>");
  ASSERT_TRUE(doc.ok());
  const std::vector<const Node*> children = RootChildren(doc.value());
  ASSERT_EQ(children.size(), 2u);
  EXPECT_TRUE(children[0]->is_attribute());
  EXPECT_EQ(doc.value().label(*children[0]), "id");
  EXPECT_EQ(doc.value().value(*children[0]), "1854-1");
  EXPECT_EQ(doc.value().value(*children[1]), "oil");
}

TEST(XmlParserTest, XmlDeclarationAndComments) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!-- top --><a><!-- inner -->x</a><!-- end "
      "-->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootValue(doc.value()), "x");
}

TEST(XmlParserTest, CdataPreservedVerbatim) {
  auto doc = Parse("<a><![CDATA[5 < 6 & more]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootValue(doc.value()), "5 < 6 & more");
}

TEST(XmlParserTest, PredefinedEntities) {
  auto doc = Parse("<a attr=\"&quot;q&quot;\">&lt;&amp;&gt;&apos;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootValue(doc.value()), "<&>'");
  EXPECT_EQ(doc.value().value(*RootChildren(doc.value())[0]), "\"q\"");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  auto doc = Parse("<a>&#65;&#x42;&#233;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootValue(doc.value()), "AB\xC3\xA9");
}

TEST(XmlParserTest, CharacterReferencesMustNameAnXmlChar) {
  // Past U+10FFFF, far past it (not UTF-8 at all), a surrogate, a NUL,
  // and bodies that are not wholly digits.
  for (const char* text :
       {"<a>&#x110000;</a>", "<a>&#x7FFFFFFF;</a>", "<a>&#xD800;</a>",
        "<a>&#0;</a>", "<a>&#12abc;</a>", "<a>&#x;</a>", "<a>&#;</a>",
        "<a>&#xFFFE;</a>", "<a>&#99999999999999999999;</a>"}) {
    const auto doc = Parse(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_TRUE(doc.status().IsCorruption()) << text;
    EXPECT_NE(doc.status().ToString().find("bad character reference"),
              std::string::npos)
        << text << ": " << doc.status().ToString();
  }
  // The edges of the Char ranges still decode.
  const auto doc = Parse("<a>&#9;&#x41;&#x10FFFF;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(RootValue(doc.value()), "\tA\xF4\x8F\xBF\xBF");
}

TEST(XmlParserTest, WhitespaceTextSkippedByDefault) {
  auto doc = Parse("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(RootChildren(doc.value()).size(), 1u);
}

TEST(XmlParserTest, WhitespaceTextKeptOnRequest) {
  ParserOptions options;
  options.skip_whitespace_text = false;
  auto doc = ParseDocument("t.xml", "<a> <b>x</b> </a>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootChildren(doc.value()).size(), 3u);
}

TEST(XmlParserTest, ProcessingInstructionsSkipped) {
  auto doc = Parse("<a><?php echo ?>x</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootValue(doc.value()), "x");
}

TEST(XmlParserTest, MismatchedTagFails) {
  EXPECT_TRUE(Parse("<a><b></a></b>").status().IsCorruption());
}

TEST(XmlParserTest, UnterminatedElementFails) {
  EXPECT_TRUE(Parse("<a><b>").status().IsCorruption());
}

TEST(XmlParserTest, TrailingContentFails) {
  EXPECT_TRUE(Parse("<a/><b/>").status().IsCorruption());
}

TEST(XmlParserTest, UnknownEntityFails) {
  EXPECT_TRUE(Parse("<a>&nope;</a>").status().IsCorruption());
}

TEST(XmlParserTest, DoctypeInternalSubsetRejected) {
  EXPECT_TRUE(
      Parse("<!DOCTYPE a [<!ENTITY x \"y\">]><a>&x;</a>").status()
          .IsCorruption());
}

TEST(XmlParserTest, SimpleDoctypeSkipped) {
  auto doc = Parse("<!DOCTYPE html><a>x</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RootValue(doc.value()), "x");
}

TEST(XmlParserTest, ErrorMessagesCarryLineNumbers) {
  auto doc = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

TEST(XmlParserTest, SerializeParseRoundTrip) {
  const std::string original =
      "<painting id=\"1863-1\"><name>Olympia &amp; more</name>"
      "<painter><name><first>Edouard</first><last>Manet</last></name>"
      "</painter></painting>";
  auto doc = Parse(original);
  ASSERT_TRUE(doc.ok());
  const std::string serialized = SerializeRoot(doc.value());
  EXPECT_EQ(serialized, original);
  auto reparsed = Parse(serialized);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(SerializeRoot(reparsed.value()), original);
}

TEST(XmlParserTest, SerializerEscapesSpecials) {
  auto doc = Parse("<a x=\"&lt;&quot;\">a &amp; b</a>");
  ASSERT_TRUE(doc.ok());
  const std::string out = SerializeRoot(doc.value());
  EXPECT_EQ(out, "<a x=\"&lt;&quot;\">a &amp; b</a>");
}

TEST(XmlParserTest, IndentedSerialization) {
  auto doc = Parse("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  SerializerOptions options;
  options.indent = true;
  const std::string out = SerializeRoot(doc.value(), options);
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
}

TEST(XmlParserTest, DepthLimitRejectsStackBombs) {
  // 600 levels of nesting against the default 512-level limit.
  std::string bomb, close;
  for (int i = 0; i < 600; ++i) {
    bomb += "<a>";
    close += "</a>";
  }
  auto doc = Parse(bomb + close);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("max_depth"), std::string::npos);

  // A custom limit admits deeper trees.
  ParserOptions options;
  options.max_depth = 1000;
  EXPECT_TRUE(ParseDocument("deep", bomb + close, options).ok());

  // Depth counts the live chain, not total elements: many shallow
  // siblings are fine.
  std::string wide = "<r>";
  for (int i = 0; i < 2000; ++i) wide += "<a/>";
  wide += "</r>";
  EXPECT_TRUE(Parse(wide).ok());
}

// Property: every generated XMark document parses, and re-serializing the
// parse is a fixed point.
class XmarkRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(XmarkRoundTrip, GeneratedDocumentParses) {
  xmark::GeneratorConfig config;
  config.num_documents = 50;
  xmark::XmarkGenerator generator(config);
  const auto generated = generator.Generate(GetParam());
  auto doc = ParseDocument(generated.uri, generated.text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().label(doc.value().root()), "site");
  const std::string once = SerializeRoot(doc.value());
  auto reparsed = ParseDocument(generated.uri, once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(SerializeRoot(reparsed.value()), once);
}

INSTANTIATE_TEST_SUITE_P(FirstDocs, XmarkRoundTrip,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace webdex::xml
