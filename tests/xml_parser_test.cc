#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmark/xmark_generator.h"

namespace webdex::xml {
namespace {

Result<Document> Parse(std::string_view text) {
  return ParseDocument("test.xml", text);
}

TEST(XmlParserTest, MinimalDocument) {
  auto doc = Parse("<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().label(), "a");
  EXPECT_TRUE(doc.value().root().children().empty());
  EXPECT_EQ(doc.value().uri(), "test.xml");
  EXPECT_EQ(doc.value().size_bytes(), 4u);
}

TEST(XmlParserTest, NestedElementsAndText) {
  auto doc = Parse("<a><b>hello</b><c>world</c></a>");
  ASSERT_TRUE(doc.ok());
  const Node& root = doc.value().root();
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.children()[0]->label(), "b");
  EXPECT_EQ(root.children()[0]->StringValue(), "hello");
  EXPECT_EQ(root.StringValue(), "helloworld");
}

TEST(XmlParserTest, AttributesBecomeAttributeNodes) {
  auto doc = Parse("<painting id=\"1854-1\" style='oil'/>");
  ASSERT_TRUE(doc.ok());
  const Node& root = doc.value().root();
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_TRUE(root.children()[0]->is_attribute());
  EXPECT_EQ(root.children()[0]->label(), "id");
  EXPECT_EQ(root.children()[0]->value(), "1854-1");
  EXPECT_EQ(root.children()[1]->value(), "oil");
}

TEST(XmlParserTest, XmlDeclarationAndComments) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!-- top --><a><!-- inner -->x</a><!-- end "
      "-->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "x");
}

TEST(XmlParserTest, CdataPreservedVerbatim) {
  auto doc = Parse("<a><![CDATA[5 < 6 & more]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "5 < 6 & more");
}

TEST(XmlParserTest, PredefinedEntities) {
  auto doc = Parse("<a attr=\"&quot;q&quot;\">&lt;&amp;&gt;&apos;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "<&>'");
  EXPECT_EQ(doc.value().root().children()[0]->value(), "\"q\"");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  auto doc = Parse("<a>&#65;&#x42;&#233;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "AB\xC3\xA9");
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
  EXPECT_EQ(doc.value().root().StringValue(), "\tA\xF4\x8F\xBF\xBF");
}

TEST(XmlParserTest, WhitespaceTextSkippedByDefault) {
  auto doc = Parse("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().root().children().size(), 1u);
}

TEST(XmlParserTest, WhitespaceTextKeptOnRequest) {
  ParserOptions options;
  options.skip_whitespace_text = false;
  auto doc = ParseDocument("t.xml", "<a> <b>x</b> </a>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().children().size(), 3u);
}

TEST(XmlParserTest, ProcessingInstructionsSkipped) {
  auto doc = Parse("<a><?php echo ?>x</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "x");
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
  EXPECT_EQ(doc.value().root().StringValue(), "x");
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
  const std::string serialized = Serialize(doc.value().root());
  EXPECT_EQ(serialized, original);
  auto reparsed = Parse(serialized);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(Serialize(reparsed.value().root()), original);
}

TEST(XmlParserTest, SerializerEscapesSpecials) {
  auto doc = Parse("<a x=\"&lt;&quot;\">a &amp; b</a>");
  ASSERT_TRUE(doc.ok());
  const std::string out = Serialize(doc.value().root());
  EXPECT_EQ(out, "<a x=\"&lt;&quot;\">a &amp; b</a>");
}

TEST(XmlParserTest, IndentedSerialization) {
  auto doc = Parse("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  SerializerOptions options;
  options.indent = true;
  const std::string out = Serialize(doc.value().root(), options);
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
  EXPECT_EQ(doc.value().root().label(), "site");
  const std::string once = Serialize(doc.value().root());
  auto reparsed = ParseDocument(generated.uri, once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(Serialize(reparsed.value().root()), once);
}

INSTANTIATE_TEST_SUITE_P(FirstDocs, XmarkRoundTrip,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace webdex::xml
