#include <gtest/gtest.h>

#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/paintings.h"
#include "xml/parser.h"

namespace webdex::query {
namespace {

xml::Document Doc(const std::string& uri, const std::string& text) {
  auto doc = xml::ParseDocument(uri, text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

Query Q(std::string_view text) {
  auto q = ParseQuery(text);
  if (!q.ok()) {
    ADD_FAILURE() << text << " -> " << q.status().ToString();
    return Query({}, {});
  }
  return std::move(q).value();
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    for (const auto& generated : xmark::Figure3Documents()) {
      docs_.push_back(Doc(generated.uri, generated.text));
    }
    for (const auto& doc : docs_) doc_ptrs_.push_back(&doc);
  }

  std::vector<xml::Document> docs_;
  std::vector<const xml::Document*> doc_ptrs_;
};

TEST_F(EvaluatorTest, Q1PairsNameWithPainterName) {
  // q1 of Figure 2 over the Figure 3 documents.
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/name:val, //painter/name:val]"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0],
            (std::vector<std::string>{"The Lion Hunt", "EugeneDelacroix"}));
  EXPECT_EQ(result.rows[1],
            (std::vector<std::string>{"Olympia", "EdouardManet"}));
}

TEST_F(EvaluatorTest, ContainsPredicateSelectsLionHunt) {
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/name~'Lion', //painter/name/last:val]"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "Delacroix");
}

TEST_F(EvaluatorTest, AttributeEquality) {
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/@id='1863-1', /name:val]"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "Olympia");
}

TEST_F(EvaluatorTest, ContOutputsSerializedSubtree) {
  const QueryResult result =
      Evaluator::Evaluate(Q("//painter/name:cont"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0],
            "<name><first>Eugene</first><last>Delacroix</last></name>");
}

TEST_F(EvaluatorTest, DescendantVsChildAxis) {
  const xml::Document doc = Doc("d", "<a><b><c>x</c></b></a>");
  EXPECT_TRUE(Evaluator::Matches(Q("//a[//c]").patterns()[0], doc));
  EXPECT_FALSE(Evaluator::Matches(Q("//a[/c]").patterns()[0], doc));
  EXPECT_TRUE(Evaluator::Matches(Q("//a[/b[/c]]").patterns()[0], doc));
}

TEST_F(EvaluatorTest, RootChildAxisAnchorsAtDocumentRoot) {
  const xml::Document doc = Doc("d", "<a><a>x</a></a>");
  // '/a' matches only the document element; '//a' matches both.
  const auto anchored = Evaluator::MatchPattern(
      Q("/a:val").patterns()[0], doc);
  EXPECT_EQ(anchored.size(), 1u);
  const auto floating = Evaluator::MatchPattern(
      Q("//a:val").patterns()[0], doc);
  EXPECT_EQ(floating.size(), 2u);
}

TEST_F(EvaluatorTest, AllEmbeddingsEnumerated) {
  const xml::Document doc =
      Doc("d", "<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>");
  const auto matches =
      Evaluator::MatchPattern(Q("//a[/b:val]").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].outputs[0], "1");
  EXPECT_EQ(matches[1].outputs[0], "2");
  EXPECT_EQ(matches[2].outputs[0], "3");
}

TEST_F(EvaluatorTest, MultiBranchCartesianProduct) {
  const xml::Document doc =
      Doc("d", "<r><a>1</a><a>2</a><b>x</b><b>y</b></r>");
  const auto matches = Evaluator::MatchPattern(
      Q("//r[/a:val, /b:val]").patterns()[0], doc);
  EXPECT_EQ(matches.size(), 4u);  // 2 a's x 2 b's
}

TEST_F(EvaluatorTest, RangePredicateOnNumericText) {
  const xml::Document doc = Doc(
      "d", "<r><p><y>1850</y></p><p><y>1860</y></p><p><y>1870</y></p></r>");
  const auto matches = Evaluator::MatchPattern(
      Q("//p[/y:val in(1854,1865]]").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "1860");
}

TEST_F(EvaluatorTest, ValueJoinAcrossDocuments) {
  // q5 of Figure 2 against a generated paintings corpus.
  std::vector<xml::Document> docs;
  for (const auto& generated : xmark::GeneratePaintings()) {
    docs.push_back(Doc(generated.uri, generated.text));
  }
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);

  const QueryResult result = Evaluator::Evaluate(
      Q("//museum[/name:val, /painting/@id#x]; "
        "//painting[/@id#y, /painter/name[/last='Delacroix']] where #x=#y"),
      ptrs);
  ASSERT_FALSE(result.rows.empty());
  // Every returned museum must list a Delacroix painting id; painting #0
  // ("The Lion Hunt", id 1854-1) belongs to museum 0.
  bool found_louvre = false;
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.size(), 1u);
    if (row[0] == "Louvre Museum") found_louvre = true;
  }
  EXPECT_TRUE(found_louvre);
}

TEST_F(EvaluatorTest, JoinMismatchYieldsNoRows) {
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/@id#a]; //painter[/name/last#b] where #a=#b"),
      doc_ptrs_);
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(EvaluatorTest, NoMatchesYieldEmptyResult) {
  const QueryResult result =
      Evaluator::Evaluate(Q("//sculpture"), doc_ptrs_);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.SizeBytes(), 0u);
}

TEST_F(EvaluatorTest, ResultXmlSerialization) {
  QueryResult result;
  result.rows = {{"a & b", "<name>x</name>"}};
  result.xml_columns = {false, true};
  const std::string xml = result.ToXml();
  EXPECT_EQ(xml,
            "<results><row><col>a &amp; b</col><col><name>x</name></col>"
            "</row></results>");
  EXPECT_GT(result.SizeBytes(), 0u);
}

TEST_F(EvaluatorTest, ResultXmlEscapesValColumnsByKind) {
  // The string value "<x> y" came from escaped source text; it is text,
  // not markup, even though it starts with '<'.
  const xml::Document doc = Doc("d", "<a><b>&lt;x&gt; y</b></a>");
  const QueryResult result = Evaluator::Evaluate(Q("//b:val"), {&doc});
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "<x> y");
  const std::string xml = result.ToXml();
  EXPECT_EQ(xml, "<results><row><col>&lt;x&gt; y</col></row></results>");
  const auto reparsed = xml::ParseDocument("r", xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().StringValue(reparsed.value().root()), "<x> y");
}

TEST_F(EvaluatorTest, ResultXmlKeepsElementContRawAndEscapesAttributeCont) {
  const xml::Document doc = Doc("d", "<a id=\"7\"><b>x</b></a>");
  const QueryResult result =
      Evaluator::Evaluate(Q("//a[/@id:cont, /b:cont]"), {&doc});
  EXPECT_EQ(result.xml_columns, (std::vector<bool>{false, true}));
  EXPECT_EQ(result.ToXml(),
            "<results><row><col>id=&quot;7&quot;</col><col><b>x</b></col>"
            "</row></results>");
}

TEST_F(EvaluatorTest, AttributePatternRootMatchesAttributes) {
  const xml::Document doc = Doc("d", "<a id=\"7\"><b id=\"8\"/></a>");
  const auto matches =
      Evaluator::MatchPattern(Q("//@id:val").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].outputs[0], "7");
  EXPECT_EQ(matches[1].outputs[0], "8");
}

TEST_F(EvaluatorTest, ContOnAttributeSerializesNameValue) {
  const xml::Document doc = Doc("d", "<a id=\"7\"/>");
  const auto matches =
      Evaluator::MatchPattern(Q("//a/@id:cont").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "id=\"7\"");
}

TEST_F(EvaluatorTest, MixedContentStringValue) {
  const xml::Document doc =
      Doc("d", "<p>one <b>two</b> three</p>");
  const auto matches =
      Evaluator::MatchPattern(Q("//p:val").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "one two three");
}

TEST_F(EvaluatorTest, ContributingDocumentsCountsJoinSides) {
  std::vector<xml::Document> docs;
  docs.push_back(Doc("left", "<a><k>1</k></a>"));
  docs.push_back(Doc("right", "<b><k>1</k></b>"));
  docs.push_back(Doc("noise", "<b><k>2</k></b>"));
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);
  const QueryResult result = Evaluator::Evaluate(
      Q("//a/k#x; //b/k#y where #x=#y"), ptrs);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.ContributingDocuments(), 2u);
  ASSERT_EQ(result.row_uris.size(), 1u);
  EXPECT_EQ(result.row_uris[0],
            (std::vector<std::string>{"left", "right"}));
}

TEST_F(EvaluatorTest, PredicateOnInternalNode) {
  const xml::Document doc =
      Doc("d", "<r><g><n>x</n><v>1</v></g><g><n>y</n><v>2</v></g></r>");
  const auto matches = Evaluator::MatchPattern(
      Q("//g[/v='2']/n:val").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "y");
}

TEST_F(EvaluatorTest, WorkStatsAccumulateAndReset) {
  (void)Evaluator::ConsumeWorkStats();
  (void)Evaluator::Evaluate(Q("//painting[/name:val]"), doc_ptrs_);
  const auto stats = Evaluator::ConsumeWorkStats();
  EXPECT_GT(stats.doc_bytes_scanned, 0u);
  EXPECT_EQ(stats.embeddings_found, 2u);
  const auto after = Evaluator::ConsumeWorkStats();
  EXPECT_EQ(after.doc_bytes_scanned, 0u);
}

}  // namespace
}  // namespace webdex::query
