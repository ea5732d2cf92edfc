#include <gtest/gtest.h>

#include "index/summary.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::index {
namespace {

query::Query Parse(std::string_view text) {
  auto q = query::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

PatternProfile ProfileOf(const PathSummary& summary, std::string_view text) {
  return summary.Profile(BuildKeyTwig(Parse(text).patterns()[0]));
}

void Add(PathSummary* summary, const std::string& xml) {
  static int counter = 0;
  auto doc = xml::ParseDocument("doc" + std::to_string(counter++), xml);
  ASSERT_TRUE(doc.ok());
  summary->AddDocument(ExtractDocIndex(doc.value()));
}

TEST(PathSummaryTest, CountsDocumentsPerKeyAndPath) {
  PathSummary summary;
  Add(&summary, "<a><b>x</b></a>");
  Add(&summary, "<a><b>y</b><b>z</b></a>");  // b twice, counts once
  Add(&summary, "<a><c>x</c></a>");
  EXPECT_EQ(summary.documents(), 3u);
  EXPECT_EQ(summary.DocsWithKey("eb"), 2u);
  EXPECT_EQ(summary.DocsWithKey("ec"), 1u);
  EXPECT_EQ(summary.DocsWithKey("ea"), 3u);
  EXPECT_EQ(summary.DocsWithKey("enope"), 0u);
}

TEST(PathSummaryTest, PathEstimatesRespectStructure) {
  PathSummary summary;
  Add(&summary, "<a><b><c>x</c></b></a>");
  Add(&summary, "<a><c>x</c></a>");
  QueryPath direct;
  direct.steps = {{TwigAxis::kDescendant, "ea"}, {TwigAxis::kChild, "ec"}};
  EXPECT_EQ(summary.DocsMatchingPath(direct), 1u);  // only the flat doc
  QueryPath anywhere;
  anywhere.steps = {{TwigAxis::kDescendant, "ea"},
                    {TwigAxis::kDescendant, "ec"}};
  EXPECT_EQ(summary.DocsMatchingPath(anywhere), 2u);
}

TEST(PathSummaryTest, LuAndLupEstimatesAreUpperBoundsOfEachOther) {
  PathSummary summary;
  Add(&summary, "<a><b>x</b></a>");
  Add(&summary, "<r><b>y</b></r>");
  const PatternProfile profile = ProfileOf(summary, "//a/b");
  // LU only knows 'ea' and 'eb' occur: both docs have 'eb', one has 'ea'.
  EXPECT_EQ(profile.key_docs, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(profile.LuDocs(), 1u);
  EXPECT_EQ(profile.LupDocs(), 1u);
  EXPECT_EQ(ProfileOf(summary, "//b").LuDocs(), 2u);
}

TEST(PathSummaryTest, AdvisesLupForLinearPatterns) {
  PathSummary summary;
  Add(&summary, "<a><b>x</b></a>");
  EXPECT_EQ(ProfileOf(summary, "//a/b").AdvisedLookup(), StrategyKind::kLUP);
}

TEST(PathSummaryTest, AdvisesLuiWhenBranchesNeverCoOccur) {
  // Half the corpus has a[b], half a[c]; both linear paths are common
  // but never together — paper Section 8.5's LUI case.
  PathSummary summary;
  for (int i = 0; i < 10; ++i) Add(&summary, "<a><b>x</b></a>");
  for (int i = 0; i < 10; ++i) Add(&summary, "<a><c>x</c></a>");
  const PatternProfile profile = ProfileOf(summary, "//a[/b, /c]");
  EXPECT_EQ(profile.path_docs, (std::vector<uint64_t>{10, 10}));
  EXPECT_DOUBLE_EQ(profile.LupFraction(), 0.5);
  EXPECT_DOUBLE_EQ(profile.IndependentDocs(), 5.0);
  EXPECT_EQ(profile.AdvisedLookup(), StrategyKind::kLUI);
}

TEST(PathSummaryTest, AdvisesLupWhenBranchesCoOccur) {
  // Every document matches both branches: path matching is as good as
  // the twig join, so the cheaper LUP look-up wins.
  PathSummary summary;
  for (int i = 0; i < 20; ++i) Add(&summary, "<a><b>x</b><c>y</c></a>");
  EXPECT_EQ(ProfileOf(summary, "//a[/b, /c]").AdvisedLookup(),
            StrategyKind::kLUP);
}

TEST(PathSummaryTest, SelectivePatternsAdviseLup) {
  // Branches individually rare: LUP's pre-filter already prunes hard.
  PathSummary summary;
  Add(&summary, "<a><b>x</b><c>y</c></a>");
  for (int i = 0; i < 40; ++i) Add(&summary, "<a><d>z</d></a>");
  EXPECT_EQ(ProfileOf(summary, "//a[/b, /c]").AdvisedLookup(),
            StrategyKind::kLUP);
}

TEST(PathSummaryTest, WorksOverXmarkCorpus) {
  xmark::GeneratorConfig config;
  config.num_documents = 30;
  config.entities_per_document = 8;
  xmark::XmarkGenerator generator(config);
  PathSummary summary;
  for (int i = 0; i < config.num_documents; ++i) {
    summary.AddDocument(ExtractDocIndex(generator.GenerateDom(i)));
  }
  EXPECT_EQ(summary.documents(), 30u);
  EXPECT_GT(summary.distinct_paths(), 50u);
  // Sanity: estimates never exceed the corpus.
  for (const char* text :
       {"//item[/name, /payment]", "//person//city", "//open_auction"}) {
    const PatternProfile profile = ProfileOf(summary, text);
    EXPECT_LE(profile.LuDocs(), 30u) << text;
    EXPECT_LE(profile.LupDocs(), 30u) << text;
    EXPECT_LE(profile.TwigJoinDocs(), 30.0) << text;
  }
}

}  // namespace
}  // namespace webdex::index
