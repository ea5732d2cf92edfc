#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "index/keys.h"
#include "index/path_match.h"
#include "query/parser.h"

namespace webdex::index {
namespace {

QueryPath MakePath(std::initializer_list<QueryPathStep> steps) {
  QueryPath path;
  path.steps = steps;
  return path;
}

// Splits a stored data path and matches it, as the look-up does.
bool MatchesPath(const QueryPath& query, std::string_view data_path) {
  std::string scratch;
  std::vector<std::string_view> components;
  SplitPathInto(data_path, &scratch, &components);
  return PathMatches(query, components.data(), components.size());
}

constexpr TwigAxis kChild = TwigAxis::kChild;
constexpr TwigAxis kDesc = TwigAxis::kDescendant;

TEST(PathMatchTest, ExactChildChain) {
  const QueryPath q = MakePath({{kDesc, "ea"}, {kChild, "eb"}});
  EXPECT_TRUE(MatchesPath(q, "/ea/eb"));
  EXPECT_TRUE(MatchesPath(q, "/er/ea/eb"));
  EXPECT_FALSE(MatchesPath(q, "/ea/ex/eb"));  // child gap
  EXPECT_FALSE(MatchesPath(q, "/eb"));
}

TEST(PathMatchTest, DescendantGaps) {
  const QueryPath q = MakePath({{kDesc, "ea"}, {kDesc, "eb"}});
  EXPECT_TRUE(MatchesPath(q, "/ea/eb"));
  EXPECT_TRUE(MatchesPath(q, "/ea/ex/ey/eb"));
  EXPECT_FALSE(MatchesPath(q, "/eb/ea"));
}

TEST(PathMatchTest, RootAnchoredChildAxis) {
  const QueryPath q = MakePath({{kChild, "ea"}, {kChild, "eb"}});
  EXPECT_TRUE(MatchesPath(q, "/ea/eb"));
  EXPECT_FALSE(MatchesPath(q, "/er/ea/eb"));  // 'ea' must be the root
}

TEST(PathMatchTest, LastStepMustBeLastComponent) {
  const QueryPath q = MakePath({{kDesc, "ea"}});
  EXPECT_TRUE(MatchesPath(q, "/ea"));
  EXPECT_TRUE(MatchesPath(q, "/er/ea"));
  EXPECT_FALSE(MatchesPath(q, "/ea/eb"));
}

TEST(PathMatchTest, RepeatedLabels) {
  // //a/a must find two consecutive a's.
  const QueryPath q = MakePath({{kDesc, "ea"}, {kChild, "ea"}});
  EXPECT_TRUE(MatchesPath(q, "/ea/ea"));
  EXPECT_TRUE(MatchesPath(q, "/er/ea/ea"));
  EXPECT_FALSE(MatchesPath(q, "/ea/eb/ea"));
  EXPECT_TRUE(MatchesPath(q, "/ea/eb/ea/ea"));  // backtracking required
}

TEST(PathMatchTest, EmptyInputs) {
  EXPECT_FALSE(MatchesPath(MakePath({}), "/ea"));
  EXPECT_FALSE(PathMatches(MakePath({{kDesc, "ea"}}), nullptr, 0));
}

TEST(PathMatchTest, PaperQ1Paths) {
  // Section 5.2's example: //epainting/ename and
  // //epainting//epainter/ename.
  const QueryPath name_path =
      MakePath({{kDesc, "epainting"}, {kChild, "ename"}});
  const QueryPath painter_path = MakePath(
      {{kDesc, "epainting"}, {kDesc, "epainter"}, {kChild, "ename"}});
  EXPECT_TRUE(MatchesPath(name_path, "/epainting/ename"));
  EXPECT_FALSE(MatchesPath(name_path, "/epainting/epainter/ename"));
  EXPECT_TRUE(MatchesPath(painter_path, "/epainting/epainter/ename"));
  EXPECT_FALSE(MatchesPath(painter_path, "/epainting/ename"));
}

TEST(PathMatchTest, BuildQueryPathsFromPattern) {
  auto query = query::ParseQuery(
      "//painting[/name~'Lion', //painter/name/last]");
  ASSERT_TRUE(query.ok());
  const KeyTwig twig = BuildKeyTwig(query.value().patterns()[0]);
  const auto& paths = twig.query_paths;
  ASSERT_EQ(paths.size(), 2u);
  // First branch extends through the containment word.
  EXPECT_EQ(paths[0].ToString(), "//epainting/ename//wlion");
  EXPECT_EQ(paths[0].LookupKey(), "wlion");
  EXPECT_EQ(paths[1].ToString(),
            "//epainting//epainter/ename/elast");
}

TEST(PathMatchTest, AttributeEqualityUsesValuedKeyInPath) {
  auto query = query::ParseQuery("//painting/@id='1863-1'");
  ASSERT_TRUE(query.ok());
  const KeyTwig twig = BuildKeyTwig(query.value().patterns()[0]);
  const auto& paths = twig.query_paths;
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].LookupKey(), "aid 1863-1");
  EXPECT_TRUE(MatchesPath(paths[0], "/epainting/aid 1863-1"));
}

TEST(PathMatchTest, SelfAxisWordRendersAsChildStep) {
  auto query = query::ParseQuery("//item/@id~'47'");
  ASSERT_TRUE(query.ok());
  const KeyTwig twig = BuildKeyTwig(query.value().patterns()[0]);
  const auto& paths = twig.query_paths;
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].steps.back().key, "w47");
  EXPECT_EQ(paths[0].steps.back().axis, TwigAxis::kChild);
  EXPECT_TRUE(MatchesPath(paths[0], "/esite/eitem/aid/w47"));
}

}  // namespace
}  // namespace webdex::index
