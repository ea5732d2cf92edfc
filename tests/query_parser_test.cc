#include <gtest/gtest.h>

#include "query/logical_plan.h"
#include "query/parser.h"

namespace webdex::query {
namespace {

Query MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << " -> " << q.status().ToString();
  return std::move(q).value();
}

TEST(QueryParserTest, SingleNode) {
  Query q = MustParse("//painting");
  ASSERT_EQ(q.patterns().size(), 1u);
  const PatternNode& root = q.patterns()[0].root();
  EXPECT_EQ(root.label, "painting");
  EXPECT_EQ(root.axis, Axis::kDescendant);
  EXPECT_FALSE(root.is_attribute);
  EXPECT_TRUE(root.children.empty());
}

TEST(QueryParserTest, RootAxisDefaultsToDescendant) {
  EXPECT_EQ(MustParse("painting").patterns()[0].root().axis,
            Axis::kDescendant);
  EXPECT_EQ(MustParse("/painting").patterns()[0].root().axis, Axis::kChild);
}

TEST(QueryParserTest, PaperQ1) {
  Query q = MustParse("//painting[/name:val, //painter/name:val]");
  const TreePattern& p = q.patterns()[0];
  ASSERT_EQ(p.size(), 4);
  const PatternNode& root = p.root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->label, "name");
  EXPECT_EQ(root.children[0]->axis, Axis::kChild);
  EXPECT_TRUE(root.children[0]->want_val);
  EXPECT_EQ(root.children[1]->label, "painter");
  EXPECT_EQ(root.children[1]->axis, Axis::kDescendant);
  ASSERT_EQ(root.children[1]->children.size(), 1u);
  EXPECT_TRUE(root.children[1]->children[0]->want_val);
  EXPECT_EQ(p.output_nodes().size(), 2u);
}

TEST(QueryParserTest, PaperQ2ContAndEquality) {
  Query q = MustParse("//painting[//description:cont, /year='1854']");
  const PatternNode& root = q.patterns()[0].root();
  EXPECT_TRUE(root.children[0]->want_cont);
  EXPECT_EQ(root.children[0]->axis, Axis::kDescendant);
  EXPECT_EQ(root.children[1]->predicate.kind, PredicateKind::kEquals);
  EXPECT_EQ(root.children[1]->predicate.constant, "1854");
}

TEST(QueryParserTest, PaperQ3Containment) {
  Query q = MustParse("//painting[/name~'Lion', //painter/name/last:val]");
  const PatternNode& root = q.patterns()[0].root();
  EXPECT_EQ(root.children[0]->predicate.kind, PredicateKind::kContains);
  EXPECT_EQ(root.children[0]->predicate.constant, "Lion");
  // Linear path sugar nests painter/name/last.
  EXPECT_EQ(root.children[1]->children[0]->children[0]->label, "last");
}

TEST(QueryParserTest, PaperQ4RangePredicate) {
  Query q = MustParse(
      "//painting[/name:val, /painter/name[/last='Manet'], "
      "/year in(1854,1865]]");
  const PatternNode& year = *q.patterns()[0].root().children[2];
  EXPECT_EQ(year.predicate.kind, PredicateKind::kRange);
  EXPECT_DOUBLE_EQ(year.predicate.lo, 1854);
  EXPECT_DOUBLE_EQ(year.predicate.hi, 1865);
  EXPECT_FALSE(year.predicate.lo_inclusive);
  EXPECT_TRUE(year.predicate.hi_inclusive);
  EXPECT_TRUE(q.HasRangePredicate());
  EXPECT_FALSE(q.HasValueJoins());
}

TEST(QueryParserTest, PaperQ5ValueJoin) {
  Query q = MustParse(
      "//museum[/name:val, /painting/@id#x]; "
      "//painting[/@id#y, /painter/name[/last='Delacroix']] where #x=#y");
  ASSERT_EQ(q.patterns().size(), 2u);
  ASSERT_EQ(q.joins().size(), 1u);
  const ValueJoin& join = q.joins()[0];
  EXPECT_EQ(join.left_pattern, 0);
  EXPECT_EQ(join.right_pattern, 1);
  const PatternNode* left =
      q.patterns()[0].nodes()[static_cast<size_t>(join.left_node)];
  EXPECT_TRUE(left->is_attribute);
  EXPECT_EQ(left->label, "id");
  EXPECT_EQ(left->join_tag, "x");
  EXPECT_TRUE(q.HasValueJoins());
}

TEST(QueryParserTest, AttributesAndMarkers) {
  Query q = MustParse("//item[/@id:val]");
  const PatternNode& attr = *q.patterns()[0].root().children[0];
  EXPECT_TRUE(attr.is_attribute);
  EXPECT_TRUE(attr.want_val);
}

TEST(QueryParserTest, InclusiveRangeBrackets) {
  Query q = MustParse("//price in[10,20)");
  const Predicate& pred = q.patterns()[0].root().predicate;
  EXPECT_TRUE(pred.lo_inclusive);
  EXPECT_FALSE(pred.hi_inclusive);
}

TEST(QueryParserTest, BareWordLiteral) {
  Query q = MustParse("//type=Regular");
  EXPECT_EQ(q.patterns()[0].root().predicate.constant, "Regular");
}

TEST(QueryParserTest, PathContinuationAfterBracket) {
  // XPath-style //g[/v='2']/n is sugar for //g[/v='2', /n].
  Query q = MustParse("//g[/v='2']/n:val");
  const PatternNode& root = q.patterns()[0].root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->label, "v");
  EXPECT_EQ(root.children[1]->label, "n");
  EXPECT_TRUE(root.children[1]->want_val);
  EXPECT_EQ(MustParse("//g[/v='2', /n:val]").ToString(), q.ToString());
}

TEST(QueryParserTest, ToStringRoundTrips) {
  const char* queries[] = {
      "//painting[/name:val, //painter/name:val]",
      "//painting[//description:cont, /year='1854']",
      "//item[/@id:val, /description~'gold']",
      "//price in(10,20]",
  };
  for (const char* text : queries) {
    Query q = MustParse(text);
    Query reparsed = MustParse(q.ToString());
    EXPECT_EQ(reparsed.ToString(), q.ToString()) << text;
  }
}

// --- Error cases -------------------------------------------------------------

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("//a[").ok());
  EXPECT_FALSE(ParseQuery("//a[b]").ok());  // child without axis
  EXPECT_FALSE(ParseQuery("//a]").ok());
  EXPECT_FALSE(ParseQuery("//a='unterminated").ok());
  EXPECT_FALSE(ParseQuery("//a in(5,1]").ok());   // inverted range
  EXPECT_FALSE(ParseQuery("//a in 1,2]").ok());   // missing bracket
  EXPECT_FALSE(ParseQuery("//a ; //b where #x=#y").ok());  // unknown tags
  EXPECT_FALSE(ParseQuery("//a#x ; //b").ok());   // dangling join tag
  EXPECT_FALSE(ParseQuery("//a//").ok());
  EXPECT_FALSE(ParseQuery("//a trailing").ok());
}

TEST(QueryParserTest, PredicateMatchesSemantics) {
  Predicate eq;
  eq.kind = PredicateKind::kEquals;
  eq.constant = "1854";
  EXPECT_TRUE(eq.Matches("1854"));
  EXPECT_TRUE(eq.Matches("  1854 "));  // trimmed
  EXPECT_FALSE(eq.Matches("18540"));

  Predicate contains;
  contains.kind = PredicateKind::kContains;
  contains.constant = "Lion";
  EXPECT_TRUE(contains.Matches("The Lion Hunt"));
  EXPECT_FALSE(contains.Matches("Lioness"));

  Predicate range;
  range.kind = PredicateKind::kRange;
  range.lo = 1854;
  range.hi = 1865;
  range.lo_inclusive = false;
  range.hi_inclusive = true;
  EXPECT_FALSE(range.Matches("1854"));
  EXPECT_TRUE(range.Matches("1855"));
  EXPECT_TRUE(range.Matches("1865"));
  EXPECT_FALSE(range.Matches("1866"));
  EXPECT_FALSE(range.Matches("not-a-number"));
  EXPECT_FALSE(range.Matches(""));
}

TEST(QueryParserTest, RootToLeafPaths) {
  // One root-to-leaf branch per leaf of the pattern.
  const LogicalPlan plan =
      LogicalPlan::Build(MustParse("//painting[/name, //painter/name/last]"));
  ASSERT_EQ(plan.patterns().size(), 1u);
  EXPECT_EQ(plan.patterns()[0].nodes, 5);
  EXPECT_EQ(plan.patterns()[0].branches, 2);
  EXPECT_EQ(LogicalPlan::Build(MustParse("//a[/b[/c, /d], /e/f]"))
                .patterns()[0]
                .branches,
            3);
  EXPECT_EQ(LogicalPlan::Build(MustParse("//a")).patterns()[0].branches, 1);
}

}  // namespace
}  // namespace webdex::query
