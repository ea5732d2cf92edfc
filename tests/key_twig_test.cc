#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmark_queries.h"
#include "common/strings.h"
#include "index/key_twig.h"
#include "query/parser.h"

namespace webdex::index {
namespace {

query::Query Parse(std::string_view text) {
  auto q = query::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

const std::string& KeyOf(const KeyTwig& twig, int node) {
  return twig.keys[twig.node_keys[node]];
}

/// The nodes whose edge comes from `node`, in pre-order.
std::vector<int> ChildrenOf(const KeyTwig& twig, int node) {
  std::vector<int> children;
  for (size_t n = 0; n < twig.edges.size(); ++n) {
    if (twig.edges[n].parent == node) children.push_back(static_cast<int>(n));
  }
  return children;
}

TEST(KeyTwigTest, ElementNodesGetElementKeys) {
  const auto query = Parse("//painting[/name, //painter/name]");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  EXPECT_EQ(KeyOf(twig, 0), "epainting");
  EXPECT_EQ(twig.edges[0].parent, -1);
  ASSERT_EQ(ChildrenOf(twig, 0), (std::vector<int>{1, 2}));
  EXPECT_EQ(KeyOf(twig, 1), "ename");
  EXPECT_EQ(twig.edges[1].axis, TwigAxis::kChild);
  EXPECT_EQ(KeyOf(twig, 2), "epainter");
  EXPECT_EQ(twig.edges[2].axis, TwigAxis::kDescendant);
}

TEST(KeyTwigTest, AttributeEqualityUsesValuedKey) {
  const auto query = Parse("//painting/@id='1863-1'");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  ASSERT_EQ(ChildrenOf(twig, 0), std::vector<int>{1});
  EXPECT_EQ(KeyOf(twig, 1), "aid 1863-1");
  EXPECT_TRUE(ChildrenOf(twig, 1).empty());
}

TEST(KeyTwigTest, AttributeWithoutPredicateUsesNameKey) {
  const auto query = Parse("//painting/@id");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  EXPECT_EQ(KeyOf(twig, 1), "aid");
}

TEST(KeyTwigTest, ElementEqualitySynthesizesWordChildren) {
  const auto query = Parse("//painter/name/last='Van Gogh'");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  EXPECT_EQ(KeyOf(twig, 2), "elast");
  // "van" and "gogh"
  ASSERT_EQ(ChildrenOf(twig, 2), (std::vector<int>{3, 4}));
  EXPECT_EQ(KeyOf(twig, 3), "wvan");
  EXPECT_EQ(KeyOf(twig, 4), "wgogh");
  EXPECT_EQ(twig.edges[3].axis, TwigAxis::kDescendant);
}

TEST(KeyTwigTest, ContainmentSynthesizesOneWordNode) {
  const auto query = Parse("//item/description~'Gold!'");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  ASSERT_EQ(ChildrenOf(twig, 1), std::vector<int>{2});
  EXPECT_EQ(KeyOf(twig, 2), "wgold");  // normalized
}

TEST(KeyTwigTest, AttributeContainmentUsesSelfAxis) {
  const auto query = Parse("//item/@id~'47'");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  EXPECT_EQ(KeyOf(twig, 1), "aid");
  ASSERT_EQ(ChildrenOf(twig, 1), std::vector<int>{2});
  EXPECT_EQ(twig.edges[2].axis, TwigAxis::kSelf);
  EXPECT_EQ(KeyOf(twig, 2), "w47");
}

TEST(KeyTwigTest, RangePredicateContributesNothing) {
  const auto query = Parse("//year in(1854,1865]");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  EXPECT_EQ(KeyOf(twig, 0), "eyear");
  EXPECT_EQ(twig.edges.size(), 1u);
}

TEST(KeyTwigTest, NoWordsModeSkipsPredicateNodes) {
  const auto query = Parse("//painting[/year='1854', /name~'Lion']");
  const KeyTwig with_words = BuildKeyTwig(query.patterns()[0], true);
  const KeyTwig without = BuildKeyTwig(query.patterns()[0], false);
  EXPECT_GT(with_words.edges.size(), without.edges.size());
  // The structural skeleton is identical.
  EXPECT_EQ(without.edges.size(), 3u);  // painting, year, name
  // Valued attribute keys are NOT full-text keys and must survive.
  const auto attr_query = Parse("//painting/@id='1863-1'");
  const KeyTwig attr_twig = BuildKeyTwig(attr_query.patterns()[0], false);
  EXPECT_EQ(KeyOf(attr_twig, 1), "aid 1863-1");
}

TEST(KeyTwigTest, DistinctKeysDeduplicates) {
  const auto query = Parse("//name[/name, //name]");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  EXPECT_EQ(twig.edges.size(), 3u);
  EXPECT_EQ(twig.keys, std::vector<std::string>{"ename"});
  EXPECT_EQ(twig.node_keys, (std::vector<uint32_t>{0, 0, 0}));
  // Both query paths end in the one key, fetched once.
  ASSERT_EQ(twig.query_paths.size(), 2u);
  EXPECT_EQ(twig.lookup_keys, std::vector<std::string>{"ename"});
  EXPECT_EQ(twig.lookup_key_ords, std::vector<uint32_t>{0});
  EXPECT_EQ(twig.path_lookup, (std::vector<uint32_t>{0, 0}));
}

TEST(KeyTwigTest, RootToLeafPathsEnumerateBranches) {
  const auto query = Parse("//a[/b/c, //d]");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  const auto& paths = twig.query_paths;
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].LookupKey(), "ec");
  EXPECT_EQ(paths[1].LookupKey(), "ed");
  EXPECT_EQ(paths[0].steps.front().key, "ea");
  EXPECT_EQ(paths[0].ToString(), "//ea/eb/ec");
  EXPECT_EQ(paths[1].ToString(), "//ea//ed");
  EXPECT_EQ(twig.lookup_keys, (std::vector<std::string>{"ec", "ed"}));
  EXPECT_EQ(twig.lookup_key_ords, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(twig.path_lookup, (std::vector<uint32_t>{0, 1}));
}

TEST(KeyTwigTest, PatternNodeIndicesPreserved) {
  // Pattern nodes keep their pre-order positions; a predicate's word
  // node follows its element.
  const auto query = Parse("//a[/b, /c='x']");
  const KeyTwig twig = BuildKeyTwig(query.patterns()[0]);
  ASSERT_EQ(twig.edges.size(), 4u);
  EXPECT_EQ(KeyOf(twig, 0), "ea");
  EXPECT_EQ(KeyOf(twig, 1), "eb");
  EXPECT_EQ(KeyOf(twig, 2), "ec");
  EXPECT_EQ(KeyOf(twig, 3), "wx");
  EXPECT_EQ(twig.edges[3].parent, 2);
}

// --- q1-q10 golden ----------------------------------------------------------

const char* AxisName(TwigAxis axis) {
  switch (axis) {
    case TwigAxis::kChild:
      return "child";
    case TwigAxis::kDescendant:
      return "descendant";
    case TwigAxis::kSelf:
      return "self";
  }
  return "?";
}

/// The distinct keys, every node (edge and key), the query paths and the
/// LUP look-up keys, one per line.
std::string Render(const KeyTwig& twig) {
  std::string out = "  keys:\n";
  for (const auto& key : twig.keys) out += "    " + key + "\n";
  out += "  nodes:\n";
  for (size_t n = 0; n < twig.edges.size(); ++n) {
    out += StrFormat("    %zu parent %d %s ", n, twig.edges[n].parent,
                     AxisName(twig.edges[n].axis)) +
           KeyOf(twig, static_cast<int>(n)) + "\n";
  }
  out += "  query paths:\n";
  for (const auto& path : twig.query_paths) {
    out += "    " + path.ToString() + "\n";
  }
  out += "  lookup keys:\n";
  for (const auto& key : twig.lookup_keys) out += "    " + key + "\n";
  return out;
}

std::string GoldenPath() {
  // __FILE__ is the absolute source path under CMake, so the golden file
  // lives next to this test regardless of the build directory.
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  return path + "/golden/key_twig_q1_q10.txt";
}

// Every q1-q10 pattern's twig, with and without predicate words, against
// tests/golden/key_twig_q1_q10.txt.  Regenerate it with
// WEBDEX_UPDATE_GOLDEN=1 only when the translation is meant to change.
TEST(KeyTwigTest, GoldenQ1Q10) {
  std::string rendered;
  const auto& queries = BenchmarkQueries();
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto query = Parse(queries[q]);
    const auto& patterns = query.patterns();
    for (size_t p = 0; p < patterns.size(); ++p) {
      for (const bool words : {true, false}) {
        rendered += StrFormat("== q%zu pattern %zu words %s\n", q + 1, p + 1,
                              words ? "on" : "off");
        rendered += Render(BuildKeyTwig(patterns[p], words));
      }
    }
  }
  if (std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath();
    out << rendered;
    FAIL() << "golden regenerated at " << GoldenPath()
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << GoldenPath();
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str());
}

}  // namespace
}  // namespace webdex::index
