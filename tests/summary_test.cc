#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "benchmark_queries.h"
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

/// PathSummary's counts from plain maps: per key and per data path, the
/// documents containing it, and a query path's estimate by a scan of
/// every data path, matched by component strings.
struct SummaryReference {
  uint64_t documents = 0;
  std::map<std::string, uint64_t> docs_per_key;
  std::map<PathHandle, uint64_t> docs_per_path;

  void Add(const DocIndex& index) {
    ++documents;
    std::set<std::string> keys;
    std::set<PathHandle> paths;
    for (const DocIndex::Entry& entry : index.entries()) {
      keys.insert(std::string(index.key(entry)));
      paths.insert(index.paths(entry), index.paths(entry) + entry.path_count);
    }
    for (const std::string& key : keys) ++docs_per_key[key];
    for (const PathHandle path : paths) ++docs_per_path[path];
  }

  uint64_t DocsWithKey(const std::string& key) const {
    const auto it = docs_per_key.find(key);
    return it == docs_per_key.end() ? 0 : it->second;
  }

  uint64_t DocsMatchingPath(const QueryPath& query) const {
    const InternCore& core = InternCore::Global();
    std::vector<KeyHandle> components;
    std::vector<std::string_view> names;
    uint64_t total = 0;
    for (const auto& [path, docs] : docs_per_path) {
      core.paths().Components(path, &components);
      names.clear();
      for (const KeyHandle key : components) {
        names.push_back(core.keys().Resolve(key));
      }
      if (PathMatches(query, names.data(), names.size())) total += docs;
    }
    return std::min(total, documents);
  }
};

/// Every count q1-q10's key twigs ask for, from the summary and from the
/// reference.
void ExpectSameCounts(const PathSummary& summary,
                      const SummaryReference& reference) {
  EXPECT_EQ(summary.documents(), reference.documents);
  EXPECT_EQ(summary.distinct_paths(), reference.docs_per_path.size());
  for (const std::string& text : BenchmarkQueries()) {
    const query::Query query = Parse(text);
    for (const query::TreePattern& pattern : query.patterns()) {
      const KeyTwig twig = BuildKeyTwig(pattern);
      const PatternProfile profile = summary.Profile(twig);
      ASSERT_EQ(profile.key_docs.size(), twig.keys.size());
      ASSERT_EQ(profile.path_docs.size(), twig.query_paths.size());
      for (size_t k = 0; k < twig.keys.size(); ++k) {
        const uint64_t want = reference.DocsWithKey(twig.keys[k]);
        EXPECT_EQ(summary.DocsWithKey(twig.keys[k]), want) << twig.keys[k];
        EXPECT_EQ(profile.key_docs[k], want) << twig.keys[k];
      }
      for (size_t q = 0; q < twig.query_paths.size(); ++q) {
        const QueryPath& path = twig.query_paths[q];
        const uint64_t want = reference.DocsMatchingPath(path);
        EXPECT_EQ(summary.DocsMatchingPath(path), want) << text;
        EXPECT_EQ(profile.path_docs[q], want) << text;
      }
    }
  }
}

// Reads group the summary's paths by last key; adds after a read, and a
// copy taken after grouping that then grows apart from its original,
// keep every count equal to the reference's.
TEST(PathSummaryTest, InterleavedAddsReadsAndCopiesMatchAMapReference) {
  xmark::GeneratorConfig fragments;
  fragments.num_documents = 36;
  fragments.entities_per_document = 8;
  fragments.split_sections = true;
  std::vector<xml::Document> docs;
  for (int i = 0; i < fragments.num_documents; ++i) {
    docs.push_back(xmark::XmarkGenerator(fragments).GenerateDom(i));
  }
  xmark::GeneratorConfig sites;
  sites.num_documents = 3;
  sites.entities_per_document = 10;
  for (int i = 0; i < sites.num_documents; ++i) {
    docs.push_back(xmark::XmarkGenerator(sites).GenerateDom(i));
  }

  PathSummary summary;
  SummaryReference reference;
  std::optional<PathSummary> copy;
  SummaryReference copy_reference;
  uint64_t nonzero = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    SCOPED_TRACE(i);
    const DocIndex index = ExtractDocIndex(docs[i]);
    summary.AddDocument(index);
    reference.Add(index);
    if (copy.has_value() && i % 2 == 1) {
      copy->AddDocument(index);
      copy_reference.Add(index);
    }
    if (i % 3 == 0) {
      ExpectSameCounts(summary, reference);
      if (copy.has_value()) ExpectSameCounts(*copy, copy_reference);
    }
    if (i == 12) {
      copy = summary;
      copy_reference = reference;
      ExpectSameCounts(*copy, copy_reference);
    }
    nonzero += summary.DocsMatchingPath(
        BuildKeyTwig(Parse("//item/name").patterns()[0]).query_paths[0]);
  }
  ExpectSameCounts(summary, reference);
  ExpectSameCounts(*copy, copy_reference);
  EXPECT_LT(copy->documents(), summary.documents());
  EXPECT_GT(nonzero, 0u);
}

}  // namespace
}  // namespace webdex::index
