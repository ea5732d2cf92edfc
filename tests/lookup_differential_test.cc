// Differential suite for the index look-up cores (index/lookup_paths.h):
// every pattern runs through the production cores — borrowed item views,
// dense DocIds, linear merges — and through the set-based reference cores
// of lookup_reference.h, and the two must agree on the URI list and on
// all six LookupStats counters, which drive simulated look-up time.  The
// sweep covers q1-q10 plus seeded random patterns under every strategy,
// on DynamoDB and on SimpleDB (hex-armoured values), with plain and
// front-coded paths; chunked ID lists; a mutated corpus read through its
// generation view; a 4-shard layout; and corrupt stored values, which
// must fail (or not) the same way with the same Status code.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cloud/cloud_env.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "index/generation.h"
#include "index/key_twig.h"
#include "index/keys.h"
#include "index/lookup_paths.h"
#include "index/strategy.h"
#include "lookup_reference.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"

namespace webdex::index {
namespace {

using engine::IndexBackend;
using engine::Warehouse;
using engine::WarehouseConfig;

class TestAgent : public cloud::SimAgent {};

// q1-q10 of the benchmark's query mix (perfbench/src/inputs.cc).
const std::vector<std::string>& BenchmarkQueries() {
  static const std::vector<std::string>* queries = new std::vector<
      std::string>{
      "//regions//item[/@id='item42', //name:val]",
      "//closed_auction[/annotation:cont, /annotation/description~'amber']",
      "//item[/name:val, /mailbox/mail/from:val, /description~'lantern']",
      "//open_auctions/open_auction[/initial:val, /reserve, /privacy, "
      "/annotation/description~'obelisk']",
      "//person[/name:val, /address[/city='Paris'], /creditcard]",
      "//open_auction[/annotation/description~'gossamer', /seller]",
      "//item[/description/name:val]",
      "//open_auction[/seller/@person#s, /initial:val, "
      "/annotation/description~'marble']; "
      "//people/person[/@id#p, /name:val] where #s=#p",
      "//closed_auction[/itemref/@item#i, /price:val, "
      "/annotation/description~'laurel']; "
      "//regions//item[/@id#j, //name:val] where #i=#j",
      "//person[/watches/watch/@open_auction#w, /name:val, "
      "/address/country='France']; "
      "//open_auction[/@id#a, /current:val] where #w=#a",
  };
  return *queries;
}

/// Labels of the XMark corpus plus two that never occur, and words of
/// which one never occurs, so some random patterns match nothing.
const char* kLabels[] = {"site",        "regions", "item",    "name",
                         "person",      "address", "city",    "open_auction",
                         "reserve",     "seller",  "mailbox", "mail",
                         "description", "annotation", "nothere", "bogus"};
const char* kWords[] = {"the", "gold", "garden", "gossamer", "zzz"};

std::string RandomPattern(Rng& rng, int max_nodes) {
  std::function<std::string(int*, int)> node = [&](int* budget,
                                                   int depth) -> std::string {
    --*budget;
    std::string out(kLabels[rng.NextBelow(std::size(kLabels))]);
    const double p = rng.NextDouble();
    if (p < 0.2) {
      out += "~'" + std::string(kWords[rng.NextBelow(std::size(kWords))]) +
             "'";
    } else if (p < 0.3) {
      out += "='" + std::string(kWords[rng.NextBelow(std::size(kWords))]) +
             "'";
    }
    if (*budget > 0 && depth < 3 && rng.NextBool(0.7)) {
      const int children =
          1 + static_cast<int>(rng.NextBelow(
                  std::min<uint64_t>(2, static_cast<uint64_t>(*budget))));
      out += "[";
      for (int c = 0; c < children && *budget > 0; ++c) {
        if (c > 0) out += ", ";
        out += rng.NextBool(0.5) ? "/" : "//";
        out += node(budget, depth + 1);
      }
      out += "]";
    }
    return out;
  };
  int budget = max_nodes;
  return "//" + node(&budget, 0);
}

/// q1-q10 and `random` seeded random patterns.
std::vector<std::string> QueryMix(int random) {
  std::vector<std::string> queries = BenchmarkQueries();
  Rng rng(20130318);
  for (int i = 0; i < random; ++i) queries.push_back(RandomPattern(rng, 5));
  return queries;
}

/// A warehouse built from `corpus` with `strategy` on `backend`.
struct Built {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
};

Built Build(StrategyKind strategy, IndexBackend backend, bool compress,
            const std::vector<xmark::GeneratedDocument>& corpus,
            int shards = 1) {
  cloud::CloudConfig cloud_config;
  cloud_config.arch.shards = shards;
  Built built;
  built.env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = strategy;
  config.backend = backend;
  config.extract.compress_paths = compress;
  config.num_instances = 2;
  config.host_threads = 1;
  built.warehouse = std::make_unique<Warehouse>(built.env.get(), config);
  EXPECT_TRUE(built.warehouse->Setup().ok());
  for (const auto& doc : corpus) {
    EXPECT_TRUE(built.warehouse->SubmitDocument(doc.uri, doc.text).ok());
  }
  auto report = built.warehouse->RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return built;
}

std::vector<xmark::GeneratedDocument> FragmentCorpus() {
  xmark::GeneratorConfig config;
  config.num_documents = 24;
  config.entities_per_document = 8;
  config.split_sections = true;
  return xmark::XmarkGenerator(config).GenerateAll();
}

std::string StatsString(const LookupStats& s) {
  return StrFormat(
      "keys=%llu items=%llu bytes=%llu merge=%llu paths=%llu twig=%llu",
      static_cast<unsigned long long>(s.keys_looked_up),
      static_cast<unsigned long long>(s.items_fetched),
      static_cast<unsigned long long>(s.bytes_fetched),
      static_cast<unsigned long long>(s.uri_merge_ops),
      static_cast<unsigned long long>(s.paths_tested),
      static_cast<unsigned long long>(s.twig_id_ops));
}

/// How many patterns' look-ups found a document, and how many failed.
struct Outcomes {
  int found = 0;
  int failed = 0;
};

/// Runs every pattern of `queries` through both cores over `warehouse`'s
/// index store and expects the same outcome, URIs and counters.
Outcomes ExpectSameLookups(Warehouse& warehouse, StrategyKind kind,
                           const std::vector<std::string>& queries,
                           const GenerationMap* view = nullptr) {
  const ExtractOptions& options = warehouse.config().extract;
  const std::vector<std::string> tables =
      IndexingStrategy::Create(kind)->TableNames();
  Outcomes outcomes;
  for (const std::string& text : queries) {
    auto query = query::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    if (!query.ok()) continue;
    for (const query::TreePattern& pattern : query.value().patterns()) {
      SCOPED_TRACE(text);
      const KeyTwig twig = BuildKeyTwig(pattern, options.include_words);
      TestAgent agent;
      TestAgent reference_agent;
      LookupStats stats;
      LookupStats reference_stats;
      auto uris = LookupByKind(kind, agent, warehouse.index_store(), tables,
                               twig, options, &stats, view);
      auto expected = reference::LookupByKind(
          kind, reference_agent, warehouse.index_store(), tables, twig,
          options, &reference_stats, view);
      EXPECT_EQ(uris.status().code(), expected.status().code())
          << uris.status().ToString() << " vs "
          << expected.status().ToString();
      if (!uris.ok() || !expected.ok()) {
        ++outcomes.failed;
        continue;
      }
      EXPECT_EQ(uris.value(), reference::SortedUris(expected.value()));
      EXPECT_EQ(StatsString(stats), StatsString(reference_stats));
      if (!uris.value().empty()) ++outcomes.found;
    }
  }
  return outcomes;
}

// --- Strategies x backends x path coding ------------------------------------

using Layout = std::tuple<StrategyKind, IndexBackend, bool>;

class LookupDifferentialTest : public ::testing::TestWithParam<Layout> {};

TEST_P(LookupDifferentialTest, MatchesTheSetBasedCores) {
  const auto [kind, backend, compress] = GetParam();
  Built built = Build(kind, backend, compress, FragmentCorpus());
  const Outcomes outcomes =
      ExpectSameLookups(*built.warehouse, kind, QueryMix(24));
  // The sweep is not vacuous: q1-q10 find documents on this corpus.
  EXPECT_GE(outcomes.found, 5);
  EXPECT_EQ(outcomes.failed, 0);
}

std::string LayoutName(const ::testing::TestParamInfo<Layout>& info) {
  const auto [kind, backend, compress] = info.param;
  return std::string(StrategyKindName(kind)) +
         (backend == IndexBackend::kSimpleDb ? "_SimpleDb" : "_DynamoDb") +
         (compress ? "_Coded" : "_Plain");
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, LookupDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(AllStrategyKinds()),
                       ::testing::Values(IndexBackend::kDynamoDb,
                                         IndexBackend::kSimpleDb),
                       ::testing::Bool()),
    LayoutName);

// --- Chunked ID lists --------------------------------------------------------

// 30,000 IDs of one key overflow one value and one item, so the ID list
// arrives as several chunks in range-key order and is re-sorted.
TEST(LookupDifferentialChunkTest, ChunkedIdListsMatch) {
  std::string wide = "<site>";
  for (int i = 0; i < 30000; ++i) wide += "<a/>";
  wide += "</site>";
  const std::vector<xmark::GeneratedDocument> corpus = {
      {"wide.xml", wide}, {"small.xml", "<site><a/><b/></site>"}};
  for (const IndexBackend backend :
       {IndexBackend::kDynamoDb, IndexBackend::kSimpleDb}) {
    for (const StrategyKind kind :
         {StrategyKind::kLUI, StrategyKind::k2LUPI}) {
      SCOPED_TRACE(StrategyKindName(kind));
      Built built = Build(kind, backend, false, corpus);
      EXPECT_EQ(ExpectSameLookups(*built.warehouse, kind,
                                  {"//site//a", "//site[/a, /b]"})
                    .found,
                2);
    }
  }
}

// --- Mutated corpus, generation view ----------------------------------------

TEST(LookupDifferentialMutationTest, GenerationViewMatches) {
  const std::vector<xmark::GeneratedDocument> corpus = FragmentCorpus();
  for (const StrategyKind kind : AllStrategyKinds()) {
    SCOPED_TRACE(StrategyKindName(kind));
    Built built = Build(kind, IndexBackend::kDynamoDb, false, corpus);
    Warehouse& warehouse = *built.warehouse;
    // Upserts swap content between documents, so superseded postings
    // linger beside the new generation; deletes leave tombstones.
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(warehouse
                      .UpsertDocument(corpus[i].uri,
                                      corpus[corpus.size() - 1 - i].text)
                      .ok());
    }
    ASSERT_TRUE(warehouse.DeleteDocument(corpus[10].uri).ok());
    ASSERT_TRUE(warehouse.DeleteDocument(corpus[11].uri).ok());
    auto report = warehouse.RunIndexers();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const auto view = warehouse.GenerationSnapshot();
    ASSERT_EQ(view->size(), 8u);
    EXPECT_GE(
        ExpectSameLookups(warehouse, kind, QueryMix(12), view.get()).found,
        5);
  }
}

// --- Sharded layout ----------------------------------------------------------

TEST(LookupDifferentialShardTest, FourShardsMatch) {
  const std::vector<xmark::GeneratedDocument> corpus = FragmentCorpus();
  for (const StrategyKind kind : AllStrategyKinds()) {
    SCOPED_TRACE(StrategyKindName(kind));
    Built built =
        Build(kind, IndexBackend::kDynamoDb, false, corpus, /*shards=*/4);
    EXPECT_GE(ExpectSameLookups(*built.warehouse, kind, QueryMix(12)).found,
              5);
  }
}

// --- Corrupt stored values ---------------------------------------------------

/// A stored value no decoder accepts, or one only some decoders reject.
struct Corruption {
  const char* name;
  std::string value;
};

std::vector<Corruption> Corruptions() {
  return {
      {"odd_hex", "abc"},
      {"bad_hex", "zz"},
      {"truncated_varint", std::string(1, '\x80')},
      {"front_coded_overreach", std::string("\x05\x01x", 3)},
      {"plain_path", "/esite/eregions"},
  };
}

// A corrupt posting for a key every look-up of the query fetches, owned
// by an indexed document, fails both cores alike: the same error code,
// or OK on both when the core never decodes it.
TEST(LookupDifferentialCorruptionTest, CorruptValuesFailAlike) {
  const std::vector<xmark::GeneratedDocument> corpus = FragmentCorpus();
  const std::vector<std::string> queries = {"//item[/name, /description]",
                                            "//person[/name]"};
  int failed = 0;
  for (const IndexBackend backend :
       {IndexBackend::kDynamoDb, IndexBackend::kSimpleDb}) {
    for (const bool compress : {false, true}) {
      for (const StrategyKind kind : AllStrategyKinds()) {
        Built built = Build(kind, backend, compress, corpus);
        Warehouse& warehouse = *built.warehouse;
        for (const Corruption& corruption : Corruptions()) {
          SCOPED_TRACE(StrFormat("%s %s %s %s", StrategyKindName(kind),
                                 backend == IndexBackend::kSimpleDb
                                     ? "SimpleDB"
                                     : "DynamoDB",
                                 compress ? "coded" : "plain",
                                 corruption.name));
          // The corrupt value sorts first among its document's postings
          // for the key, so the look-up reaches it before any match.
          for (const std::string& table :
               IndexingStrategy::Create(kind)->TableNames()) {
            warehouse.index_store().RestoreItem(
                table,
                cloud::Item(ElementKey("name"), "!corrupt",
                            {{corpus[0].uri, {corruption.value}}}));
          }
          failed += ExpectSameLookups(warehouse, kind, queries).failed;
        }
      }
    }
  }
  // The sweep reaches the corrupt values: many look-ups fail.
  EXPECT_GE(failed, 20);
}

}  // namespace
}  // namespace webdex::index
