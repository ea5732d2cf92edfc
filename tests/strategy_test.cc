#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cloud/cloud_env.h"
#include "index/strategy.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::index {
namespace {

class TestAgent : public cloud::SimAgent {};

/// An indexed corpus shared by the strategy tests: the paintings corpus
/// plus a slice of XMark, indexed under every strategy into one DynamoDB.
class StrategyTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  static void SetUpTestSuite() {
    env_ = new cloud::CloudEnv();
    docs_ = new std::vector<xml::Document>();

    std::vector<xmark::GeneratedDocument> generated =
        xmark::GeneratePaintings();
    xmark::GeneratorConfig config;
    config.num_documents = 25;
    config.entities_per_document = 6;
    xmark::XmarkGenerator generator(config);
    for (const auto& doc : generator.GenerateAll()) {
      generated.push_back(doc);
    }
    for (const auto& doc : generated) {
      auto parsed = xml::ParseDocument(doc.uri, doc.text);
      ASSERT_TRUE(parsed.ok()) << doc.uri;
      docs_->push_back(std::move(parsed).value());
    }

    TestAgent loader;
    for (StrategyKind kind : AllStrategyKinds()) {
      auto strategy = IndexingStrategy::Create(kind);
      for (const auto& table : strategy->TableNames()) {
        ASSERT_TRUE(env_->dynamodb().CreateTable(loader, table).ok());
      }
      for (const auto& doc : *docs_) {
        ExtractStats stats;
        auto items = strategy->ExtractItems(doc, {}, env_->dynamodb(),
                                            env_->rng(), &stats);
        ASSERT_TRUE(items.ok()) << items.status().ToString();
        for (const auto& batch : items.value()) {
          ASSERT_TRUE(env_->dynamodb()
                          .BatchPut(loader, batch.table, batch.items)
                          .ok());
        }
      }
    }
  }

  static void TearDownTestSuite() {
    delete env_;
    delete docs_;
    env_ = nullptr;
    docs_ = nullptr;
  }

  static std::set<std::string> GroundTruth(const query::TreePattern& pattern) {
    std::set<std::string> uris;
    for (const auto& doc : *docs_) {
      if (query::Evaluator::Matches(pattern, doc)) uris.insert(doc.uri());
    }
    return uris;
  }

  static std::set<std::string> Lookup(StrategyKind kind,
                                      const query::TreePattern& pattern,
                                      LookupStats* stats = nullptr) {
    auto strategy = IndexingStrategy::Create(kind);
    TestAgent agent;
    LookupStats local;
    auto uris =
        strategy->LookupPattern(agent, env_->dynamodb(), pattern, {},
                                stats != nullptr ? stats : &local);
    EXPECT_TRUE(uris.ok()) << uris.status().ToString();
    return {uris.value().begin(), uris.value().end()};
  }

  static query::Query Parse(std::string_view text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  static cloud::CloudEnv* env_;
  static std::vector<xml::Document>* docs_;
};

cloud::CloudEnv* StrategyTest::env_ = nullptr;
std::vector<xml::Document>* StrategyTest::docs_ = nullptr;

// Workload used for the soundness sweep: the paper's Figure 2 queries
// (q1-q5) plus XMark-flavoured patterns covering every predicate type.
const char* kPatterns[] = {
    "//painting[/name:val, //painter/name:val]",
    "//painting[//description:cont, /year='1854']",
    "//painting[/name~'Lion', //painter/name/last:val]",
    "//painting[/name:val, /painter/name[/last='Manet'], "
    "/year in(1854,1865]]",
    "//museum[/name:val, /painting/@id]",
    "//painting[/@id, /painter/name[/last='Delacroix']]",
    "//item[/mailbox/mail, /name]",
    "//person[/address[/city], /homepage]",
    "//open_auction[/reserve, /bidder/increase]",
    "//closed_auction[/price, /annotation[/happiness]]",
    "//item[/description~'gold']",
    "//regions//item[/@id]",
};

TEST_P(StrategyTest, LookupIsSound) {
  // No false negatives, ever: every document with results is retrieved
  // (this is what makes index-then-evaluate correct).
  for (const char* text : kPatterns) {
    const query::Query query = Parse(text);
    for (const auto& pattern : query.patterns()) {
      const std::set<std::string> truth = GroundTruth(pattern);
      const std::set<std::string> retrieved = Lookup(GetParam(), pattern);
      for (const auto& uri : truth) {
        EXPECT_TRUE(retrieved.count(uri))
            << StrategyKindName(GetParam()) << " missed " << uri << " for "
            << text;
      }
    }
  }
}

TEST_P(StrategyTest, SelectiveQueriesPruneMostDocuments) {
  const query::Query query = Parse("//painting[/@id='1863-1']");
  const std::set<std::string> retrieved =
      Lookup(GetParam(), query.patterns()[0]);
  EXPECT_LE(retrieved.size(), 3u) << StrategyKindName(GetParam());
  EXPECT_TRUE(retrieved.count("painting-001.xml"));
}

TEST_P(StrategyTest, MissingLabelYieldsEmptyResult) {
  const query::Query query = Parse("//nonexistent[/whatever]");
  EXPECT_TRUE(Lookup(GetParam(), query.patterns()[0]).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::ValuesIn(AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(StrategyKindName(info.param));
    });

// --- Cross-strategy relationships (paper Sections 5.4 and 8.2) --------------

class StrategyRelations : public StrategyTest {};

TEST_F(StrategyRelations, TwoLupiReturnsSameUrisAsLui) {
  // "It follows from the above explanation that 2LUPI returns the same
  // URIs as LUI" (Section 5.4)... given LUP's reduction never removes a
  // true candidate, which holds by soundness.
  for (const char* text : kPatterns) {
    const query::Query query = Parse(text);
    for (const auto& pattern : query.patterns()) {
      EXPECT_EQ(Lookup(StrategyKind::kLUI, pattern),
                Lookup(StrategyKind::k2LUPI, pattern))
          << text;
    }
  }
}

TEST_F(StrategyRelations, PrecisionOrderingHolds) {
  // LU is the least precise, LUP at least as precise as LU, LUI/2LUPI the
  // most precise: retrieved sets must be nested accordingly.
  for (const char* text : kPatterns) {
    const query::Query query = Parse(text);
    for (const auto& pattern : query.patterns()) {
      const auto lu = Lookup(StrategyKind::kLU, pattern);
      const auto lup = Lookup(StrategyKind::kLUP, pattern);
      const auto lui = Lookup(StrategyKind::kLUI, pattern);
      EXPECT_TRUE(std::includes(lu.begin(), lu.end(), lup.begin(),
                                lup.end()))
          << "LUP not within LU for " << text;
      EXPECT_TRUE(std::includes(lu.begin(), lu.end(), lui.begin(),
                                lui.end()))
          << "LUI not within LU for " << text;
    }
  }
}

TEST_F(StrategyRelations, LuiExactForTreePatterns) {
  // Table 5: LUI and 2LUPI return no false positives on q1-q7 style
  // tree patterns (child/descendant structure without cross-pattern
  // joins).  Our descendant-edge treatment of equality predicates is
  // conservative, so exactness is asserted for predicate-free patterns.
  const char* exact_patterns[] = {
      "//painting[/name, //painter/name/last]",
      "//item[/mailbox/mail, /name]",
      "//person[/address[/city], /homepage]",
      "//open_auction[/reserve, /bidder/increase]",
      "//museum[/name, /painting/@id]",
  };
  for (const char* text : exact_patterns) {
    const query::Query query = Parse(text);
    const auto& pattern = query.patterns()[0];
    EXPECT_EQ(Lookup(StrategyKind::kLUI, pattern), GroundTruth(pattern))
        << text;
  }
}

TEST_F(StrategyRelations, LookupStatsPopulated) {
  const query::Query query =
      Parse("//painting[/name~'Lion', //painter/name/last]");
  LookupStats lu_stats, lup_stats, lui_stats, two_stats;
  Lookup(StrategyKind::kLU, query.patterns()[0], &lu_stats);
  Lookup(StrategyKind::kLUP, query.patterns()[0], &lup_stats);
  Lookup(StrategyKind::kLUI, query.patterns()[0], &lui_stats);
  Lookup(StrategyKind::k2LUPI, query.patterns()[0], &two_stats);
  EXPECT_GT(lu_stats.keys_looked_up, 0u);
  EXPECT_GT(lu_stats.uri_merge_ops, 0u);
  EXPECT_EQ(lu_stats.paths_tested, 0u);
  EXPECT_EQ(lu_stats.twig_id_ops, 0u);
  EXPECT_GT(lup_stats.paths_tested, 0u);
  EXPECT_GT(lui_stats.twig_id_ops, 0u);
  EXPECT_GT(two_stats.paths_tested, 0u);
  EXPECT_GT(two_stats.twig_id_ops, 0u);
  EXPECT_GT(lui_stats.bytes_fetched, lu_stats.bytes_fetched);
}

// --- Extraction payload relationships ---------------------------------------

TEST_F(StrategyRelations, IndexSizesOrderedLikeFigure8) {
  // Raw index payload: LU < LUI < LUP on text-heavy documents, and
  // 2LUPI = LUP + LUI.
  const uint64_t lu = env_->dynamodb().StoredBytes("idx-lu");
  const uint64_t lup = env_->dynamodb().StoredBytes("idx-lup");
  const uint64_t lui = env_->dynamodb().StoredBytes("idx-lui");
  const uint64_t two = env_->dynamodb().StoredBytes("idx-2lupi-paths") +
                       env_->dynamodb().StoredBytes("idx-2lupi-ids");
  EXPECT_LT(lu, lui);
  EXPECT_LT(lui, lup);
  EXPECT_NEAR(static_cast<double>(two), static_cast<double>(lup + lui),
              static_cast<double>(two) * 0.01);
}

// --- Store-capability adaptation ---------------------------------------------

TEST(StrategyStoreTest, ChunksOversizedIdListsForSimpleDb) {
  // A document with very many identical labels produces an ID list whose
  // encoding exceeds SimpleDB's 1 KB value limit; extraction must chunk
  // (and hex-armour) rather than fail.
  std::string xml = "<r>";
  for (int i = 0; i < 2000; ++i) xml += "<a/>";
  xml += "</r>";
  auto doc = xml::ParseDocument("big.xml", xml);
  ASSERT_TRUE(doc.ok());

  cloud::CloudEnv env;
  auto strategy = IndexingStrategy::Create(StrategyKind::kLUI);
  ExtractStats stats;
  auto items = strategy->ExtractItems(doc.value(), {}, env.simpledb(),
                                      env.rng(), &stats);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  TestAgent agent;
  ASSERT_TRUE(env.simpledb().CreateTable(agent, "idx-lui").ok());
  for (const auto& batch : items.value()) {
    ASSERT_TRUE(env.simpledb().BatchPut(agent, batch.table, batch.items).ok());
  }
  // Look-up over the chunked, armoured entries still works.
  auto query = query::ParseQuery("//r[/a]");
  ASSERT_TRUE(query.ok());
  LookupStats lookup_stats;
  auto uris = strategy->LookupPattern(agent, env.simpledb(),
                                      query.value().patterns()[0], {},
                                      &lookup_stats);
  ASSERT_TRUE(uris.ok());
  EXPECT_EQ(uris.value(), std::vector<std::string>{"big.xml"});
}

// SimpleDB packs at most 255 values into an index item, one below its
// 256-attribute bound, so an upsert's generation stamp still fits: a key
// whose ID list needs more than 255 chunks yields stamped items of
// exactly 256 values that BatchPut accepts, and one value more is
// rejected.
TEST(StrategyStoreTest, StampedSimpleDbItemsFitTheAttributeBound) {
  std::string xml = "<r>";
  for (int i = 0; i < 40000; ++i) xml += "<a/>";
  xml += "</r>";
  auto doc = xml::ParseDocument("wide.xml", xml);
  ASSERT_TRUE(doc.ok());

  cloud::CloudEnv env;
  cloud::SimpleDb& store = env.simpledb();
  ASSERT_EQ(store.Limits().max_values_per_item, 255u);
  auto strategy = IndexingStrategy::Create(StrategyKind::kLUI);
  ExtractOptions options;
  options.generation = 1;
  ExtractStats stats;
  auto items =
      strategy->ExtractItems(doc.value(), options, store, env.rng(), &stats);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items.value().size(), 1u);
  const std::vector<cloud::Item>& built = items.value()[0].items;
  const cloud::Item* full = nullptr;
  for (const cloud::Item& item : built) {
    const uint64_t values = cloud::ItemTable::CountValues(item.attrs);
    EXPECT_LE(values, 256u);
    EXPECT_EQ(item.attrs.count(kGenAttr), 1u);
    if (values == 256) full = &item;
  }
  ASSERT_NE(full, nullptr) << "no key needed more than 255 values";
  TestAgent agent;
  ASSERT_TRUE(store.CreateTable(agent, "idx-lui").ok());
  ASSERT_TRUE(store.BatchPut(agent, "idx-lui", built).ok());
  cloud::Item over = *full;
  over.range_key += "-over";
  over.attrs.at("wide.xml").push_back("00");
  EXPECT_TRUE(store.BatchPut(agent, "idx-lui", {&over, 1}).IsInvalidArgument());
}

TEST(StrategyStoreTest, SameLookupResultsOnBothStores) {
  const auto corpus = xmark::GeneratePaintings();
  cloud::CloudEnv env;
  TestAgent agent;
  auto strategy = IndexingStrategy::Create(StrategyKind::k2LUPI);
  for (const auto& table : strategy->TableNames()) {
    ASSERT_TRUE(env.dynamodb().CreateTable(agent, table).ok());
    ASSERT_TRUE(env.simpledb().CreateTable(agent, table).ok());
  }
  for (const auto& generated : corpus) {
    auto doc = xml::ParseDocument(generated.uri, generated.text);
    ASSERT_TRUE(doc.ok());
    for (cloud::KvStore* store :
         {static_cast<cloud::KvStore*>(&env.dynamodb()),
          static_cast<cloud::KvStore*>(&env.simpledb())}) {
      ExtractStats stats;
      auto items =
          strategy->ExtractItems(doc.value(), {}, *store, env.rng(), &stats);
      ASSERT_TRUE(items.ok());
      for (const auto& batch : items.value()) {
        ASSERT_TRUE(store->BatchPut(agent, batch.table, batch.items).ok());
      }
    }
  }
  auto query = query::ParseQuery(
      "//painting[/name~'Lion', //painter/name/last]");
  ASSERT_TRUE(query.ok());
  LookupStats s1, s2;
  auto dynamo = strategy->LookupPattern(agent, env.dynamodb(),
                                        query.value().patterns()[0], {}, &s1);
  auto simple = strategy->LookupPattern(agent, env.simpledb(),
                                        query.value().patterns()[0], {}, &s2);
  ASSERT_TRUE(dynamo.ok());
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(dynamo.value(), simple.value());
  // Hex armouring makes the SimpleDB payload strictly larger.
  EXPECT_GT(s2.bytes_fetched, s1.bytes_fetched);
}

TEST(StrategyStoreTest, NoWordsIndexStillSoundForWordPredicates) {
  // An index built without w-keys cannot prune on word constants, but
  // look-ups configured to match (BuildKeyTwig without predicate words)
  // must stay sound: every document with results is retrieved.
  const auto generated = xmark::GeneratePaintings();
  std::vector<xml::Document> docs;
  for (const auto& doc : generated) {
    auto parsed = xml::ParseDocument(doc.uri, doc.text);
    ASSERT_TRUE(parsed.ok());
    docs.push_back(std::move(parsed).value());
  }
  cloud::CloudEnv env;
  TestAgent agent;
  ExtractOptions no_words;
  no_words.include_words = false;
  for (StrategyKind kind : AllStrategyKinds()) {
    auto strategy = IndexingStrategy::Create(kind);
    for (const auto& table : strategy->TableNames()) {
      if (!env.dynamodb().HasTable(table)) {
        ASSERT_TRUE(env.dynamodb().CreateTable(agent, table).ok());
      }
    }
    for (const auto& doc : docs) {
      ExtractStats stats;
      auto items = strategy->ExtractItems(doc, no_words, env.dynamodb(),
                                          env.rng(), &stats);
      ASSERT_TRUE(items.ok());
      for (const auto& batch : items.value()) {
        ASSERT_TRUE(
            env.dynamodb().BatchPut(agent, batch.table, batch.items).ok());
      }
    }
  }
  const char* queries[] = {
      "//painting[/name~'Lion', //painter/name/last:val]",
      "//painting[//description:cont, /year='1854']",
      "//painting[/painter/name[/last='Manet']]",
  };
  for (const char* text : queries) {
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    const auto& pattern = query.value().patterns()[0];
    std::set<std::string> truth;
    for (const auto& doc : docs) {
      if (query::Evaluator::Matches(pattern, doc)) truth.insert(doc.uri());
    }
    ASSERT_FALSE(truth.empty()) << text;
    for (StrategyKind kind : AllStrategyKinds()) {
      auto strategy = IndexingStrategy::Create(kind);
      LookupStats stats;
      auto uris = strategy->LookupPattern(agent, env.dynamodb(), pattern,
                                          no_words, &stats);
      ASSERT_TRUE(uris.ok()) << text;
      const std::set<std::string> retrieved(uris.value().begin(),
                                            uris.value().end());
      for (const auto& uri : truth) {
        EXPECT_TRUE(retrieved.count(uri))
            << StrategyKindName(kind) << " (no-words) missed " << uri
            << " for " << text;
      }
    }
  }
}

TEST(StrategyStoreTest, CompressedPathsGiveSameLookups) {
  // The Section 8.5 extension must not change look-up answers, only the
  // stored representation.
  const auto corpus = xmark::GeneratePaintings();
  cloud::CloudEnv env;
  TestAgent agent;
  auto strategy = IndexingStrategy::Create(StrategyKind::kLUP);
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "idx-lup").ok());

  ExtractOptions plain;
  ExtractOptions coded;
  coded.compress_paths = true;

  // Two private environments: one per representation.
  cloud::CloudEnv coded_env;
  ASSERT_TRUE(coded_env.dynamodb().CreateTable(agent, "idx-lup").ok());
  uint64_t plain_bytes = 0, coded_bytes = 0;
  for (const auto& generated : corpus) {
    auto doc = xml::ParseDocument(generated.uri, generated.text);
    ASSERT_TRUE(doc.ok());
    ExtractStats s1, s2;
    auto items_plain = strategy->ExtractItems(doc.value(), plain,
                                              env.dynamodb(), env.rng(), &s1);
    auto items_coded = strategy->ExtractItems(
        doc.value(), coded, coded_env.dynamodb(), coded_env.rng(), &s2);
    ASSERT_TRUE(items_plain.ok());
    ASSERT_TRUE(items_coded.ok());
    for (const auto& batch : items_plain.value()) {
      ASSERT_TRUE(env.dynamodb().BatchPut(agent, batch.table, batch.items)
                      .ok());
    }
    for (const auto& batch : items_coded.value()) {
      ASSERT_TRUE(coded_env.dynamodb()
                      .BatchPut(agent, batch.table, batch.items)
                      .ok());
    }
  }
  plain_bytes = env.dynamodb().StoredBytes("idx-lup");
  coded_bytes = coded_env.dynamodb().StoredBytes("idx-lup");
  // Singleton path sets dominate this corpus, so the overall gain is
  // small; the representation must never cost more than ~2% though.
  EXPECT_LE(coded_bytes, plain_bytes + plain_bytes / 50);

  const char* queries[] = {
      "//painting[/name~'Lion', //painter/name/last]",
      "//museum[/name, /painting/@id]",
      "//painting[/painter/name[/last='Manet']]",
  };
  for (const char* text : queries) {
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    LookupStats s1, s2;
    auto from_plain = strategy->LookupPattern(
        agent, env.dynamodb(), query.value().patterns()[0], plain, &s1);
    auto from_coded = strategy->LookupPattern(
        agent, coded_env.dynamodb(), query.value().patterns()[0], coded,
        &s2);
    ASSERT_TRUE(from_plain.ok());
    ASSERT_TRUE(from_coded.ok()) << from_coded.status().ToString();
    EXPECT_EQ(from_plain.value(), from_coded.value()) << text;
  }
}

}  // namespace
}  // namespace webdex::index
