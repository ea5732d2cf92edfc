// Randomized property suites: these tests generate queries, documents
// and byte strings from seeded RNGs and check the library's global
// invariants — soundness of every index look-up, parser totality (parse
// or fail cleanly, never crash or hang), codec round trips.

#include <gtest/gtest.h>

#include <set>

#include "cloud/cloud_env.h"
#include "cloud/snapshot.h"
#include "common/rng.h"
#include "common/varint.h"
#include "engine/message.h"
#include "index/entry.h"
#include "index/strategy.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/xquery.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "scenario.h"

namespace webdex {
namespace {

// --- Random tree-pattern generation -----------------------------------------

/// Labels that actually occur in the XMark corpus, plus a few that never
/// do (so some random patterns are unsatisfiable).
const char* kLabels[] = {"site",     "regions", "item",    "name",
                         "person",   "address", "city",    "open_auction",
                         "reserve",  "seller",  "mailbox", "mail",
                         "description", "payment", "nothere", "bogus"};
const char* kWords[] = {"the", "gold", "garden", "gossamer", "zzz"};

std::string RandomPattern(Rng& rng, int max_nodes) {
  // Builds a random pattern in the textual syntax, recursively.
  std::function<std::string(int*, int)> node = [&](int* budget,
                                                   int depth) -> std::string {
    --*budget;
    std::string out(kLabels[rng.NextBelow(std::size(kLabels))]);
    const double p = rng.NextDouble();
    if (p < 0.15) {
      out += "~'" + std::string(kWords[rng.NextBelow(std::size(kWords))]) +
             "'";
    } else if (p < 0.25) {
      out += "='" + std::string(kWords[rng.NextBelow(std::size(kWords))]) +
             "'";
    } else if (p < 0.3) {
      out += " in(1,5000]";
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

class RandomPatternSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternSoundness, EveryStrategyLookupIsSound) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);

  // A small corpus shared by all patterns of this seed.
  xmark::GeneratorConfig config;
  config.num_documents = 12;
  config.entities_per_document = 6;
  config.seed = 1000 + static_cast<uint64_t>(GetParam());
  xmark::XmarkGenerator generator(config);
  std::vector<xml::Document> docs;
  for (int i = 0; i < config.num_documents; ++i) {
    docs.push_back(generator.GenerateDom(i));
  }

  // Index under every strategy.
  cloud::CloudEnv env;
  class Agent : public cloud::SimAgent {} agent;
  for (index::StrategyKind kind : index::AllStrategyKinds()) {
    auto strategy = index::IndexingStrategy::Create(kind);
    for (const auto& table : strategy->TableNames()) {
      ASSERT_TRUE(env.dynamodb().CreateTable(agent, table).ok());
    }
    for (const auto& doc : docs) {
      index::ExtractStats stats;
      auto items = strategy->ExtractItems(doc, {}, env.dynamodb(),
                                          env.rng(), &stats);
      ASSERT_TRUE(items.ok());
      for (const auto& batch : items.value()) {
        ASSERT_TRUE(
            env.dynamodb().BatchPut(agent, batch.table, batch.items).ok());
      }
    }
  }

  for (int trial = 0; trial < 12; ++trial) {
    const std::string text = RandomPattern(rng, 5);
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    const query::TreePattern& pattern = query.value().patterns()[0];

    std::set<std::string> truth;
    for (const auto& doc : docs) {
      if (query::Evaluator::Matches(pattern, doc)) truth.insert(doc.uri());
    }
    for (index::StrategyKind kind : index::AllStrategyKinds()) {
      auto strategy = index::IndexingStrategy::Create(kind);
      index::LookupStats stats;
      auto uris = strategy->LookupPattern(agent, env.dynamodb(), pattern,
                                          {}, &stats);
      ASSERT_TRUE(uris.ok()) << text;
      const std::set<std::string> retrieved(uris.value().begin(),
                                            uris.value().end());
      for (const auto& uri : truth) {
        EXPECT_TRUE(retrieved.count(uri))
            << index::StrategyKindName(kind) << " missed " << uri
            << " for pattern " << text;
      }
    }
    // And the twig-exactness relation: LUI == 2LUPI always.
    auto lui = index::IndexingStrategy::Create(index::StrategyKind::kLUI);
    auto two = index::IndexingStrategy::Create(index::StrategyKind::k2LUPI);
    index::LookupStats s1, s2;
    auto lui_uris =
        lui->LookupPattern(agent, env.dynamodb(), pattern, {}, &s1);
    auto two_uris =
        two->LookupPattern(agent, env.dynamodb(), pattern, {}, &s2);
    ASSERT_TRUE(lui_uris.ok() && two_uris.ok());
    EXPECT_EQ(lui_uris.value(), two_uris.value()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternSoundness,
                         ::testing::Range(0, 6));

// --- Random patterns always render and re-parse -----------------------------

class RandomPatternRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternRoundTrip, ToStringAndXQueryAreStable) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string text = RandomPattern(rng, 6);
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    const std::string rendered = query.value().ToString();
    auto reparsed = query::ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ(reparsed.value().ToString(), rendered);
    // The XQuery translation must always produce a for + return.
    const std::string xq = query::ToXQuery(query.value());
    EXPECT_NE(xq.find("for "), std::string::npos);
    EXPECT_NE(xq.find("return <row>"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternRoundTrip,
                         ::testing::Range(0, 4));

// --- Parser totality ----------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashTheXmlParser) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t length = rng.NextBelow(200);
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      input.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    // Must return, with either a document or a clean error.
    auto doc = xml::ParseDocument("fuzz", input);
    if (doc.ok()) {
      // Whatever parsed must serialize and re-parse to the same form.
      const std::string once = xml::Serialize(doc.value(), doc.value().root());
      auto again = xml::ParseDocument("fuzz2", once);
      ASSERT_TRUE(again.ok()) << once;
      EXPECT_EQ(xml::Serialize(again.value(), again.value().root()), once);
    }
  }
}

TEST_P(ParserFuzz, MutatedXmarkDocumentsParseOrFailCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 99);
  xmark::GeneratorConfig config;
  config.num_documents = 2;
  config.entities_per_document = 4;
  xmark::XmarkGenerator generator(config);
  const std::string base = generator.Generate(GetParam() % 2).text;
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.erase(pos, rng.NextBelow(8) + 1);
          break;
        default:
          mutated.insert(pos, 1, '<');
          break;
      }
    }
    (void)xml::ParseDocument("mutated", mutated);  // must not crash/hang
  }
}

TEST_P(ParserFuzz, RandomBytesNeverCrashTheQueryParser) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t length = rng.NextBelow(80);
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      // Bias toward the query alphabet so some inputs get deep.
      static const char kAlphabet[] = "//[]@:val'~=#,; abcin(1)";
      input.push_back(rng.NextBool(0.8)
                          ? kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]
                          : static_cast<char>(rng.NextBelow(256)));
    }
    auto query = query::ParseQuery(input);
    if (query.ok()) {
      auto reparsed = query::ParseQuery(query.value().ToString());
      EXPECT_TRUE(reparsed.ok()) << query.value().ToString();
    }
  }
}

TEST_P(ParserFuzz, RandomBlobsNeverCrashTheCodecs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 23);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t length = rng.NextBelow(64);
    std::string blob;
    for (size_t i = 0; i < length; ++i) {
      blob.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    (void)index::DecodeIds(blob);
    (void)index::DecodePaths(blob);
    (void)index::HexDearmour(blob);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 4));

// Whatever a message parser accepts reads back from its serialization
// with every field intact.
void ExpectMessageRoundTrip(const std::string& input) {
  if (auto load = engine::LoadRequest::Parse(input); load.ok()) {
    auto again = engine::LoadRequest::Parse(load.value().Serialize());
    ASSERT_TRUE(again.ok()) << input;
    EXPECT_EQ(again.value().uri, load.value().uri);
    EXPECT_EQ(again.value().op, load.value().op);
    EXPECT_EQ(again.value().generation, load.value().generation);
  }
  if (auto query = engine::QueryRequest::Parse(input); query.ok()) {
    auto again = engine::QueryRequest::Parse(query.value().Serialize());
    ASSERT_TRUE(again.ok()) << input;
    EXPECT_EQ(again.value().id, query.value().id);
    EXPECT_EQ(again.value().query_text, query.value().query_text);
    EXPECT_EQ(again.value().tenant, query.value().tenant);
  }
  if (auto response = engine::QueryResponse::Parse(input); response.ok()) {
    auto again = engine::QueryResponse::Parse(response.value().Serialize());
    ASSERT_TRUE(again.ok()) << input;
    EXPECT_EQ(again.value().id, response.value().id);
    EXPECT_EQ(again.value().result_key, response.value().result_key);
    EXPECT_EQ(again.value().row_count, response.value().row_count);
    EXPECT_EQ(again.value().shed, response.value().shed);
  }
}

TEST_P(ParserFuzz, RandomAndMutatedMessagesParseOrFailCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 5);
  const char* kTags[] = {"LOAD",  "UPSERT", "DELETE", "QUERY",
                         "QUERYT", "DONE",  "SHED"};
  engine::LoadRequest upsert{"xmark-000001.xml", engine::LoadOp::kUpsert, 3};
  engine::QueryRequest tenant_query{7, "//item[/name:val]", "hot"};
  engine::QueryResponse done{7, "results/7.xml", 12, false};
  const std::string valid[] = {
      engine::LoadRequest{"a.xml"}.Serialize(), upsert.Serialize(),
      engine::QueryRequest{1, "//a", ""}.Serialize(), tenant_query.Serialize(),
      done.Serialize(), engine::QueryResponse{9, "", 0, true}.Serialize()};
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    if (rng.NextBool(0.5)) {
      // A tag line, then lines of digits, newlines and random bytes.
      input = std::string(kTags[rng.NextBelow(std::size(kTags))]) + "\n";
      const size_t length = rng.NextBelow(24);
      for (size_t i = 0; i < length; ++i) {
        static const char kAlphabet[] = "0123456789\n\nx/";
        input.push_back(rng.NextBool(0.8)
                            ? kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]
                            : static_cast<char>(rng.NextBelow(256)));
      }
    } else {
      input = valid[rng.NextBelow(std::size(valid))];
      const int edits = 1 + static_cast<int>(rng.NextBelow(3));
      for (int e = 0; e < edits && !input.empty(); ++e) {
        const size_t pos = rng.NextBelow(input.size());
        switch (rng.NextBelow(3)) {
          case 0:
            input[pos] = static_cast<char>(rng.NextBelow(256));
            break;
          case 1:
            input.erase(pos, 1);
            break;
          default:
            input.insert(pos, 1, rng.NextBool(0.5) ? '\n' : '9');
            break;
        }
      }
    }
    ExpectMessageRoundTrip(input);
  }
}

// --- Snapshot decoder totality -------------------------------------------------

/// A real image: 2LUPI with one upsert and one delete, under faults, on
/// one read replica.
struct RealImage {
  RealImage() {
    engine::Scenario scenario;
    scenario.cloud.faults = engine::ChaosPlan();
    scenario.cloud.arch.replicas = 1;
    scenario.warehouse.strategy = index::StrategyKind::k2LUPI;
    scenario.warehouse.num_instances = 2;
    scenario.warehouse.host_threads = 1;
    scenario.documents = xmark::GeneratePaintings();
    scenario.documents.resize(3);
    scenario.after_index = [docs = scenario.documents](engine::Outcome& run) {
      EXPECT_TRUE(
          run.warehouse().UpsertDocument(docs[0].uri, docs[1].text).ok());
      EXPECT_TRUE(run.warehouse().DeleteDocument(docs[2].uri).ok());
      EXPECT_TRUE(run.warehouse().RunIndexers().ok());
    };
    const engine::Outcome run = engine::RunScenario(scenario);
    config = run.env().config();
    image = cloud::SerializeSnapshot(run.env());
  }

  /// Restores `bytes` into a fresh cloud of the image's shape.
  Status Restore(const std::string& bytes) const {
    cloud::CloudEnv env(config);
    return cloud::RestoreSnapshot(bytes, &env);
  }

  cloud::CloudConfig config;
  std::string image;
};

TEST(SnapshotFuzz, EveryTruncationOfARealImageIsRejected) {
  const RealImage real;
  ASSERT_TRUE(real.Restore(real.image).ok());
  for (size_t cut = 0; cut < real.image.size(); ++cut) {
    const Status status = real.Restore(real.image.substr(0, cut));
    ASSERT_TRUE(status.IsCorruption()) << cut << ": " << status.ToString();
  }
}

// 2^64-1 written over each byte in turn of a small image with every
// section filled: every count, length and enum is at some point absurd.
TEST(SnapshotFuzz, MaximalVarintAtEveryOffsetNeverCrashes) {
  cloud::CloudConfig config;
  config.faults = engine::ChaosPlan();
  config.arch.replicas = 1;
  cloud::CloudEnv env(config);
  cloud::SimAgent agent;
  (void)env.s3().CreateBucket("data");
  (void)env.s3().Put(agent, "data", "a.xml", "<a><b>x</b></a>");
  (void)env.dynamodb().CreateTable(agent, "idx");
  const std::vector<cloud::Item> items = {
      cloud::Item{"k", "r", {{"a.xml", {"v1", "v2"}}}},
      cloud::Item{"k2", "r2", {{"a.xml", {"v3"}}, {"b.xml", {}}}}};
  (void)env.dynamodb().BatchPut(agent, "idx", items);
  env.breaker().RecordFailure("idx", 5);
  env.maintenance().compact_cursor = "a.xml";
  env.maintenance().generation_watermark = 3;
  env.deployment().RecordWrite("idx", 7);
  const std::string image = cloud::SerializeSnapshot(env);
  std::string huge;
  PutVarint64(&huge, ~uint64_t{0});
  for (size_t offset = 0; offset < image.size(); ++offset) {
    cloud::CloudEnv target(config);
    (void)cloud::RestoreSnapshot(
        image.substr(0, offset) + huge + image.substr(offset + 1), &target);
  }
}

TEST(SnapshotFuzz, SeededByteFlipsNeverCrash) {
  const RealImage real;
  Rng rng(20261020);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string flipped = real.image;
    flipped[rng.NextBelow(flipped.size())] ^=
        static_cast<char>(1 + rng.NextBelow(255));
    (void)real.Restore(flipped);
  }
}

}  // namespace
}  // namespace webdex
