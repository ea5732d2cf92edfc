#include <gtest/gtest.h>

#include <set>

#include "engine/warehouse.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 15;
  config.entities_per_document = 6;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

struct Harness {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
};

Harness MakeWarehouse(WarehouseConfig config,
                    cloud::CloudConfig cloud_config = {}) {
  Harness setup;
  setup.env = std::make_unique<cloud::CloudEnv>(cloud_config);
  setup.warehouse = std::make_unique<Warehouse>(setup.env.get(), config);
  EXPECT_TRUE(setup.warehouse->Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(setup.warehouse->SubmitDocument(doc.uri, doc.text).ok());
  }
  return setup;
}

const char* kQ1 = "//painting[/name:val, //painter/name:val]";
const char* kQ3 = "//painting[/name~'Lion', //painter/name/last:val]";
const char* kQ5 =
    "//museum[/name:val, /painting/@id#x]; "
    "//painting[/@id#y, /painter/name[/last='Delacroix']] where #x=#y";

class WarehouseStrategyTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(WarehouseStrategyTest, EndToEndIndexAndQuery) {
  WarehouseConfig config;
  config.strategy = GetParam();
  config.num_instances = 2;
  Harness setup = MakeWarehouse(config);

  auto indexing = setup.warehouse->RunIndexers();
  ASSERT_TRUE(indexing.ok()) << indexing.status().ToString();
  EXPECT_EQ(indexing.value().documents, Corpus().size());
  EXPECT_GT(indexing.value().makespan, 0);
  EXPECT_GT(indexing.value().extract_stats.entries, 0u);
  EXPECT_GT(indexing.value().index_put_units, 0u);

  auto outcome = setup.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().result.rows.size(), 1u);
  EXPECT_EQ(outcome.value().result.rows[0][0], "Delacroix");
  EXPECT_GT(outcome.value().docs_fetched, 0u);
  EXPECT_LT(outcome.value().docs_fetched, Corpus().size());
  EXPECT_GT(outcome.value().timings.total, 0);
  EXPECT_GT(outcome.value().timings.index_get, 0);
}

TEST_P(WarehouseStrategyTest, MatchesNoIndexBaselineResults) {
  WarehouseConfig config;
  config.strategy = GetParam();
  Harness indexed = MakeWarehouse(config);
  ASSERT_TRUE(indexed.warehouse->RunIndexers().ok());

  WarehouseConfig baseline_config;
  baseline_config.use_index = false;
  Harness baseline = MakeWarehouse(baseline_config);

  for (const char* query : {kQ1, kQ3, kQ5}) {
    auto with_index = indexed.warehouse->ExecuteQuery(query);
    auto without = baseline.warehouse->ExecuteQuery(query);
    ASSERT_TRUE(with_index.ok()) << with_index.status().ToString();
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(with_index.value().result.rows, without.value().result.rows)
        << query;
    EXPECT_LE(with_index.value().docs_fetched,
              without.value().docs_fetched);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, WarehouseStrategyTest,
    ::testing::ValuesIn(index::AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

TEST(WarehouseTest, NoIndexFetchesEverything) {
  WarehouseConfig config;
  config.use_index = false;
  Harness setup = MakeWarehouse(config);
  auto outcome = setup.warehouse->ExecuteQuery(kQ1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().docs_fetched, Corpus().size());
  EXPECT_EQ(outcome.value().docs_from_index, 0u);
  EXPECT_EQ(outcome.value().timings.index_get, 0);
}

TEST(WarehouseTest, RunIndexersWithoutIndexFails) {
  WarehouseConfig config;
  config.use_index = false;
  Harness setup = MakeWarehouse(config);
  EXPECT_TRUE(setup.warehouse->RunIndexers().status().IsFailedPrecondition());
}

TEST(WarehouseTest, DeterministicAcrossRuns) {
  auto run = [] {
    WarehouseConfig config;
    config.strategy = StrategyKind::kLUP;
    config.num_instances = 3;
    Harness setup = MakeWarehouse(config);
    EXPECT_TRUE(setup.warehouse->RunIndexers().ok());
    auto report = setup.warehouse->ExecuteQueries({kQ1, kQ3, kQ5});
    EXPECT_TRUE(report.ok());
    return std::make_pair(report.value().makespan,
                          setup.env->meter().ComputeBill().total());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_DOUBLE_EQ(first.second, second.second);
}

TEST(WarehouseTest, MoreInstancesShortenTheQueryMakespan) {
  auto run = [](int instances) {
    WarehouseConfig config;
    config.strategy = StrategyKind::kLUP;
    config.num_instances = instances;
    Harness setup = MakeWarehouse(config);
    EXPECT_TRUE(setup.warehouse->RunIndexers().ok());
    std::vector<std::string> workload;
    for (int i = 0; i < 8; ++i) workload.push_back(kQ3);
    auto report = setup.warehouse->ExecuteQueries(workload);
    EXPECT_TRUE(report.ok());
    return report.value().makespan;
  };
  const auto one = run(1);
  const auto eight = run(8);
  EXPECT_LT(eight, one);
  EXPECT_GT(eight, one / 10);  // not super-linear either
}

TEST(WarehouseTest, XlInstancesFasterThanL) {
  auto run = [](cloud::InstanceType type) {
    WarehouseConfig config;
    config.strategy = StrategyKind::kLU;
    config.instance_type = type;
    Harness setup = MakeWarehouse(config);
    EXPECT_TRUE(setup.warehouse->RunIndexers().ok());
    auto outcome = setup.warehouse->ExecuteQuery(kQ1);
    EXPECT_TRUE(outcome.ok());
    return outcome.value().timings.total;
  };
  EXPECT_LT(run(cloud::InstanceType::kExtraLarge),
            run(cloud::InstanceType::kLarge));
}

TEST(WarehouseTest, CrashedIndexerTaskIsRedone) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLU;
  config.num_instances = 2;
  int crashes_remaining = 3;
  config.crash_plan = [&](cloud::CrashPoint point, int, const std::string&) {
    if (point == cloud::CrashPoint::kBeforeDelete && crashes_remaining > 0) {
      --crashes_remaining;
      return true;
    }
    return false;
  };
  Harness setup = MakeWarehouse(config);
  auto report = setup.warehouse->RunIndexers();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every document ends up indexed despite the crashes; the three lost
  // tasks were re-processed.
  EXPECT_EQ(report.value().documents, Corpus().size() + 3);
  EXPECT_EQ(crashes_remaining, 0);
  EXPECT_TRUE(setup.env->sqs().Drained("loader-requests"));
  // Queries still work (duplicate index items are harmless).
  auto outcome = setup.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().result.rows.size(), 1u);
}

TEST(WarehouseTest, CrashedQueryTaskIsRedone) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLU;
  bool crashed = false;
  config.crash_plan = [&](cloud::CrashPoint point, int,
                          const std::string& body) {
    if (point == cloud::CrashPoint::kBeforeDelete && !crashed &&
        body.rfind("QUERY", 0) == 0) {
      crashed = true;
      return true;
    }
    return false;
  };
  Harness setup = MakeWarehouse(config);
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  auto outcome = setup.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(crashed);
  EXPECT_EQ(outcome.value().result.rows.size(), 1u);
}

TEST(WarehouseTest, RedeliveredQueryTaskIsDeadLettered) {
  // The first QUERY delivery answers and then loses its ack; with
  // max_deliveries = 1 its redelivery is dead-lettered instead of redone.
  WarehouseConfig config;
  config.strategy = StrategyKind::kLU;
  config.max_deliveries = 1;
  bool crashed = false;
  config.crash_plan = [&](cloud::CrashPoint point, int,
                          const std::string& body) {
    if (point == cloud::CrashPoint::kBeforeDelete && !crashed &&
        body.rfind("QUERY", 0) == 0) {
      crashed = true;
      return true;
    }
    return false;
  };
  Harness setup = MakeWarehouse(config);
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  auto outcome = setup.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(crashed);
  EXPECT_EQ(outcome.value().result.rows.size(), 1u);
  EXPECT_EQ(setup.env->meter().usage().dead_lettered, 1u);
  const auto parked = setup.env->sqs().PeekBodies("dead-letter");
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0].rfind("query-requests\n", 0), 0u) << parked[0];
  auto drained = setup.warehouse->DrainDeadLetters();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained.value(), 1u);
}

TEST(WarehouseTest, MeterAccountsEveryService) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  Harness setup = MakeWarehouse(config);
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  ASSERT_TRUE(setup.warehouse->ExecuteQuery(kQ1).ok());
  const cloud::Usage& usage = setup.env->meter().usage();
  EXPECT_GT(usage.s3_put_requests, 0u);
  EXPECT_GT(usage.s3_get_requests, 0u);
  EXPECT_GT(usage.ddb_put_requests, 0u);
  EXPECT_GT(usage.ddb_get_requests, 0u);
  EXPECT_GT(usage.sqs_requests, 0u);
  EXPECT_GT(usage.vm_micros_large, 0);
  EXPECT_GT(usage.egress_bytes, 0u);
  const cloud::Bill bill = setup.env->meter().ComputeBill();
  EXPECT_GT(bill.ec2, 0.0);
  EXPECT_GT(bill.total(), bill.ec2);
}

TEST(WarehouseTest, IndexSizesExposed) {
  WarehouseConfig config;
  config.strategy = StrategyKind::k2LUPI;
  Harness setup = MakeWarehouse(config);
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  EXPECT_GT(setup.warehouse->IndexRawBytes(), 0u);
  EXPECT_GT(setup.warehouse->IndexOverheadBytes(), 0u);
  EXPECT_GT(setup.warehouse->data_bytes(), 0u);
}

TEST(WarehouseTest, SimpleDbBackendWorksButCostsMore) {
  auto run = [](IndexBackend backend) {
    WarehouseConfig config;
    config.strategy = StrategyKind::kLU;
    config.backend = backend;
    Harness setup = MakeWarehouse(config);
    EXPECT_TRUE(setup.warehouse->RunIndexers().ok());
    auto outcome = setup.warehouse->ExecuteQuery(kQ3);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().result.rows.size(), 1u);
    struct {
      cloud::Micros makespan;
      double bill;
    } out{outcome.value().timings.total,
          setup.env->meter().ComputeBill().total()};
    return out;
  };
  const auto dynamo = run(IndexBackend::kDynamoDb);
  const auto simple = run(IndexBackend::kSimpleDb);
  EXPECT_GT(simple.makespan, dynamo.makespan);
}

TEST(WarehouseTest, FrontEndClockAdvancesThroughPipeline) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLU;
  Harness setup = MakeWarehouse(config);
  const cloud::Micros after_load = setup.warehouse->front_end().now();
  EXPECT_GT(after_load, 0);
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  const cloud::Micros after_index = setup.warehouse->front_end().now();
  EXPECT_GT(after_index, after_load);
  ASSERT_TRUE(setup.warehouse->ExecuteQuery(kQ1).ok());
  EXPECT_GT(setup.warehouse->front_end().now(), after_index);
}

TEST(WarehouseTest, LongIndexingTasksRenewTheirLease) {
  // Construct a task longer than the visibility timeout: a huge S3
  // latency makes the extraction phase ~3 s and a huge DynamoDB latency
  // makes the upload phase ~6 s, against a 8 s timeout.  Without the
  // phase-boundary lease renewals the message would be redelivered to
  // the second instance mid-task and the document indexed twice.
  cloud::CloudConfig cloud_config;
  cloud_config.s3.request_latency = 3 * cloud::kMicrosPerSecond;
  cloud_config.dynamodb.request_latency = 3 * cloud::kMicrosPerSecond;
  cloud_config.sqs.visibility_timeout = 8 * cloud::kMicrosPerSecond;

  WarehouseConfig config;
  config.strategy = StrategyKind::kLU;
  config.num_instances = 2;

  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  Warehouse warehouse(env.get(), config);
  ASSERT_TRUE(warehouse.Setup().ok());
  // One document with enough keys for two upload batches (~6 s upload).
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) {
    xml += "<k" + std::to_string(i) + ">x</k" + std::to_string(i) + ">";
  }
  xml += "</r>";
  ASSERT_TRUE(warehouse.SubmitDocument("big.xml", xml).ok());

  const uint64_t sqs_before = env->meter().usage().sqs_requests;
  auto report = warehouse.RunIndexers();
  ASSERT_TRUE(report.ok());
  // Exactly one task processed: the lease held through both phases.
  EXPECT_EQ(report.value().documents, 1u);
  EXPECT_TRUE(env->sqs().Drained("loader-requests"));
  // And at least one renewal request was billed.
  EXPECT_GT(env->meter().usage().sqs_requests - sqs_before, 3u);
}

}  // namespace
}  // namespace webdex::engine
