#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "scenario.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

/// `config` with `documents` submitted: by default the paintings and
/// fifteen XMark sites.
Scenario Loaded(const WarehouseConfig& config,
                std::vector<xmark::GeneratedDocument> documents =
                    PaintingsAndXmark(15, 6)) {
  Scenario scenario;
  scenario.warehouse = config;
  scenario.documents = std::move(documents);
  return scenario;
}

// The corpus's first document, painting-000.xml ("The Lion Hunt"), with
// its painter renamed: the one q3 row changes from Delacroix to Gericault.
xmark::GeneratedDocument RenamedPainting() {
  xmark::GeneratedDocument doc = Loaded({}).documents.front();
  const size_t at = doc.text.find("Delacroix");
  EXPECT_NE(at, std::string::npos);
  doc.text.replace(at, std::string("Delacroix").size(), "Gericault");
  return doc;
}

// The corpus after RenamedPainting() replaced its first document.
std::vector<xmark::GeneratedDocument> FinalCorpus() {
  auto docs = Loaded({}).documents;
  docs.front() = RenamedPainting();
  return docs;
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
  const Scenario scenario = Loaded(config);
  Deployment setup = Deploy(scenario);

  auto indexing = setup.warehouse->RunIndexers();
  ASSERT_TRUE(indexing.ok()) << indexing.status().ToString();
  EXPECT_EQ(indexing.value().documents, scenario.documents.size());
  EXPECT_GT(indexing.value().makespan, 0);
  EXPECT_GT(indexing.value().extract_stats.entries, 0u);
  EXPECT_GT(indexing.value().index_put_units, 0u);

  auto outcome = setup.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().result.rows.size(), 1u);
  EXPECT_EQ(outcome.value().result.rows[0][0], "Delacroix");
  EXPECT_GT(outcome.value().docs_fetched, 0u);
  EXPECT_LT(outcome.value().docs_fetched, scenario.documents.size());
  EXPECT_GT(outcome.value().timings.total, 0);
  EXPECT_GT(outcome.value().timings.index_get, 0);
}

TEST_P(WarehouseStrategyTest, MatchesNoIndexBaselineResults) {
  WarehouseConfig config;
  config.strategy = GetParam();
  Deployment indexed = Deploy(Loaded(config));
  ASSERT_TRUE(indexed.warehouse->RunIndexers().ok());

  WarehouseConfig baseline_config;
  baseline_config.use_index = false;
  Deployment baseline = Deploy(Loaded(baseline_config));

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

// The indexing run leaves every document's DOM cached.  An upsert stores
// new bytes before its task re-indexes them; a query in between fetches
// and bills the new object, so it must evaluate the new object too,
// exactly like a scan of the final corpus.
TEST_P(WarehouseStrategyTest, QueryBeforeReindexingEvaluatesTheStoredObject) {
  WarehouseConfig config;
  config.strategy = GetParam();
  Deployment indexed = Deploy(Loaded(config));
  ASSERT_TRUE(indexed.warehouse->RunIndexers().ok());
  ASSERT_TRUE(indexed.warehouse->ExecuteQuery(kQ3).ok());  // warm cache

  const auto renamed = RenamedPainting();
  ASSERT_TRUE(
      indexed.warehouse->UpsertDocument(renamed.uri, renamed.text).ok());
  WarehouseConfig baseline_config;
  baseline_config.use_index = false;
  Deployment baseline = Deploy(Loaded(baseline_config, FinalCorpus()));

  auto expected = baseline.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected.value().result.rows.size(), 1u);
  EXPECT_EQ(expected.value().result.rows[0][0], "Gericault");
  auto before = indexed.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().result.rows, expected.value().result.rows);

  ASSERT_TRUE(indexed.warehouse->RunIndexers().ok());
  auto after = indexed.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().result.rows, expected.value().result.rows);
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
  const Scenario scenario = Loaded(config);
  Deployment setup = Deploy(scenario);
  auto outcome = setup.warehouse->ExecuteQuery(kQ1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().docs_fetched, scenario.documents.size());
  EXPECT_EQ(outcome.value().docs_from_index, 0u);
  EXPECT_EQ(outcome.value().timings.index_get, 0);
}

// Without an index a re-submission is a plain replacement of the stored
// object: the URI is scanned once and its bytes are counted once.
TEST(WarehouseTest, ResubmittingToANoIndexWarehouseReplacesTheDocument) {
  WarehouseConfig config;
  config.use_index = false;
  const Scenario scenario = Loaded(config);
  Deployment resubmitted = Deploy(scenario);
  const auto renamed = RenamedPainting();
  ASSERT_TRUE(
      resubmitted.warehouse->SubmitDocument(renamed.uri, renamed.text).ok());
  Deployment baseline = Deploy(Loaded(config, FinalCorpus()));

  EXPECT_EQ(resubmitted.warehouse->document_uris().size(),
            scenario.documents.size());
  EXPECT_EQ(resubmitted.warehouse->data_bytes(),
            baseline.warehouse->data_bytes());
  for (const char* query : {kQ1, kQ3}) {
    auto outcome = resubmitted.warehouse->ExecuteQuery(query);
    auto expected = baseline.warehouse->ExecuteQuery(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(outcome.value().docs_fetched, scenario.documents.size())
        << query;
    EXPECT_EQ(outcome.value().result.rows, expected.value().result.rows)
        << query;
  }
}

// A deleted document's object stays stored until compaction collects it,
// so re-submitting the URI replaces that object: data_bytes() is the
// bucket's size, not the object counted twice.
TEST(WarehouseTest, ResubmittingADeletedDocumentCountsItsBytesOnce) {
  std::vector<xmark::GeneratedDocument> corpus;
  for (int d = 0; d < 4; ++d) {
    corpus.push_back({DocUri(d), DocText(4, 5, d, 0)});
  }
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  Deployment setup = Deploy(Loaded(config, corpus));
  Warehouse& warehouse = *setup.warehouse;
  ASSERT_TRUE(warehouse.RunIndexers().ok());
  ASSERT_TRUE(warehouse.DeleteDocument(corpus[1].uri).ok());
  ASSERT_TRUE(warehouse.RunIndexers().ok());
  ASSERT_TRUE(warehouse.SubmitDocument(corpus[1].uri, corpus[1].text).ok());
  ASSERT_TRUE(warehouse.RunIndexers().ok());
  EXPECT_EQ(warehouse.data_bytes(),
            setup.env->s3().BucketBytes(config.data_bucket));
  EXPECT_EQ(warehouse.document_uris().size(), corpus.size());
}

// The tenant is one line of the QUERYT wire format: tenant "a\nb" with
// query "//x" would read back as tenant "a" and query "b\n//x".  The
// whole batch is refused before any request is sent.
TEST(WarehouseTest, TenantWithNewlineIsRejectedBeforeAnyRequest) {
  Deployment setup = Deploy(Loaded(WarehouseConfig{}));
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  const uint64_t sqs_before = setup.env->meter().Snapshot().sqs_requests;
  auto report = setup.warehouse->ExecuteQueries(
      std::vector<TenantQuery>{{"ok", kQ1}, {"a\nb", "//x"}});
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
  EXPECT_EQ(setup.env->meter().Snapshot().sqs_requests, sqs_before);
}

TEST(WarehouseTest, MalformedQueryIsRejectedBeforeAnyRequest) {
  Deployment setup = Deploy(Loaded(WarehouseConfig{}));
  ASSERT_TRUE(setup.warehouse->RunIndexers().ok());
  const cloud::Usage before = setup.env->meter().Snapshot();
  auto report = setup.warehouse->ExecuteQueries(
      std::vector<std::string>{kQ1, "//name[[["});
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
  const cloud::Usage delta = setup.env->meter().Snapshot() - before;
  EXPECT_EQ(delta.sqs_requests, 0u);
}

TEST(WarehouseTest, RunIndexersWithoutIndexFails) {
  WarehouseConfig config;
  config.use_index = false;
  Deployment setup = Deploy(Loaded(config));
  EXPECT_TRUE(setup.warehouse->RunIndexers().status().IsFailedPrecondition());
}

TEST(WarehouseTest, DeterministicAcrossRuns) {
  auto run = [] {
    WarehouseConfig config;
    config.strategy = StrategyKind::kLUP;
    config.num_instances = 3;
    Deployment setup = Deploy(Loaded(config));
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
    Deployment setup = Deploy(Loaded(config));
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
    Deployment setup = Deploy(Loaded(config));
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
  const Scenario scenario = Loaded(config);
  Deployment setup = Deploy(scenario);
  auto report = setup.warehouse->RunIndexers();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every document ends up indexed despite the crashes; the three lost
  // tasks were re-processed.
  EXPECT_EQ(report.value().documents, scenario.documents.size() + 3);
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
  Deployment setup = Deploy(Loaded(config));
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
  Deployment setup = Deploy(Loaded(config));
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

// One <site> of 30,000 <a/> siblings: its `a` key's ID list spans
// several DynamoDB-sized chunks.  Each chunk shares its item with the
// key, the UUID, the URI and (for upserts) the stamp, so chunks are cut
// to leave them room; a chunk cut at the bare 64 KB value limit made an
// oversized item, and the document was acked as poison after some of
// its pages were written.
TEST(WarehouseTest, IdListsLongerThanOneItemIndexOnDynamoDb) {
  std::string wide = "<site>";
  for (int i = 0; i < 30000; ++i) wide += "<a/>";
  wide += "</site>";
  const std::vector<xmark::GeneratedDocument> corpus = {
      {"wide.xml", wide}, {"small.xml", "<site><a/><b/></site>"}};
  WarehouseConfig baseline_config;
  baseline_config.use_index = false;
  Deployment baseline = Deploy(Loaded(baseline_config, corpus));
  const char* kQuery = "//site//a";
  auto expected = baseline.warehouse->ExecuteQuery(kQuery);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected.value().result.rows.empty());

  for (const StrategyKind kind : {StrategyKind::kLUI, StrategyKind::k2LUPI}) {
    SCOPED_TRACE(index::StrategyKindName(kind));
    WarehouseConfig config;
    config.strategy = kind;
    Deployment indexed = Deploy(Loaded(config, corpus));
    auto report = indexed.warehouse->RunIndexers();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().documents, corpus.size());
    EXPECT_EQ(report.value().poisoned, 0u);
    EXPECT_EQ(report.value().dead_lettered, 0u);
    auto rows = indexed.warehouse->ExecuteQuery(kQuery);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows.value().result.rows, expected.value().result.rows);
  }
}

// A malformed document fails non-retriably: its task is acked at once
// and counted as poisoned (not dead-lettered, and nothing extra billed),
// and every other document still indexes.
TEST(WarehouseTest, MalformedDocumentIsCountedAsPoisoned) {
  auto corpus = Loaded({}).documents;
  corpus.push_back({"broken.xml", "<painting><name>unclosed</painting>"});
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  Deployment setup = Deploy(Loaded(config, corpus));
  auto report = setup.warehouse->RunIndexers();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().poisoned, 1u);
  EXPECT_EQ(report.value().dead_lettered, 0u);
  EXPECT_EQ(report.value().documents, corpus.size() - 1);
  EXPECT_TRUE(setup.env->sqs().Drained("loader-requests"));
  EXPECT_TRUE(setup.env->sqs().PeekBodies("dead-letter").empty());
  auto outcome = setup.warehouse->ExecuteQuery(kQ3);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().result.rows.size(), 1u);
  EXPECT_EQ(outcome.value().result.rows[0][0], "Delacroix");
}

TEST(WarehouseTest, MeterAccountsEveryService) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  Deployment setup = Deploy(Loaded(config));
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
  Deployment setup = Deploy(Loaded(config));
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
    Deployment setup = Deploy(Loaded(config));
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
  Deployment setup = Deploy(Loaded(config));
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
  WarehouseConfig config;
  config.strategy = StrategyKind::kLU;
  config.num_instances = 2;
  // One document with enough keys for two upload batches (~6 s upload).
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) {
    xml += "<k" + std::to_string(i) + ">x</k" + std::to_string(i) + ">";
  }
  xml += "</r>";
  Scenario scenario = Loaded(config, {{"big.xml", xml}});
  scenario.cloud.s3.request_latency = 3 * cloud::kMicrosPerSecond;
  scenario.cloud.dynamodb.request_latency = 3 * cloud::kMicrosPerSecond;
  scenario.cloud.sqs.visibility_timeout = 8 * cloud::kMicrosPerSecond;
  Deployment setup = Deploy(scenario);

  const uint64_t sqs_before = setup.env->meter().usage().sqs_requests;
  auto report = setup.warehouse->RunIndexers();
  ASSERT_TRUE(report.ok());
  // Exactly one task processed: the lease held through both phases.
  EXPECT_EQ(report.value().documents, 1u);
  EXPECT_TRUE(setup.env->sqs().Drained("loader-requests"));
  // And at least one renewal request was billed.
  EXPECT_GT(setup.env->meter().usage().sqs_requests - sqs_before, 3u);
}

}  // namespace
}  // namespace webdex::engine
