// Determinism contract of the host-parallel extraction pipeline: the
// number of host threads is a pure wall-clock knob.  Virtual makespans,
// per-phase timings, extract stats, billing units, simulated dollars and
// the byte-for-byte contents of the index tables must be identical for
// host_threads == 1 (legacy serial path) and host_threads == 8
// (speculative pipeline), across all four strategies, with and without
// crash-injection redeliveries -- including redeliveries of tasks whose
// prefetched result the pipeline already released.  The pipeline's own
// contract (window, release on take, out-of-order takes) is tested
// through its public API at the end.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/extraction_pipeline.h"
#include "engine/warehouse.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"
#include "benchmark_queries.h"
#include "store_dump.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 12;
  config.entities_per_document = 8;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Everything that must not depend on host_threads.
struct RunFingerprint {
  IndexingRunReport report;
  std::vector<std::string> table_dump;  // canonical item serialization
  double dollars = 0;
  // The storage accounting the stores bill from.
  uint64_t raw_bytes = 0;
  uint64_t overhead_bytes = 0;
  std::map<std::string, uint64_t> item_counts;  // per table
};

RunFingerprint RunIndexing(
    WarehouseConfig config, int crashes = 0,
    cloud::CrashPoint crash_at = cloud::CrashPoint::kBeforeDelete) {
  RunFingerprint out;
  int crashes_remaining = crashes;
  if (crashes > 0) {
    config.crash_plan = [&crashes_remaining, crash_at](
                            cloud::CrashPoint point, int,
                            const std::string&) {
      if (point == crash_at && crashes_remaining > 0) {
        --crashes_remaining;
        return true;
      }
      return false;
    };
  }
  auto env = std::make_unique<cloud::CloudEnv>();
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  auto report = warehouse.RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  out.report = report.value();
  out.raw_bytes = warehouse.IndexRawBytes();
  out.overhead_bytes = warehouse.IndexOverheadBytes();
  for (const auto& table : warehouse.index_store().TableNames()) {
    out.item_counts[table] = warehouse.index_store().ItemCount(table);
  }
  out.table_dump = cloud::DumpStore(warehouse.index_store());
  out.dollars = env->meter().ComputeBill().total();
  return out;
}

/// The same stored items and the same storage accounting.
void ExpectSameIndex(const RunFingerprint& a, const RunFingerprint& b) {
  EXPECT_EQ(a.table_dump, b.table_dump);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.overhead_bytes, b.overhead_bytes);
  EXPECT_EQ(a.item_counts, b.item_counts);
}

void ExpectIdentical(const RunFingerprint& serial,
                     const RunFingerprint& parallel) {
  EXPECT_EQ(serial.report.documents, parallel.report.documents);
  EXPECT_EQ(serial.report.extraction_micros, parallel.report.extraction_micros);
  EXPECT_EQ(serial.report.upload_micros, parallel.report.upload_micros);
  EXPECT_EQ(serial.report.makespan, parallel.report.makespan);
  EXPECT_EQ(serial.report.extract_stats.entries,
            parallel.report.extract_stats.entries);
  EXPECT_EQ(serial.report.extract_stats.items,
            parallel.report.extract_stats.items);
  EXPECT_EQ(serial.report.extract_stats.payload_bytes,
            parallel.report.extract_stats.payload_bytes);
  EXPECT_DOUBLE_EQ(serial.report.index_put_units,
                   parallel.report.index_put_units);
  EXPECT_EQ(serial.report.redeliveries, parallel.report.redeliveries);
  EXPECT_EQ(serial.report.dead_lettered, parallel.report.dead_lettered);
  EXPECT_DOUBLE_EQ(serial.dollars, parallel.dollars);
  ASSERT_EQ(serial.table_dump.size(), parallel.table_dump.size());
  ExpectSameIndex(serial, parallel);
}

class PipelineDeterminismTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PipelineDeterminismTest, SerialAndParallelRunsAreBitIdentical) {
  WarehouseConfig config;
  config.strategy = GetParam();
  config.num_instances = 3;
  WarehouseConfig serial = config;
  serial.host_threads = 1;
  WarehouseConfig parallel = config;
  parallel.host_threads = 8;
  ExpectIdentical(RunIndexing(serial), RunIndexing(parallel));
}

TEST_P(PipelineDeterminismTest, IdenticalUnderCrashRedeliveries) {
  WarehouseConfig config;
  config.strategy = GetParam();
  config.num_instances = 2;
  WarehouseConfig serial = config;
  serial.host_threads = 1;
  WarehouseConfig parallel = config;
  parallel.host_threads = 8;
  const auto serial_run = RunIndexing(serial, /*crashes=*/3);
  const auto parallel_run = RunIndexing(parallel, /*crashes=*/3);
  EXPECT_EQ(serial_run.report.documents, Corpus().size() + 3);
  ExpectIdentical(serial_run, parallel_run);
}

// A crash between two BatchPut pages lands after the task took its
// prefetched result, which the pipeline then released: the redelivery
// misses the pipeline and re-extracts inline, to the same items.  Its
// re-put of the pages already committed replaces them, so the stored
// items and the storage accounting equal a crash-free run's on both
// backends.
TEST_P(PipelineDeterminismTest, IdenticalWhenReleasedResultsAreReExtracted) {
  for (const IndexBackend backend :
       {IndexBackend::kDynamoDb, IndexBackend::kSimpleDb}) {
    SCOPED_TRACE(backend == IndexBackend::kDynamoDb ? "DynamoDB" : "SimpleDB");
    WarehouseConfig config;
    config.strategy = GetParam();
    config.num_instances = 2;
    config.backend = backend;
    WarehouseConfig serial = config;
    serial.host_threads = 1;
    WarehouseConfig parallel = config;
    parallel.host_threads = 8;
    const auto clean = RunIndexing(serial);
    const auto serial_run = RunIndexing(
        serial, /*crashes=*/3, cloud::CrashPoint::kBetweenBatchPutPages);
    const auto parallel_run = RunIndexing(
        parallel, /*crashes=*/3, cloud::CrashPoint::kBetweenBatchPutPages);
    // A mid-upload crash completes no task: `documents` stays the corpus
    // size, and the three crashed tasks come back as redeliveries.
    EXPECT_EQ(serial_run.report.redeliveries, 3u);
    EXPECT_EQ(serial_run.report.documents, Corpus().size());
    ExpectSameIndex(serial_run, clean);
    ExpectIdentical(serial_run, parallel_run);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PipelineDeterminismTest,
    ::testing::ValuesIn(index::AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

// Redelivered tasks re-extract to byte-identical items (UUID range keys
// are seeded per document URI), so crash replays *replace* rather than
// duplicate index items: the surviving tables equal a crash-free run's.
TEST(PipelineTest, CrashReplayIsIdempotentOnTableContents) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  config.num_instances = 2;
  const auto clean = RunIndexing(config);
  const auto crashed = RunIndexing(config, /*crashes=*/3);
  EXPECT_EQ(clean.table_dump, crashed.table_dump);
  // The redone work is still billed: more put units, more dollars.
  EXPECT_GT(crashed.report.index_put_units, clean.report.index_put_units);
}

// Querying after a pipelined indexing run returns the same rows as after
// a serial one (the index contents being identical, it must).
TEST(PipelineTest, QueriesAgreeAfterSerialAndParallelIndexing) {
  const char* query =
      "//painting[/name~'Lion', //painter/name/last:val]";
  auto run = [&](int host_threads) {
    WarehouseConfig config;
    config.strategy = StrategyKind::k2LUPI;
    config.host_threads = host_threads;
    auto env = std::make_unique<cloud::CloudEnv>();
    Warehouse warehouse(env.get(), config);
    EXPECT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : Corpus()) {
      EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    EXPECT_TRUE(warehouse.RunIndexers().ok());
    auto outcome = warehouse.ExecuteQuery(query);
    EXPECT_TRUE(outcome.ok());
    return std::make_pair(outcome.value().result.rows,
                          outcome.value().timings.total);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  ASSERT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first[0][0], "Delacroix");
}

/// One indexed deployment over XMark fragments, enough of them that most
/// of q1-q10 fetch more documents than the evaluator's fan-out needs.
struct QueryDeployment {
  QueryDeployment(StrategyKind strategy, int host_threads) {
    env->tracer().set_enabled(true);
    WarehouseConfig config;
    config.strategy = strategy;
    config.num_instances = 2;
    config.host_threads = host_threads;
    warehouse = std::make_unique<Warehouse>(env.get(), config);
    EXPECT_TRUE(warehouse->Setup().ok());
    xmark::GeneratorConfig corpus;
    corpus.num_documents = 48;
    corpus.entities_per_document = 10;
    corpus.split_sections = true;
    for (const auto& doc : xmark::XmarkGenerator(corpus).GenerateAll()) {
      EXPECT_TRUE(warehouse->SubmitDocument(doc.uri, doc.text).ok());
    }
    EXPECT_TRUE(warehouse->RunIndexers().ok());
  }

  std::unique_ptr<cloud::CloudEnv> env = std::make_unique<cloud::CloudEnv>();
  std::unique_ptr<Warehouse> warehouse;
};

/// What a query run must reproduce whatever the host thread count.
struct QueryFingerprint {
  std::vector<std::vector<std::vector<std::string>>> rows;
  std::vector<std::vector<std::vector<std::string>>> row_uris;
  std::vector<uint64_t> docs_fetched;
  cloud::Micros makespan = 0;
  std::string usage;
  double dollars = 0;
  std::string trace;

  bool operator==(const QueryFingerprint&) const = default;
};

QueryFingerprint RunQueries(QueryDeployment& deployment,
                            const std::vector<std::string>& queries) {
  QueryFingerprint out;
  auto report = deployment.warehouse->ExecuteQueries(queries);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return out;
  for (const QueryOutcome& outcome : report.value().outcomes) {
    out.rows.push_back(outcome.result.rows);
    out.row_uris.push_back(outcome.result.row_uris);
    out.docs_fetched.push_back(outcome.docs_fetched);
  }
  out.makespan = report.value().makespan;
  std::ostringstream usage;
  usage.precision(17);
  deployment.env->meter().usage().ForEachField(
      [&usage](const char* name, auto value) {
        usage << name << '=' << value << '\n';
      });
  out.usage = usage.str();
  out.dollars = deployment.env->meter().ComputeBill().total();
  out.trace = deployment.env->tracer().Canonical();
  return out;
}

class QueryDeterminismTest : public ::testing::TestWithParam<StrategyKind> {};

// Query evaluation fans out on the host pool (query::Evaluator::Evaluate
// with the warehouse's shared pool): rows, Usage, bill and canonical
// trace of q1-q10 are the serial run's.
TEST_P(QueryDeterminismTest, BenchmarkQueriesAreIdenticalAcrossHostThreads) {
  QueryDeployment serial(GetParam(), 1);
  QueryDeployment parallel(GetParam(), 8);
  const QueryFingerprint want = RunQueries(serial, BenchmarkQueries());
  const QueryFingerprint got = RunQueries(parallel, BenchmarkQueries());
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.row_uris, want.row_uris);
  EXPECT_EQ(got.docs_fetched, want.docs_fetched);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.usage, want.usage);
  EXPECT_EQ(got.dollars, want.dollars);
  EXPECT_EQ(got.trace, want.trace);
  // Some queries return rows, and some fetch enough documents to fan
  // out.
  size_t rows = 0;
  uint64_t most_fetched = 0;
  for (size_t q = 0; q < want.rows.size(); ++q) {
    rows += want.rows[q].size();
    most_fetched = std::max(most_fetched, want.docs_fetched[q]);
  }
  EXPECT_GT(rows, 0u);
  EXPECT_GE(most_fetched, 16u);
}

INSTANTIATE_TEST_SUITE_P(
    IndexedStrategies, QueryDeterminismTest,
    ::testing::Values(StrategyKind::k2LUPI, StrategyKind::kLUP,
                      StrategyKind::kLUI),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

// Two warehouses of one host thread count share one process-lifetime
// pool (common::ThreadPool::Shared): interleaving their indexing runs
// and queries on it gives each the results it gets alone.
TEST(PipelineTest, TwoWarehousesInterleaveOnTheSharedPool) {
  const std::vector<std::string>& queries = BenchmarkQueries();
  const std::vector<std::string> first(queries.begin(), queries.begin() + 5);
  const std::vector<std::string> second(queries.begin() + 5, queries.end());
  auto alone = [&](StrategyKind strategy) {
    QueryDeployment deployment(strategy, 1);
    RunQueries(deployment, first);
    return RunQueries(deployment, second);
  };
  const QueryFingerprint want_lup = alone(StrategyKind::kLUP);
  const QueryFingerprint want_lui = alone(StrategyKind::kLUI);

  QueryDeployment lup(StrategyKind::kLUP, 3);
  QueryDeployment lui(StrategyKind::kLUI, 3);
  RunQueries(lup, first);
  RunQueries(lui, first);
  const QueryFingerprint got_lup = RunQueries(lup, second);
  const QueryFingerprint got_lui = RunQueries(lui, second);
  EXPECT_TRUE(got_lup == want_lup);
  EXPECT_TRUE(got_lui == want_lui);
}

// The ExtractionPipeline on its own: a data bucket holding Corpus(), a
// LUP strategy and a two-thread pool, so the window (four results, three
// of them in flight) is much smaller than the corpus.
class ExtractionPipelineTest : public ::testing::Test {
 protected:
  ExtractionPipelineTest()
      : strategy_(index::IndexingStrategy::Create(StrategyKind::kLUP)) {
    EXPECT_TRUE(env_.s3().CreateBucket("data").ok());
    cloud::SimAgent agent;
    for (const auto& doc : corpus_) {
      EXPECT_TRUE(env_.s3().Put(agent, "data", doc.uri, doc.text).ok());
    }
  }

  std::unique_ptr<ExtractionPipeline> MakePipeline() {
    auto pipeline = std::make_unique<ExtractionPipeline>(
        &pool_, strategy_.get(), index::ExtractOptions{}, &env_.dynamodb(),
        &env_.s3(), "data", kSeed);
    for (const auto& doc : corpus_) pipeline->Prefetch(doc.uri);
    return pipeline;
  }

  // The result of the serial path, as a canonical dump of its items.
  std::vector<std::string> Expected(size_t i) {
    return Dump(ExtractionPipeline::ExtractNow(
        corpus_[i].uri, corpus_[i].text, *strategy_,
        index::ExtractOptions{}, env_.dynamodb(), kSeed));
  }

  static std::vector<std::string> Dump(const ExtractionResult& result) {
    std::vector<std::string> lines;
    for (const auto& batch : result.items) {
      for (const auto& item : batch.items) {
        lines.push_back(cloud::DumpLine(batch.table, item));
      }
    }
    return lines;
  }

  static constexpr uint64_t kSeed = 7;
  const std::vector<xmark::GeneratedDocument> corpus_ = Corpus();
  cloud::CloudEnv env_;
  std::unique_ptr<index::IndexingStrategy> strategy_;
  common::ThreadPool pool_{2};
};

TEST_F(ExtractionPipelineTest, DrainsMoreDocumentsThanTheWindow) {
  ASSERT_GT(corpus_.size(), 4u * 3);
  auto pipeline = MakePipeline();
  for (size_t i = 0; i < corpus_.size(); ++i) {
    auto result = pipeline->Take(corpus_[i].uri);
    ASSERT_NE(result, nullptr) << corpus_[i].uri;
    ASSERT_TRUE(result->status.ok()) << result->status.ToString();
    EXPECT_EQ(Dump(*result), Expected(i)) << corpus_[i].uri;
  }
}

TEST_F(ExtractionPipelineTest, SecondTakeOfAKeyReturnsNull) {
  auto pipeline = MakePipeline();
  const std::string& uri = corpus_[0].uri;
  EXPECT_NE(pipeline->Take(uri), nullptr);
  EXPECT_EQ(pipeline->Take(uri), nullptr);
  // Different generations of one URI are different keys.
  EXPECT_EQ(pipeline->Take(uri, /*generation=*/3), nullptr);
  EXPECT_EQ(pipeline->Take("never-prefetched.xml"), nullptr);
}

TEST_F(ExtractionPipelineTest, OutOfOrderTakesFallBackAndTheWindowAdvances) {
  auto pipeline = MakePipeline();
  const size_t last = corpus_.size() - 1;
  // Still queued behind the window: not started, so no blocking wait;
  // the key is dropped and its caller extracts inline.
  EXPECT_EQ(pipeline->Take(corpus_[last].uri), nullptr);
  // Inside the window but out of order: served.
  auto third = pipeline->Take(corpus_[2].uri);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(Dump(*third), Expected(2));
  for (size_t i = 0; i < last; ++i) {
    if (i == 2) continue;
    auto result = pipeline->Take(corpus_[i].uri);
    ASSERT_NE(result, nullptr) << corpus_[i].uri;
    EXPECT_EQ(Dump(*result), Expected(i)) << corpus_[i].uri;
  }
  // The dropped key was never submitted.
  EXPECT_EQ(pipeline->Take(corpus_[last].uri), nullptr);
}

TEST_F(ExtractionPipelineTest, DestructionWaitsForUntakenExtractions) {
  auto pipeline = MakePipeline();
  EXPECT_NE(pipeline->Take(corpus_[0].uri), nullptr);
  pipeline.reset();  // results still in flight must not outlive it
  SUCCEED();
}

// The evaluator's thread_local work-stats contract (query/evaluator.h):
// stats are only visible on the producing thread.
TEST(PipelineTest, EvaluatorWorkStatsStayOnProducingThread) {
  auto doc = xml::ParseDocument(
      "t.xml", "<a><b>one</b><b>two</b></a>");
  ASSERT_TRUE(doc.ok());
  auto parsed = query::ParseQuery("//b:val");
  ASSERT_TRUE(parsed.ok());
  const query::TreePattern& pattern = parsed.value().patterns()[0];

  (void)query::Evaluator::ConsumeWorkStats();
  query::Evaluator::WorkStats worker_stats;
  bool worker_pending = false;
  std::thread worker([&] {
    (void)query::Evaluator::ConsumeWorkStats();
    auto matches = query::Evaluator::MatchPattern(pattern, doc.value());
    EXPECT_EQ(matches.size(), 2u);
    worker_pending = query::Evaluator::HasPendingWorkStats();
    worker_stats = query::Evaluator::ConsumeWorkStats();
  });
  worker.join();
  // The producing thread saw and consumed its own stats...
  EXPECT_TRUE(worker_pending);
  EXPECT_GT(worker_stats.doc_bytes_scanned, 0u);
  EXPECT_EQ(worker_stats.embeddings_found, 2u);
  // ...while this thread's stats stayed untouched: consuming here after
  // cross-thread work yields nothing.
  EXPECT_FALSE(query::Evaluator::HasPendingWorkStats());
  const auto main_stats = query::Evaluator::ConsumeWorkStats();
  EXPECT_EQ(main_stats.doc_bytes_scanned, 0u);
  EXPECT_EQ(main_stats.embeddings_found, 0u);
}

}  // namespace
}  // namespace webdex::engine
