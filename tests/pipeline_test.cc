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
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/extraction_pipeline.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xml/parser.h"
#include "benchmark_queries.h"
#include "scenario.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

/// `strategy` indexing the paintings and twelve XMark sites on
/// `instances` instances; with `crashes`, that many tasks crash at
/// `crash_at` and are redelivered.
Scenario Indexing(
    StrategyKind strategy, int instances, int crashes = 0,
    cloud::CrashPoint crash_at = cloud::CrashPoint::kBeforeDelete) {
  Scenario scenario;
  scenario.warehouse.strategy = strategy;
  scenario.warehouse.num_instances = instances;
  scenario.warehouse.host_threads = 1;
  scenario.documents = PaintingsAndXmark(12, 8);
  if (crashes > 0) {
    scenario.warehouse.crash_plan =
        [remaining = crashes, crash_at](cloud::CrashPoint point, int,
                                        const std::string&) mutable {
          if (point == crash_at && remaining > 0) {
            --remaining;
            return true;
          }
          return false;
        };
  }
  return scenario;
}

/// The same stored items and the same storage accounting.
void ExpectSameIndex(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.dump, b.dump);
  EXPECT_EQ(a.warehouse().IndexRawBytes(), b.warehouse().IndexRawBytes());
  EXPECT_EQ(a.warehouse().IndexOverheadBytes(),
            b.warehouse().IndexOverheadBytes());
  const cloud::KvStore& a_store = a.warehouse().index_store();
  const cloud::KvStore& b_store = b.warehouse().index_store();
  EXPECT_EQ(a_store.TableNames(), b_store.TableNames());
  for (const std::string& table : a_store.TableNames()) {
    EXPECT_EQ(a_store.ItemCount(table), b_store.ItemCount(table)) << table;
  }
}

/// Runs `scenario` at host_threads 1 and 8: every Outcome field, and the
/// stored items and storage accounting, agree.
Outcome ExpectIdenticalIndexing(const Scenario& scenario) {
  auto [serial, parallel] = ExpectSerialEqualsParallel(scenario);
  ExpectSameIndex(serial, parallel);
  return std::move(serial);
}

class PipelineDeterminismTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PipelineDeterminismTest, SerialAndParallelRunsAreBitIdentical) {
  ExpectIdenticalIndexing(Indexing(GetParam(), 3));
}

TEST_P(PipelineDeterminismTest, IdenticalUnderCrashRedeliveries) {
  const Scenario scenario = Indexing(GetParam(), 2, /*crashes=*/3);
  const Outcome serial_run = ExpectIdenticalIndexing(scenario);
  EXPECT_EQ(serial_run.report.documents, scenario.documents.size() + 3);
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
    Scenario scenario = Indexing(GetParam(), 2);
    scenario.warehouse.backend = backend;
    const Outcome clean = RunScenario(scenario);
    scenario = Indexing(GetParam(), 2, /*crashes=*/3,
                        cloud::CrashPoint::kBetweenBatchPutPages);
    scenario.warehouse.backend = backend;
    const Outcome serial_run = ExpectIdenticalIndexing(scenario);
    // A mid-upload crash completes no task: `documents` stays the corpus
    // size, and the three crashed tasks come back as redeliveries.
    EXPECT_EQ(serial_run.report.redeliveries, 3u);
    EXPECT_EQ(serial_run.report.documents, scenario.documents.size());
    ExpectSameIndex(serial_run, clean);
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
  const Outcome clean = RunScenario(Indexing(StrategyKind::kLUP, 2));
  const Outcome crashed =
      RunScenario(Indexing(StrategyKind::kLUP, 2, /*crashes=*/3));
  EXPECT_EQ(clean.dump, crashed.dump);
  // The redone work is still billed: more put units, more dollars.
  EXPECT_GT(crashed.report.index_put_units, clean.report.index_put_units);
}

// Querying after a pipelined indexing run returns the same rows as after
// a serial one (the index contents being identical, it must).
TEST(PipelineTest, QueriesAgreeAfterSerialAndParallelIndexing) {
  Scenario scenario = Indexing(StrategyKind::k2LUPI, 1);
  scenario.queries = {kPaintingQuery};
  const auto [serial, parallel] = ExpectSerialEqualsParallel(scenario);
  ASSERT_FALSE(serial.rows[0].empty());
  EXPECT_EQ(serial.rows[0][0][0], "Delacroix");
}

/// q1-q10 over XMark fragments, enough of them that most queries fetch
/// more documents than the evaluator's fan-out needs.
Scenario Queried(StrategyKind strategy, std::vector<std::string> queries) {
  Scenario scenario;
  scenario.warehouse.strategy = strategy;
  scenario.warehouse.num_instances = 2;
  scenario.warehouse.host_threads = 1;
  scenario.documents = XmarkFragments(48, 10);
  scenario.queries = std::move(queries);
  return scenario;
}

class QueryDeterminismTest : public ::testing::TestWithParam<StrategyKind> {};

// Query evaluation fans out on the host pool (query::Evaluator::Evaluate
// with the warehouse's shared pool): rows, Usage, bill and canonical
// trace of q1-q10 are the serial run's.
TEST_P(QueryDeterminismTest, BenchmarkQueriesAreIdenticalAcrossHostThreads) {
  const auto [want, got] =
      ExpectSerialEqualsParallel(Queried(GetParam(), BenchmarkQueries()));
  // Some queries return rows, and some fetch enough documents to fan
  // out.
  size_t rows = 0;
  uint64_t most_fetched = 0;
  for (const QueryOutcome& outcome : want.queries.outcomes) {
    rows += outcome.result.rows.size();
    most_fetched = std::max(most_fetched, outcome.docs_fetched);
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
    Outcome run = RunScenario(Queried(strategy, first));
    RunQueries(run, second);
    return run;
  };
  const Outcome want_lup = alone(StrategyKind::kLUP);
  const Outcome want_lui = alone(StrategyKind::kLUI);

  Scenario lup_scenario = Queried(StrategyKind::kLUP, first);
  Scenario lui_scenario = Queried(StrategyKind::kLUI, first);
  lup_scenario.warehouse.host_threads = 3;
  lui_scenario.warehouse.host_threads = 3;
  Outcome lup = RunScenario(lup_scenario);
  Outcome lui = RunScenario(lui_scenario);
  RunQueries(lup, second);
  RunQueries(lui, second);
  ExpectIdentical(want_lup, lup);
  ExpectIdentical(want_lui, lui);
}

// The ExtractionPipeline on its own: a data bucket holding the paintings
// and twelve XMark sites, a LUP strategy and a two-thread pool, so the
// window (four results, three of them in flight) is much smaller than
// the corpus.
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
  const std::vector<xmark::GeneratedDocument> corpus_ =
      PaintingsAndXmark(12, 8);
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
