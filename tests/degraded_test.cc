// Brownout tolerance (docs/FAULTS.md): under a sustained index-store
// outage, circuit breakers open and every query falls back to a full
// warehouse scan — answering bit-identically to the healthy run, at a
// strictly higher metered cost.  Once the outage lifts and the breaker's
// virtual-time cooldown lapses, half-open probes close it again and
// queries return to the indexed path.  All of it deterministic: serial
// and host-parallel brownout runs are bit-identical.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cloud/circuit_breaker.h"
#include "scenario.h"

namespace webdex::engine {
namespace {

using cloud::BreakerState;
using cloud::Micros;
using index::StrategyKind;

const std::vector<std::string> kWorkload = {
    kPaintingQuery, "//painting[/year:val, /museum]", kPaintingQuery};

constexpr Micros kForever = 3600 * cloud::kMicrosPerSecond;

/// The paintings corpus, indexed fault-free, then the workload under a
/// sustained index-store outage covering [index_end + outage_start,
/// index_end + outage_end) — (0, 0) means no outage.  Indexing is
/// deterministic, so a fault-free build pins `index_end`, when the query
/// phase begins, and the outage window hits only the queries.
Scenario Brownout(StrategyKind strategy, IndexBackend backend,
                  Micros outage_start, Micros outage_end) {
  Scenario scenario;
  scenario.warehouse.strategy = strategy;
  scenario.warehouse.backend = backend;
  scenario.warehouse.host_threads = 1;
  scenario.documents = xmark::GeneratePaintings();
  const Micros index_end = RunScenario(scenario).index_end;
  scenario.queries = kWorkload;
  if (outage_end > outage_start) {
    cloud::OutageWindow window;
    window.service = backend == IndexBackend::kSimpleDb
                         ? cloud::ServiceId::kSimpleDb
                         : cloud::ServiceId::kDynamoDb;
    window.start = index_end + outage_start;
    window.end = index_end + outage_end;
    scenario.cloud.faults.outages.push_back(window);
  }
  scenario.after_index = [index_end](Outcome& run) {
    EXPECT_EQ(run.index_end, index_end);
  };
  return scenario;
}

double QueryDollars(const Outcome& run) {
  return run.env().meter().ComputeBill(run.query_usage).total();
}

class DegradedTest : public ::testing::TestWithParam<StrategyKind> {};

// The headline: a sustained outage covering the whole query phase forces
// every query onto the scan fallback; answers are bit-identical to the
// healthy run and strictly dearer.
TEST_P(DegradedTest, SustainedOutageDegradesEveryQueryBitIdentically) {
  const Outcome healthy =
      RunScenario(Brownout(GetParam(), IndexBackend::kDynamoDb, 0, 0));
  const Outcome browned =
      RunScenario(Brownout(GetParam(), IndexBackend::kDynamoDb, 0, kForever));

  // The healthy run answered from the index, breakers untouched.
  ASSERT_EQ(healthy.queries.outcomes.size(), kWorkload.size());
  for (const auto& outcome : healthy.queries.outcomes) {
    EXPECT_FALSE(outcome.degraded);
    EXPECT_EQ(outcome.scan_docs, 0u);
  }
  EXPECT_EQ(healthy.usage.breaker_opens, 0u);
  EXPECT_EQ(healthy.usage.breaker_short_circuits, 0u);
  EXPECT_EQ(healthy.usage.degraded_queries, 0u);

  // The browned-out run answered every query, all via the fallback.
  ASSERT_EQ(browned.queries.outcomes.size(), kWorkload.size());
  for (size_t q = 0; q < kWorkload.size(); ++q) {
    const QueryOutcome& degraded = browned.queries.outcomes[q];
    EXPECT_TRUE(degraded.degraded) << "query " << q;
    EXPECT_EQ(degraded.scan_docs, xmark::GeneratePaintings().size());
    EXPECT_EQ(degraded.docs_from_index, 0u);
  }
  // Bit-identical answers.
  EXPECT_EQ(browned.rows, healthy.rows);
  EXPECT_EQ(browned.queries.degraded_queries, kWorkload.size());
  EXPECT_GE(browned.queries.breaker_opens, 1u);
  // The planner consults breaker health before issuing look-ups
  // (docs/PLANNER.md): after the first query's failed look-up opens the
  // breaker, later queries plan straight to the scan path instead of
  // burning short-circuited attempts against the open breaker.  Every
  // query records its fallback.
  EXPECT_EQ(browned.usage.breaker_short_circuits, 0u);
  EXPECT_EQ(browned.queries.planner_fallbacks, kWorkload.size());
  // Availability was paid for: strictly more dollars, longer makespan.
  EXPECT_GT(QueryDollars(browned), QueryDollars(healthy));
  EXPECT_GT(browned.queries.makespan, healthy.queries.makespan);
}

// The brownout schedule is deterministic: serial and host-parallel runs
// agree bit-for-bit on answers, counters and bills.
TEST_P(DegradedTest, SerialAndParallelBrownoutRunsAreBitIdentical) {
  ExpectSerialEqualsParallel(
      Brownout(GetParam(), IndexBackend::kDynamoDb, 0, kForever));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DegradedTest,
    ::testing::ValuesIn(index::AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

// The legacy SimpleDB deployment browns out and recovers the same way.
TEST(DegradedSimpleDbTest, SustainedOutageDegradesQueries) {
  const Outcome healthy =
      RunScenario(Brownout(StrategyKind::kLUP, IndexBackend::kSimpleDb, 0, 0));
  const Outcome browned = RunScenario(
      Brownout(StrategyKind::kLUP, IndexBackend::kSimpleDb, 0, kForever));
  ASSERT_EQ(browned.queries.outcomes.size(), kWorkload.size());
  for (size_t q = 0; q < kWorkload.size(); ++q) {
    EXPECT_TRUE(browned.queries.outcomes[q].degraded);
  }
  EXPECT_EQ(browned.rows, healthy.rows);
  EXPECT_GE(browned.queries.breaker_opens, 1u);
  EXPECT_GT(QueryDollars(browned), QueryDollars(healthy));
}

// A document deleted and revived keeps its place in the registry, so the
// degraded scan fetches it in URI order — the order the indexed answer
// lists it in — and its rows stay bit-identical to the indexed run's.
TEST(DegradedRevivalTest, RevivedDocumentScansInUriOrder) {
  constexpr int kDocs = 6;
  Scenario scenario;
  scenario.warehouse.strategy = StrategyKind::kLUP;
  for (int d = 0; d < kDocs; ++d) {
    scenario.documents.push_back({DocUri(d), DocText(kDocs, 5, d, 0)});
  }
  scenario.after_index = [](Outcome& run) {
    Warehouse& warehouse = run.warehouse();
    ASSERT_TRUE(warehouse.DeleteDocument(DocUri(1)).ok());
    ASSERT_TRUE(warehouse.RunIndexers().ok());
    ASSERT_TRUE(
        warehouse.UpsertDocument(DocUri(1), DocText(kDocs, 5, 1, 0)).ok());
    ASSERT_TRUE(warehouse.RunIndexers().ok());
  };
  // A dry run pins when the revival is indexed; the outage starts there.
  const Micros revived_at = RunScenario(scenario).warehouse().front_end().now();
  scenario.queries = {"//people/person[/name:val]"};
  const Outcome indexed = RunScenario(scenario);
  cloud::OutageWindow window;
  window.service = cloud::ServiceId::kDynamoDb;
  window.start = revived_at;
  window.end = revived_at + kForever;
  scenario.cloud.faults.outages.push_back(window);
  const Outcome browned = RunScenario(scenario);

  ASSERT_EQ(indexed.queries.outcomes.size(), 1u);
  ASSERT_EQ(browned.queries.outcomes.size(), 1u);
  EXPECT_FALSE(indexed.queries.outcomes[0].degraded);
  EXPECT_TRUE(browned.queries.outcomes[0].degraded);
  EXPECT_EQ(browned.queries.outcomes[0].scan_docs, uint64_t{kDocs});
  ASSERT_EQ(indexed.rows[0].size(), size_t{kDocs});
  EXPECT_EQ(browned.rows, indexed.rows);
  EXPECT_EQ(browned.queries.outcomes[0].result.row_uris,
            indexed.queries.outcomes[0].result.row_uris);
}

// A finite outage: queries inside it degrade; once it lifts and the
// cooldown lapses, half-open probes close the breaker and later queries
// answer from the index again.
TEST(BreakerRecoveryTest, BreakerClosesAfterOutageLifts) {
  const Micros outage = 120 * cloud::kMicrosPerSecond;
  Scenario scenario;
  scenario.warehouse.strategy = StrategyKind::kLUP;
  scenario.documents = xmark::GeneratePaintings();
  // Learn the indexing end time from a dry run.
  const Micros index_end = RunScenario(scenario).index_end;
  cloud::OutageWindow window;
  window.service = cloud::ServiceId::kDynamoDb;
  window.start = index_end;
  window.end = index_end + outage;
  scenario.cloud.faults.outages.push_back(window);
  const Outcome run = RunScenario(scenario);
  Warehouse& warehouse = run.warehouse();
  cloud::CloudEnv& env = run.env();

  // During the outage: degraded, breaker opens.
  auto during = warehouse.ExecuteQuery(kPaintingQuery);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(during.value().degraded);
  EXPECT_GE(env.meter().usage().breaker_opens, 1u);

  // Still inside the outage but past the cooldown: the half-open probe
  // fails against the dead service and the breaker re-opens.
  const uint64_t opens_before = env.meter().usage().breaker_opens;
  warehouse.front_end().AdvanceTo(
      index_end + outage / 2 + env.config().breaker.cooldown);
  auto still_down = warehouse.ExecuteQuery(kPaintingQuery);
  ASSERT_TRUE(still_down.ok()) << still_down.status().ToString();
  EXPECT_TRUE(still_down.value().degraded);
  EXPECT_GT(env.meter().usage().breaker_opens, opens_before);

  // After the outage and another cooldown: probes succeed and the query
  // answers from the index again (half-open lets real traffic through).
  warehouse.front_end().AdvanceTo(index_end + outage +
                                  env.config().breaker.cooldown);
  auto after = warehouse.ExecuteQuery(kPaintingQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().degraded);
  EXPECT_EQ(after.value().result.rows, during.value().result.rows);

  // Once kSuccessThreshold probe calls have accumulated, the breaker is
  // closed for good.
  auto settled = warehouse.ExecuteQuery(kPaintingQuery);
  ASSERT_TRUE(settled.ok()) << settled.status().ToString();
  EXPECT_FALSE(settled.value().degraded);
  EXPECT_GE(env.meter().usage().breaker_closes, 1u);
}

// Direct state-machine checks of the breaker itself.  Each transition
// is also a zero-duration root span at the transition's virtual time.
TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndCoolsDown) {
  cloud::CloudEnv env;
  env.tracer().set_enabled(true);
  cloud::CircuitBreaker& breaker = env.breaker();
  const cloud::CircuitBreakerConfig& config = breaker.config();
  const cloud::UsageMeter& meter = env.meter();

  const Micros t0 = 1000;
  for (int i = 0; i < config.failure_threshold - 1; ++i) {
    breaker.RecordFailure("t", t0);
    EXPECT_EQ(breaker.state("t"), BreakerState::kClosed);
  }
  breaker.RecordFailure("t", t0);
  EXPECT_EQ(breaker.state("t"), BreakerState::kOpen);
  EXPECT_EQ(meter.usage().breaker_opens, 1u);

  // While cooling down: short-circuits, unbilled but counted.
  EXPECT_TRUE(breaker.Allow("t", t0 + 1).IsUnavailable());
  EXPECT_EQ(meter.usage().breaker_short_circuits, 1u);
  // Another resource is unaffected.
  EXPECT_TRUE(breaker.Allow("other", t0 + 1).ok());

  // After the cooldown: half-open, probes allowed.
  EXPECT_TRUE(breaker.Allow("t", t0 + config.cooldown).ok());
  EXPECT_EQ(breaker.state("t"), BreakerState::kHalfOpen);
  // One probe failure slams it shut again.
  breaker.RecordFailure("t", t0 + config.cooldown);
  EXPECT_EQ(breaker.state("t"), BreakerState::kOpen);
  EXPECT_EQ(meter.usage().breaker_opens, 2u);

  // Second cooldown, then enough successes close it for good.
  const Micros t1 = t0 + 2 * config.cooldown;
  EXPECT_TRUE(breaker.Allow("t", t1).ok());
  for (int i = 0; i < cloud::CircuitBreaker::kSuccessThreshold; ++i) {
    breaker.RecordSuccess("t");
  }
  EXPECT_EQ(breaker.state("t"), BreakerState::kClosed);
  EXPECT_EQ(meter.usage().breaker_closes, 1u);
  EXPECT_TRUE(breaker.Allow("t", t1).ok());

  using Span = std::tuple<std::string, uint64_t, int64_t, int64_t>;
  std::vector<Span> spans;
  for (const common::TraceSpan& span : env.tracer().spans()) {
    spans.emplace_back(span.name, span.parent, span.start_us, span.end_us);
  }
  const Micros t_half = t0 + config.cooldown;
  EXPECT_EQ(spans, (std::vector<Span>{
                       {"breaker.open:t", 0, t0, t0},
                       {"breaker.half_open:t", 0, t_half, t_half},
                       {"breaker.open:t", 0, t_half, t_half},
                       {"breaker.half_open:t", 0, t1, t1},
                       {"breaker.close:t", 0, t1, t1},
                   }));
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureRun) {
  cloud::CloudEnv env;
  cloud::CircuitBreaker& breaker = env.breaker();
  const cloud::CircuitBreakerConfig& config = breaker.config();
  const cloud::UsageMeter& meter = env.meter();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < config.failure_threshold - 1; ++i) {
      breaker.RecordFailure("t", 0);
    }
    breaker.RecordSuccess("t");  // never 5 in a row
  }
  EXPECT_EQ(breaker.state("t"), BreakerState::kClosed);
  EXPECT_EQ(meter.usage().breaker_opens, 0u);
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips) {
  cloud::CloudConfig config;
  config.breaker.enabled = false;
  cloud::CloudEnv env(config);
  cloud::CircuitBreaker& breaker = env.breaker();
  const cloud::UsageMeter& meter = env.meter();
  for (int i = 0; i < 100; ++i) breaker.RecordFailure("t", 0);
  EXPECT_TRUE(breaker.Allow("t", 0).ok());
  EXPECT_EQ(meter.usage().breaker_opens, 0u);
}

}  // namespace
}  // namespace webdex::engine
