// Brownout tolerance (docs/FAULTS.md): under a sustained index-store
// outage, circuit breakers open and every query falls back to a full
// warehouse scan — answering bit-identically to the healthy run, at a
// strictly higher metered cost.  Once the outage lifts and the breaker's
// virtual-time cooldown lapses, half-open probes close it again and
// queries return to the indexed path.  All of it deterministic: serial
// and host-parallel brownout runs are bit-identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cloud/circuit_breaker.h"
#include "cloud/cloud_env.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"

namespace webdex::engine {
namespace {

using cloud::BreakerState;
using cloud::Micros;
using index::StrategyKind;

const char* kQuery = "//painting[/name~'Lion', //painter/name/last:val]";

std::vector<std::string> Workload() {
  return {kQuery, "//painting[/year:val, /museum]", kQuery};
}

struct BrownoutRun {
  QueryRunReport report;
  double total_dollars = 0;
  double query_dollars = 0;
  cloud::Usage usage;
  Micros index_end = 0;  // front-end clock after indexing
};

/// Indexes the paintings corpus fault-free, then runs the workload with
/// a sustained index-store outage covering [index_end + outage_start,
/// index_end + outage_end) — (0, 0) means no outage.  `index_end` is
/// deterministic, so it is measured by a dry run inside.
BrownoutRun RunBrownout(StrategyKind strategy, IndexBackend backend,
                        Micros outage_start, Micros outage_end,
                        int host_threads) {
  // Pass 1: fault-free, to learn when the query phase begins.
  Micros index_end = 0;
  {
    cloud::CloudEnv env;
    WarehouseConfig config;
    config.strategy = strategy;
    config.backend = backend;
    config.host_threads = host_threads;
    Warehouse warehouse(&env, config);
    EXPECT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : xmark::GeneratePaintings()) {
      EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    auto report = warehouse.RunIndexers();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    index_end = warehouse.front_end().now();
  }

  // Pass 2: indexing is deterministic, so it finishes at the same
  // instant and the outage window hits only the queries.
  cloud::CloudConfig cloud_config;
  if (outage_end > outage_start) {
    cloud::OutageWindow window;
    window.service = backend == IndexBackend::kSimpleDb
                         ? cloud::ServiceId::kSimpleDb
                         : cloud::ServiceId::kDynamoDb;
    window.start = index_end + outage_start;
    window.end = index_end + outage_end;
    cloud_config.faults.outages.push_back(window);
  }
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = strategy;
  config.backend = backend;
  config.host_threads = host_threads;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : xmark::GeneratePaintings()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  auto indexing = warehouse.RunIndexers();
  EXPECT_TRUE(indexing.ok()) << indexing.status().ToString();
  EXPECT_EQ(warehouse.front_end().now(), index_end);

  BrownoutRun out;
  out.index_end = index_end;
  const cloud::Usage before = env->meter().Snapshot();
  auto report = warehouse.ExecuteQueries(Workload());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) out.report = std::move(report).value();
  out.query_dollars =
      env->meter().ComputeBill(env->meter().Snapshot() - before).total();
  out.total_dollars = env->meter().ComputeBill().total();
  out.usage = env->meter().usage();
  return out;
}

constexpr Micros kForever = 3600 * cloud::kMicrosPerSecond;

class DegradedTest : public ::testing::TestWithParam<StrategyKind> {};

// The headline: a sustained outage covering the whole query phase forces
// every query onto the scan fallback; answers are bit-identical to the
// healthy run and strictly dearer.
TEST_P(DegradedTest, SustainedOutageDegradesEveryQueryBitIdentically) {
  const BrownoutRun healthy =
      RunBrownout(GetParam(), IndexBackend::kDynamoDb, 0, 0, 1);
  const BrownoutRun browned =
      RunBrownout(GetParam(), IndexBackend::kDynamoDb, 0, kForever, 1);

  // The healthy run answered from the index, breakers untouched.
  ASSERT_EQ(healthy.report.outcomes.size(), Workload().size());
  for (const auto& outcome : healthy.report.outcomes) {
    EXPECT_FALSE(outcome.degraded);
    EXPECT_EQ(outcome.scan_docs, 0u);
  }
  EXPECT_EQ(healthy.usage.breaker_opens, 0u);
  EXPECT_EQ(healthy.usage.breaker_short_circuits, 0u);
  EXPECT_EQ(healthy.usage.degraded_queries, 0u);

  // The browned-out run answered every query, all via the fallback.
  ASSERT_EQ(browned.report.outcomes.size(), Workload().size());
  for (size_t q = 0; q < Workload().size(); ++q) {
    const QueryOutcome& degraded = browned.report.outcomes[q];
    EXPECT_TRUE(degraded.degraded) << "query " << q;
    EXPECT_EQ(degraded.scan_docs, xmark::GeneratePaintings().size());
    EXPECT_EQ(degraded.docs_from_index, 0u);
    // Bit-identical answers.
    EXPECT_EQ(degraded.result.rows, healthy.report.outcomes[q].result.rows);
  }
  EXPECT_EQ(browned.report.degraded_queries, Workload().size());
  EXPECT_GE(browned.report.breaker_opens, 1u);
  // The planner consults breaker health before issuing look-ups
  // (docs/PLANNER.md): after the first query's failed look-up opens the
  // breaker, later queries plan straight to the scan path instead of
  // burning short-circuited attempts against the open breaker.  Every
  // query records its fallback.
  EXPECT_EQ(browned.usage.breaker_short_circuits, 0u);
  EXPECT_EQ(browned.report.planner_fallbacks, Workload().size());
  // Availability was paid for: strictly more dollars, longer makespan.
  EXPECT_GT(browned.query_dollars, healthy.query_dollars);
  EXPECT_GT(browned.report.makespan, healthy.report.makespan);
}

// The brownout schedule is deterministic: serial and host-parallel runs
// agree bit-for-bit on answers, counters and bills.
TEST_P(DegradedTest, SerialAndParallelBrownoutRunsAreBitIdentical) {
  const BrownoutRun serial =
      RunBrownout(GetParam(), IndexBackend::kDynamoDb, 0, kForever, 1);
  const BrownoutRun parallel =
      RunBrownout(GetParam(), IndexBackend::kDynamoDb, 0, kForever, 8);
  ASSERT_EQ(serial.report.outcomes.size(), parallel.report.outcomes.size());
  for (size_t q = 0; q < serial.report.outcomes.size(); ++q) {
    EXPECT_EQ(serial.report.outcomes[q].result.rows,
              parallel.report.outcomes[q].result.rows);
    EXPECT_EQ(serial.report.outcomes[q].degraded,
              parallel.report.outcomes[q].degraded);
  }
  EXPECT_EQ(serial.report.makespan, parallel.report.makespan);
  EXPECT_DOUBLE_EQ(serial.total_dollars, parallel.total_dollars);
  EXPECT_EQ(serial.usage.breaker_opens, parallel.usage.breaker_opens);
  EXPECT_EQ(serial.usage.breaker_short_circuits,
            parallel.usage.breaker_short_circuits);
  EXPECT_EQ(serial.usage.degraded_queries, parallel.usage.degraded_queries);
  EXPECT_EQ(serial.usage.faulted_requests, parallel.usage.faulted_requests);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DegradedTest,
    ::testing::ValuesIn(index::AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

// The legacy SimpleDB deployment browns out and recovers the same way.
TEST(DegradedSimpleDbTest, SustainedOutageDegradesQueries) {
  const BrownoutRun healthy =
      RunBrownout(StrategyKind::kLUP, IndexBackend::kSimpleDb, 0, 0, 1);
  const BrownoutRun browned =
      RunBrownout(StrategyKind::kLUP, IndexBackend::kSimpleDb, 0, kForever, 1);
  ASSERT_EQ(browned.report.outcomes.size(), Workload().size());
  for (size_t q = 0; q < Workload().size(); ++q) {
    EXPECT_TRUE(browned.report.outcomes[q].degraded);
    EXPECT_EQ(browned.report.outcomes[q].result.rows,
              healthy.report.outcomes[q].result.rows);
  }
  EXPECT_GE(browned.report.breaker_opens, 1u);
  EXPECT_GT(browned.query_dollars, healthy.query_dollars);
}

// A finite outage: queries inside it degrade; once it lifts and the
// cooldown lapses, half-open probes close the breaker and later queries
// answer from the index again.
TEST(BreakerRecoveryTest, BreakerClosesAfterOutageLifts) {
  const Micros outage = 120 * cloud::kMicrosPerSecond;
  cloud::CloudConfig cloud_config;
  // Learn the indexing end time from a dry run.
  Micros index_end = 0;
  {
    cloud::CloudEnv env;
    WarehouseConfig config;
    config.strategy = StrategyKind::kLUP;
    Warehouse warehouse(&env, config);
    ASSERT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : xmark::GeneratePaintings()) {
      ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    ASSERT_TRUE(warehouse.RunIndexers().ok());
    index_end = warehouse.front_end().now();
  }
  cloud::OutageWindow window;
  window.service = cloud::ServiceId::kDynamoDb;
  window.start = index_end;
  window.end = index_end + outage;
  cloud_config.faults.outages.push_back(window);

  cloud::CloudEnv env(cloud_config);
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  Warehouse warehouse(&env, config);
  ASSERT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : xmark::GeneratePaintings()) {
    ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(warehouse.RunIndexers().ok());

  // During the outage: degraded, breaker opens.
  auto during = warehouse.ExecuteQuery(kQuery);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(during.value().degraded);
  EXPECT_GE(env.meter().usage().breaker_opens, 1u);

  // Still inside the outage but past the cooldown: the half-open probe
  // fails against the dead service and the breaker re-opens.
  const uint64_t opens_before = env.meter().usage().breaker_opens;
  warehouse.front_end().AdvanceTo(
      index_end + outage / 2 + env.config().breaker.cooldown);
  auto still_down = warehouse.ExecuteQuery(kQuery);
  ASSERT_TRUE(still_down.ok()) << still_down.status().ToString();
  EXPECT_TRUE(still_down.value().degraded);
  EXPECT_GT(env.meter().usage().breaker_opens, opens_before);

  // After the outage and another cooldown: probes succeed and the query
  // answers from the index again (half-open lets real traffic through).
  warehouse.front_end().AdvanceTo(index_end + outage +
                                  env.config().breaker.cooldown);
  auto after = warehouse.ExecuteQuery(kQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().degraded);
  EXPECT_EQ(after.value().result.rows, during.value().result.rows);

  // Once success_threshold probe calls have accumulated, the breaker is
  // closed for good.
  auto settled = warehouse.ExecuteQuery(kQuery);
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
  for (int i = 0; i < config.success_threshold; ++i) {
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
