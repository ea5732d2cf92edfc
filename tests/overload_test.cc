// Overload-resilience contract (docs/OVERLOAD.md): with NO FaultPlan
// anywhere, an offered load beyond the provisioned capacity must degrade
// gracefully through three independent layers —
//
//   * the index store throttles organically (kResourceExhausted + a
//     Retry-After hint) once its fluid backlog exceeds the delay bound,
//     and hint-paced retries converge to the provisioned throughput with
//     bounded queues;
//   * engine admission control defers or sheds queries (typed
//     kOverloaded) under token-bucket and AIMD concurrency limits,
//     fairly per tenant, without billing a single unit of loser work and
//     without perturbing the bit-identical rows of admitted queries;
//   * the reactive autoscaler follows the load between its bounds,
//     deterministically in virtual time (serial == host-parallel), and
//     its control-loop state survives a snapshot v4 round trip with
//     v1-v3 images still restorable.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/snapshot.h"
#include "engine/admission.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

class Agent : public cloud::SimAgent {};

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 8;
  config.entities_per_document = 6;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

const char* kQuery = "//painting[/name~'Lion', //painter/name/last:val]";

// ---------------------------------------------------------------------------
// Layer 1: the fluid limiter's read-only backlog probe and the organic
// throttle contract of the store built on it.

TEST(OverloadTest, RateLimiterBacklogProbeIsReadOnly) {
  cloud::RateLimiter limiter(100);  // 10'000 us per unit
  EXPECT_EQ(limiter.BacklogAt(0), 0);

  // Two units committed at t=0 finish at t=20'000.
  EXPECT_EQ(limiter.Acquire(0, 2), 20'000);
  EXPECT_EQ(limiter.BacklogAt(0), 20'000);
  EXPECT_EQ(limiter.BacklogAt(5'000), 15'000);
  EXPECT_EQ(limiter.BacklogAt(20'000), 0);
  // Probing consumes nothing: ask again, same answer.
  EXPECT_EQ(limiter.BacklogAt(5'000), 15'000);

  // An idle gap drains the backlog entirely.
  EXPECT_EQ(limiter.BacklogAt(60'000), 0);
  EXPECT_EQ(limiter.Acquire(60'000, 1), 70'000);

  // Re-provisioning rescales the *remaining* work: 1 unit of backlog at
  // 100 u/s becomes half the wait at 200 u/s.
  limiter.SetRate(200, 65'000);
  EXPECT_DOUBLE_EQ(limiter.units_per_second(), 200);
  EXPECT_EQ(limiter.BacklogAt(65'000), 2'500);
}

TEST(OverloadTest, OrganicThrottleCarriesRetryAfterHint) {
  cloud::CloudConfig config;
  config.dynamodb.read_units_per_second = 1;  // 8 KB item = 2 s service
  config.dynamodb.max_backlog_micros = cloud::kMicrosPerSecond;
  cloud::CloudEnv env(config);
  Agent writer;
  ASSERT_TRUE(env.dynamodb().CreateTable(writer, "t").ok());
  cloud::Item item{"k", "r", {{"v", {std::string(8 * 1024, 'x')}}}};
  ASSERT_TRUE(env.dynamodb().BatchPut(writer, "t", {&item, 1}).ok());

  const cloud::Usage before = env.meter().Snapshot();
  Agent first;
  ASSERT_TRUE(env.dynamodb().BatchGet(first, "t", {"k"}).ok());
  const double units_per_get =
      (env.meter().Snapshot() - before).ddb_read_units;
  ASSERT_GT(units_per_get, 0.0);

  // A second reader at t=0 would queue behind ~2 s of committed work —
  // past the 1 s bound, so the store sheds it with a hint instead.
  Agent second;
  auto throttled = env.dynamodb().BatchGet(second, "t", {"k"});
  ASSERT_TRUE(throttled.status().IsResourceExhausted())
      << throttled.status().ToString();
  EXPECT_TRUE(throttled.status().IsRetriable());
  const int64_t hint = throttled.status().retry_after_micros();
  EXPECT_GT(hint, 0);

  // The hint is exact: a retry arriving hint micros later sits exactly at
  // the admission boundary and is served.
  second.Advance(static_cast<cloud::Micros>(hint));
  EXPECT_TRUE(env.dynamodb().BatchGet(second, "t", {"k"}).ok());

  const cloud::Usage delta = env.meter().Snapshot() - before;
  EXPECT_EQ(delta.throttled_requests, 1u);
  // The rejected request billed its API round trip but consumed no read
  // capacity: only the two served gets moved the capacity meter.
  EXPECT_EQ(delta.ddb_get_requests, 3u);
  EXPECT_DOUBLE_EQ(delta.ddb_read_units, 2 * units_per_get);
}

// Hint-paced retries are work-conserving: a fleet hammering a saturated
// store converges to the provisioned throughput (within 10%) and no
// queue grows without bound — every observed hint stays under the delay
// bound plus one in-flight round per contender.
TEST(OverloadTest, HintPacedRetriesConvergeToProvisionedThroughput) {
  constexpr double kReadUnitsPerSecond = 5;
  constexpr cloud::Micros kBound = 500'000;
  cloud::CloudConfig config;
  config.dynamodb.read_units_per_second = kReadUnitsPerSecond;
  config.dynamodb.max_backlog_micros = kBound;
  cloud::CloudEnv env(config);
  Agent writer;
  ASSERT_TRUE(env.dynamodb().CreateTable(writer, "t").ok());
  cloud::Item item{"k", "r", {{"v", {std::string(8 * 1024, 'x')}}}};
  ASSERT_TRUE(env.dynamodb().BatchPut(writer, "t", {&item, 1}).ok());
  const double units_per_get = 2.0;  // 8 KB / 4 KB read quantum
  const cloud::Micros service_per_get = static_cast<cloud::Micros>(
      units_per_get / kReadUnitsPerSecond * cloud::kMicrosPerSecond);

  const cloud::Usage before = env.meter().Snapshot();
  constexpr int kAgents = 6;
  constexpr int kGetsPerAgent = 30;
  std::array<Agent, kAgents> agents;
  std::array<int, kAgents> done{};
  uint64_t throttles = 0;
  cloud::Micros max_hint = 0;
  // Smallest-clock-first, like the cluster scheduler.
  for (;;) {
    int next = -1;
    for (int i = 0; i < kAgents; ++i) {
      if (done[i] < kGetsPerAgent &&
          (next < 0 || agents[i].now() < agents[next].now())) {
        next = i;
      }
    }
    if (next < 0) break;
    auto got = env.dynamodb().BatchGet(agents[next], "t", {"k"});
    if (got.ok()) {
      ++done[next];
      continue;
    }
    ASSERT_TRUE(got.status().IsResourceExhausted()) << got.status().ToString();
    const int64_t hint = got.status().retry_after_micros();
    ASSERT_GT(hint, 0);
    max_hint = std::max(max_hint, static_cast<cloud::Micros>(hint));
    ++throttles;
    agents[next].Advance(static_cast<cloud::Micros>(hint));
  }
  EXPECT_GT(throttles, 0u);

  cloud::Micros elapsed = 0;
  for (const Agent& agent : agents) elapsed = std::max(elapsed, agent.now());
  const cloud::Usage delta = env.meter().Snapshot() - before;
  const double throughput =
      delta.ddb_read_units /
      (static_cast<double>(elapsed) / cloud::kMicrosPerSecond);
  EXPECT_GE(throughput, 0.9 * kReadUnitsPerSecond);
  EXPECT_LE(throughput, 1.05 * kReadUnitsPerSecond);
  // Bounded queues: no hint ever exceeded the delay bound plus one
  // in-flight get per contender (the work that can commit between a
  // probe and the paced retry it schedules).
  EXPECT_LE(max_hint, kBound + kAgents * service_per_get);
}

// ---------------------------------------------------------------------------
// Layer 1 at the warehouse: the knee is organic.  A fault-free deployment
// whose store enforces a delay bound throttles under load, the retry
// stack absorbs it, and the answers stay bit-identical to the unbounded
// deployment's.

struct OverloadFingerprint {
  QueryRunReport report;
  std::vector<std::vector<std::vector<std::string>>> rows;  // per outcome
  cloud::Usage usage;
};

OverloadFingerprint RunKnee(cloud::Micros backlog_bound, int repeats,
                            const AdmissionConfig& admission =
                                AdmissionConfig(),
                            int host_threads = 1) {
  cloud::CloudConfig cloud_config;
  cloud_config.dynamodb.read_units_per_second = 5;
  cloud_config.dynamodb.max_backlog_micros = backlog_bound;
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  config.num_instances = 2;
  config.host_threads = host_threads;
  config.admission = admission;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  EXPECT_TRUE(warehouse.RunIndexers().ok());
  std::vector<std::string> workload;
  for (int i = 0; i < repeats; ++i) workload.push_back(kQuery);
  OverloadFingerprint out;
  auto report = warehouse.ExecuteQueries(workload);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    out.report = report.value();
    for (const auto& outcome : out.report.outcomes) {
      out.rows.push_back(outcome.result.rows);
    }
  }
  out.usage = env->meter().usage();
  return out;
}

TEST(OverloadTest, OrganicThrottleAtTheKneeWithoutFaultPlan) {
  const OverloadFingerprint unbounded = RunKnee(/*backlog_bound=*/0, 8);
  const OverloadFingerprint bounded = RunKnee(/*backlog_bound=*/100'000, 8);

  // The knee fired organically: no FaultPlan, yet throttles and retries.
  EXPECT_EQ(bounded.usage.faulted_requests, 0u);
  EXPECT_GT(bounded.usage.throttled_requests, 0u);
  EXPECT_GT(bounded.usage.retried_requests, 0u);
  EXPECT_EQ(unbounded.usage.throttled_requests, 0u);

  // Nothing was shed (no admission control) and every answer matches the
  // unbounded deployment bit for bit.
  EXPECT_EQ(bounded.report.shed_queries, 0u);
  EXPECT_EQ(bounded.usage.shed_queries, 0u);
  ASSERT_EQ(bounded.rows.size(), unbounded.rows.size());
  EXPECT_EQ(bounded.rows, unbounded.rows);
  ASSERT_FALSE(bounded.rows.empty());
  ASSERT_FALSE(bounded.rows[0].empty());
  EXPECT_EQ(bounded.rows[0][0][0], "Delacroix");
}

// ---------------------------------------------------------------------------
// Layer 2: admission control.

TEST(OverloadTest, AdmissionDisabledIsInert) {
  cloud::CloudEnv env;
  AdmissionController controller(AdmissionConfig(), &env.meter());
  EXPECT_FALSE(controller.enabled());
  Agent agent;
  const AdmissionDecision decision = controller.Admit(agent, "t", 1);
  EXPECT_TRUE(decision.admitted);
  EXPECT_EQ(decision.waited, 0);
  EXPECT_EQ(agent.now(), 0);
  EXPECT_EQ(env.meter().usage().shed_queries, 0u);
}

TEST(OverloadTest, TokenBucketDefersToTheRefillInstant) {
  cloud::CloudEnv env;
  AdmissionConfig config;
  config.enabled = true;
  config.global_rate = 1;  // 1 query/s
  config.global_burst = 1;
  config.deadline_micros = 5 * cloud::kMicrosPerSecond;
  AdmissionController controller(config, &env.meter());

  Agent first;
  const AdmissionDecision a = controller.Admit(first, "", 1);
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(first.now(), 0);

  // The burst token is gone; the next query waits exactly one refill.
  Agent second;
  const AdmissionDecision b = controller.Admit(second, "", 2);
  EXPECT_TRUE(b.admitted);
  EXPECT_EQ(second.now(), cloud::kMicrosPerSecond);
  EXPECT_EQ(b.waited, cloud::kMicrosPerSecond);
}

TEST(OverloadTest, DeadlineBudgetShedsWithTypedOverload) {
  cloud::CloudEnv env;
  AdmissionConfig config;
  config.enabled = true;
  config.global_rate = 0.001;  // next token ~1000 s away
  config.global_burst = 1;
  config.deadline_micros = 0;  // pure load shedding
  AdmissionController controller(config, &env.meter());

  Agent first;
  EXPECT_TRUE(controller.Admit(first, "", 1).admitted);
  Agent second;
  const AdmissionDecision shed = controller.Admit(second, "", 2);
  EXPECT_FALSE(shed.admitted);
  EXPECT_TRUE(shed.status.IsOverloaded());
  EXPECT_FALSE(shed.status.IsRetriable());
  EXPECT_EQ(second.now(), 0);  // shedding is instant, no deferral
  EXPECT_EQ(env.meter().usage().shed_queries, 1u);
}

TEST(OverloadTest, AimdLimiterGrowsAdditivelyShrinksMultiplicatively) {
  cloud::CloudEnv env;
  AdmissionConfig config;
  config.enabled = true;
  config.initial_concurrency = 3;
  config.min_concurrency = 1;
  config.max_concurrency = 4;
  config.decrease_factor = 0.5;
  AdmissionController controller(config, &env.meter());
  EXPECT_EQ(controller.concurrency_limit(), 3);

  controller.OnCompleted(0, 100, /*saw_throttle=*/false);
  EXPECT_EQ(controller.concurrency_limit(), 4);
  controller.OnCompleted(100, 200, /*saw_throttle=*/false);
  EXPECT_EQ(controller.concurrency_limit(), 4);  // clamped at max
  controller.OnCompleted(200, 300, /*saw_throttle=*/true);
  EXPECT_EQ(controller.concurrency_limit(), 2);
  controller.OnCompleted(300, 400, /*saw_throttle=*/true);
  EXPECT_EQ(controller.concurrency_limit(), 1);
  controller.OnCompleted(400, 500, /*saw_throttle=*/true);
  EXPECT_EQ(controller.concurrency_limit(), 1);  // clamped at min

  // The in-flight table is interval overlap, pruned lazily.
  controller.OnCompleted(1'000, 2'000, /*saw_throttle=*/false);
  EXPECT_EQ(controller.InFlightAt(1'500), 1);
  EXPECT_EQ(controller.InFlightAt(2'000), 0);
}

TEST(OverloadTest, ConcurrencyGateWaitsForTheEarliestCompletion) {
  cloud::CloudEnv env;
  AdmissionConfig config;
  config.enabled = true;
  config.initial_concurrency = 1;
  config.max_concurrency = 1;  // hold the limit at one
  config.deadline_micros = 2 * cloud::kMicrosPerSecond;
  AdmissionController controller(config, &env.meter());

  Agent first;
  EXPECT_TRUE(controller.Admit(first, "", 1).admitted);
  controller.OnCompleted(0, 600'000, /*saw_throttle=*/false);

  // The slot frees when the recorded interval ends; the next query is
  // deferred exactly there.
  Agent second;
  const AdmissionDecision deferred = controller.Admit(second, "", 2);
  EXPECT_TRUE(deferred.admitted);
  EXPECT_EQ(second.now(), 600'000);
  EXPECT_EQ(deferred.waited, 600'000);
}

TEST(OverloadTest, IndexerBackpressureNeedsDepthAndFreshThrottles) {
  cloud::CloudEnv env;
  AdmissionConfig config;
  config.enabled = true;
  config.backpressure_queue_depth = 4;
  config.backpressure_pause = 250'000;
  AdmissionController controller(config, &env.meter());

  // Depth without fresh throttles is healthy queueing: no pause.
  EXPECT_EQ(controller.IndexerBackoff(0, /*queue_depth=*/10,
                                      /*throttled_total=*/0),
            0);
  // Fresh throttles plus depth: pace the fleet.
  EXPECT_EQ(controller.IndexerBackoff(0, 10, 2), 250'000);
  // Same throttle total again: the signal is no longer fresh.
  EXPECT_EQ(controller.IndexerBackoff(250'000, 10, 2), 0);
  // Fresh throttles but a shallow queue: the store is shedding, the
  // pipeline is not the problem.
  EXPECT_EQ(controller.IndexerBackoff(500'000, 2, 5), 0);
}

// A hot tenant exhausts its own bucket and is shed; the cold tenant's
// queries keep being admitted — fairness comes from per-tenant buckets,
// not from luck of arrival order.
TEST(OverloadTest, PerTenantBucketsShedTheHotTenantOnly) {
  cloud::CloudConfig cloud_config;
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  config.num_instances = 2;
  config.admission.enabled = true;
  config.admission.per_tenant_rate = 0.001;  // no meaningful refill
  config.admission.per_tenant_burst = 2;
  config.admission.deadline_micros = 0;  // shed, never queue
  Warehouse warehouse(env.get(), config);
  ASSERT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(warehouse.RunIndexers().ok());

  std::vector<TenantQuery> workload;
  for (int i = 0; i < 12; ++i) workload.push_back({"hot", kQuery});
  workload.insert(workload.begin() + 3, {"cold", kQuery});
  workload.push_back({"cold", kQuery});

  auto report = warehouse.ExecuteQueries(workload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  uint64_t hot_admitted = 0, hot_shed = 0, cold_admitted = 0, cold_shed = 0;
  for (const auto& outcome : report.value().outcomes) {
    ASSERT_TRUE(outcome.tenant == "hot" || outcome.tenant == "cold");
    uint64_t& counter = outcome.tenant == "hot"
                            ? (outcome.shed ? hot_shed : hot_admitted)
                            : (outcome.shed ? cold_shed : cold_admitted);
    ++counter;
    if (outcome.shed) {
      EXPECT_TRUE(outcome.result.rows.empty());
      EXPECT_EQ(outcome.docs_fetched, 0u);
    } else {
      EXPECT_FALSE(outcome.result.rows.empty());
    }
  }
  // Each tenant got exactly its burst; only the hot tenant overflowed.
  EXPECT_EQ(hot_admitted, 2u);
  EXPECT_EQ(hot_shed, 10u);
  EXPECT_EQ(cold_admitted, 2u);
  EXPECT_EQ(cold_shed, 0u);
  EXPECT_EQ(report.value().shed_queries, 10u);
  EXPECT_EQ(env->meter().usage().shed_queries, 10u);
}

// Shed queries bill nothing: the run that sheds nine of ten queries
// consumes exactly the index-store and file-store work of the run that
// only ever saw the admitted one, the breaker never short-circuits, and
// the admitted query's outcome is bit-identical.
TEST(OverloadTest, ShedQueriesBillNoLoserWork) {
  auto build = [](const AdmissionConfig& admission) {
    cloud::CloudConfig cloud_config;
    auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
    WarehouseConfig config;
    config.strategy = StrategyKind::kLUP;
    config.num_instances = 1;  // FIFO: the first query is the admitted one
    config.admission = admission;
    auto warehouse = std::make_unique<Warehouse>(env.get(), config);
    EXPECT_TRUE(warehouse->Setup().ok());
    for (const auto& doc : Corpus()) {
      EXPECT_TRUE(warehouse->SubmitDocument(doc.uri, doc.text).ok());
    }
    EXPECT_TRUE(warehouse->RunIndexers().ok());
    return std::make_pair(std::move(env), std::move(warehouse));
  };

  // Baseline: no admission, exactly the one query that will be admitted.
  auto [base_env, base_wh] = build(AdmissionConfig());
  const cloud::Usage base_before = base_env->meter().Snapshot();
  auto base_report = base_wh->ExecuteQueries(std::vector<std::string>{kQuery});
  ASSERT_TRUE(base_report.ok());
  const cloud::Usage base_delta = base_env->meter().Snapshot() - base_before;

  // Overloaded: ten queries, a global burst of one, shed-don't-queue.
  AdmissionConfig admission;
  admission.enabled = true;
  admission.global_rate = 0.001;
  admission.global_burst = 1;
  admission.deadline_micros = 0;
  auto [shed_env, shed_wh] = build(admission);
  const cloud::Usage shed_before = shed_env->meter().Snapshot();
  auto shed_report = shed_wh->ExecuteQueries(
      std::vector<std::string>(10, std::string(kQuery)));
  ASSERT_TRUE(shed_report.ok());
  const cloud::Usage shed_delta = shed_env->meter().Snapshot() - shed_before;

  ASSERT_EQ(shed_report.value().outcomes.size(), 10u);
  EXPECT_EQ(shed_report.value().shed_queries, 9u);
  EXPECT_EQ(shed_delta.shed_queries, 9u);
  const QueryOutcome& admitted = shed_report.value().outcomes[0];
  const QueryOutcome& baseline = base_report.value().outcomes[0];
  EXPECT_FALSE(admitted.shed);
  for (size_t i = 1; i < shed_report.value().outcomes.size(); ++i) {
    EXPECT_TRUE(shed_report.value().outcomes[i].shed);
  }

  // The admitted query is unperturbed: same rows, same work, same split.
  EXPECT_EQ(admitted.result.rows, baseline.result.rows);
  EXPECT_EQ(admitted.docs_fetched, baseline.docs_fetched);
  EXPECT_EQ(admitted.timings.total, baseline.timings.total);

  // Loser work was never billed: the shed run did exactly the admitted
  // query's index reads, document fetches and egress — and the breaker
  // stack was never involved.
  EXPECT_EQ(shed_delta.ddb_get_requests, base_delta.ddb_get_requests);
  EXPECT_DOUBLE_EQ(shed_delta.ddb_read_units, base_delta.ddb_read_units);
  EXPECT_EQ(shed_delta.s3_get_requests, base_delta.s3_get_requests);
  EXPECT_EQ(shed_delta.egress_bytes, base_delta.egress_bytes);
  EXPECT_EQ(shed_delta.breaker_short_circuits, 0u);
  EXPECT_EQ(shed_delta.degraded_queries, 0u);
}

// The AIMD limiter reacts to organic throttles end to end: an admitted
// workload over a bounded store completes with the limit pulled inside
// its configured band, and the answers still match.
TEST(OverloadTest, AimdConvergesUnderOrganicThrottling) {
  AdmissionConfig admission;
  admission.enabled = true;
  admission.initial_concurrency = 8;
  admission.min_concurrency = 1;
  admission.max_concurrency = 8;
  admission.deadline_micros = 30 * cloud::kMicrosPerSecond;
  const OverloadFingerprint run = RunKnee(/*backlog_bound=*/100'000, 8,
                                          admission);
  EXPECT_GT(run.usage.throttled_requests, 0u);
  EXPECT_EQ(run.usage.faulted_requests, 0u);
  EXPECT_EQ(run.report.shed_queries, 0u);  // deferred, never dropped
  ASSERT_EQ(run.rows.size(), 8u);
  const OverloadFingerprint clean = RunKnee(/*backlog_bound=*/0, 8);
  EXPECT_EQ(run.rows, clean.rows);
}

// ---------------------------------------------------------------------------
// Layer 3: the reactive autoscaler.

cloud::CloudConfig AutoscaledConfig() {
  cloud::CloudConfig config;
  config.dynamodb.read_units_per_second = 5;
  config.dynamodb.max_backlog_micros = 100'000;
  config.autoscale.enabled = true;
  config.autoscale.min_read_units = 5;
  config.autoscale.max_read_units = 250;
  config.autoscale.min_write_units = 100;
  config.autoscale.max_write_units = 400;
  config.autoscale.evaluation_interval = cloud::kMicrosPerSecond;
  config.autoscale.scale_up_cooldown = cloud::kMicrosPerSecond;
  config.autoscale.scale_down_cooldown = 20 * cloud::kMicrosPerSecond;
  return config;
}

struct AutoscaleFingerprint {
  std::vector<std::vector<std::vector<std::string>>> rows;
  cloud::Usage usage;
  cloud::AutoscalerState state;
  cloud::Micros makespan = 0;
  double dollars = 0;
};

AutoscaleFingerprint RunAutoscaled(int host_threads) {
  auto env = std::make_unique<cloud::CloudEnv>(AutoscaledConfig());
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  config.num_instances = 2;
  config.host_threads = host_threads;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  EXPECT_TRUE(warehouse.RunIndexers().ok());
  std::vector<std::string> workload(16, std::string(kQuery));
  AutoscaleFingerprint out;
  auto report = warehouse.ExecuteQueries(workload);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    out.makespan = report.value().makespan;
    for (const auto& outcome : report.value().outcomes) {
      out.rows.push_back(outcome.result.rows);
    }
  }
  env->autoscaler().FinishBilling(warehouse.front_end().now());
  out.usage = env->meter().usage();
  out.state = env->autoscaler().state();
  out.dollars = env->meter().ComputeBill().total();
  return out;
}

TEST(OverloadTest, AutoscalerFollowsTheLoadDeterministically) {
  const AutoscaleFingerprint serial = RunAutoscaled(/*host_threads=*/1);

  // The controller reacted: scale events fired and read capacity moved
  // off the floor while the overload was in flight.
  EXPECT_GT(serial.usage.scale_events, 0u);
  EXPECT_GT(serial.usage.throttled_requests, 0u);
  EXPECT_GT(serial.state.read_units, 5.0);
  EXPECT_GT(serial.usage.ddb_read_capacity_hours, 0.0);
  EXPECT_GT(serial.usage.ddb_write_capacity_hours, 0.0);

  // The capacity trajectory is a pure function of virtual time: the
  // host-parallel run is bit-identical, dollars included.
  const AutoscaleFingerprint parallel = RunAutoscaled(/*host_threads=*/8);
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_EQ(serial.makespan, parallel.makespan);
  EXPECT_EQ(serial.usage.scale_events, parallel.usage.scale_events);
  EXPECT_EQ(serial.usage.throttled_requests,
            parallel.usage.throttled_requests);
  EXPECT_DOUBLE_EQ(serial.state.write_units, parallel.state.write_units);
  EXPECT_DOUBLE_EQ(serial.state.read_units, parallel.state.read_units);
  EXPECT_EQ(serial.state.window_start, parallel.state.window_start);
  EXPECT_EQ(serial.state.last_scale_up, parallel.state.last_scale_up);
  EXPECT_DOUBLE_EQ(serial.dollars, parallel.dollars);
}

// ---------------------------------------------------------------------------
// Snapshot: the control-loop state is durable, and every older image
// still restores (the missing sections simply start fresh).

TEST(OverloadTest, SnapshotRoundTripsAutoscalerState) {
  cloud::CloudConfig config = AutoscaledConfig();
  cloud::CloudEnv env(config);
  Agent writer;
  ASSERT_TRUE(env.dynamodb().CreateTable(writer, "t").ok());
  cloud::Item item{"k", "r", {{"v", {std::string(8 * 1024, 'x')}}}};
  ASSERT_TRUE(env.dynamodb().BatchPut(writer, "t", {&item, 1}).ok());
  // Hammer the store long enough for the control loop to scale.
  std::array<Agent, 4> agents;
  for (int round = 0; round < 40; ++round) {
    for (Agent& agent : agents) {
      auto got = env.dynamodb().BatchGet(agent, "t", {"k"});
      if (!got.ok()) {
        ASSERT_TRUE(got.status().IsResourceExhausted());
        agent.Advance(
            static_cast<cloud::Micros>(got.status().retry_after_micros()));
      }
    }
  }
  ASSERT_GT(env.meter().usage().scale_events, 0u);
  const cloud::AutoscalerState& state = env.autoscaler().state();
  EXPECT_EQ(state.started, 1u);

  const std::string snapshot = SerializeSnapshot(env);
  ASSERT_GE(snapshot.size(), 8u);
  EXPECT_EQ(snapshot.substr(0, 8), "WDXSNAP5");

  cloud::CloudEnv restored(config);
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  const cloud::AutoscalerState& back = restored.autoscaler().state();
  EXPECT_DOUBLE_EQ(back.write_units, state.write_units);
  EXPECT_DOUBLE_EQ(back.read_units, state.read_units);
  EXPECT_EQ(back.window_start, state.window_start);
  EXPECT_EQ(back.last_scale_up, state.last_scale_up);
  EXPECT_EQ(back.last_scale_down, state.last_scale_down);
  EXPECT_DOUBLE_EQ(back.window_write_units, state.window_write_units);
  EXPECT_DOUBLE_EQ(back.window_read_units, state.window_read_units);
  EXPECT_EQ(back.window_write_throttles, state.window_write_throttles);
  EXPECT_EQ(back.window_read_throttles, state.window_read_throttles);
  EXPECT_EQ(back.started, state.started);
  // Restore re-applied the scaled capacity to the store's limiters.
  EXPECT_DOUBLE_EQ(restored.dynamodb().read_units_per_second(),
                   state.read_units);
  // And the round trip is bytewise stable.
  EXPECT_EQ(SerializeSnapshot(restored), snapshot);
}

// The test keeps its historical name; older versions are now rejected
// (see SnapshotTest), so what remains is the minimal WDXSNAP5 image.
TEST(OverloadTest, LegacySnapshotVersionsStillRestore) {
  // A fresh environment serializes to the minimal v5 image: magic, the
  // twenty zero bytes of the store, chaos, maintenance and autoscaler
  // sections, then the default deployment section.
  cloud::CloudEnv fresh;
  std::string expected = std::string("WDXSNAP5") + std::string(20, '\0');
  expected += '\0';            // capacity: provisioned
  expected += '\x01';          // 1 shard
  expected += '\0';            // 0 replicas
  expected += "\xa0\xc2\x1e";  // 500 ms replication lag, varint-coded
  // No watermarks + 7 zeroed on-demand fields.
  expected += std::string(8, '\0');
  EXPECT_EQ(SerializeSnapshot(fresh), expected);

  cloud::CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(expected, &restored).ok());
  EXPECT_TRUE(restored.dynamodb().Empty());
  // The autoscaler section was all zeros: the control loop starts fresh.
  EXPECT_EQ(restored.autoscaler().state().started, 0u);
  // Trailing garbage is rejected.
  cloud::CloudEnv reject;
  EXPECT_TRUE(RestoreSnapshot(expected + "x", &reject).IsCorruption());
}

}  // namespace
}  // namespace webdex::engine
