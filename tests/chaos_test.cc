// Chaos-equivalence contract of the deterministic fault-injection layer
// (docs/FAULTS.md): under a seeded FaultPlan — transient S3/DynamoDB/SQS
// errors, unprocessed-item suffixes, duplicate and delayed deliveries,
// and plan-driven crashes — every indexing strategy must converge to the
// byte-identical index tables and query answers of a fault-free run,
// while costing at least as many simulated dollars and at least as much
// virtual makespan.  The fault schedule itself must be a pure function of
// the seeds: serial (host_threads == 1) and host-parallel (8) chaos runs
// are bit-identical.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "scenario.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

Scenario Chaos(StrategyKind strategy, const cloud::FaultPlan& plan,
               IndexBackend backend = IndexBackend::kDynamoDb) {
  Scenario scenario;
  scenario.cloud.faults = plan;
  scenario.warehouse.strategy = strategy;
  scenario.warehouse.backend = backend;
  scenario.warehouse.num_instances = 2;
  scenario.warehouse.host_threads = 1;
  scenario.documents = PaintingsAndXmark(8, 6);
  scenario.queries = {kPaintingQuery};
  return scenario;
}

/// (strategy, index backend): chaos equivalence must hold on the legacy
/// SimpleDB deployment exactly as on DynamoDB.
class ChaosTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, IndexBackend>> {
 protected:
  StrategyKind strategy() const { return std::get<0>(GetParam()); }
  IndexBackend backend() const { return std::get<1>(GetParam()); }
};

// The headline equivalence: a faulted run ends in the same index and
// answers the query identically, never cheaper or faster than fault-free.
TEST_P(ChaosTest, FaultedRunConvergesToFaultFreeState) {
  const Outcome clean =
      RunScenario(Chaos(strategy(), cloud::FaultPlan(), backend()));
  const Outcome faulted =
      RunScenario(Chaos(strategy(), ChaosPlan(), backend()));
  // The plan actually bit: faults fired and retries happened.
  EXPECT_GT(faulted.usage.faulted_requests, 0u);
  EXPECT_GT(faulted.usage.retried_requests, 0u);
  // State converged bit-identically...
  ExpectSameState(clean, faulted);
  ASSERT_FALSE(faulted.rows[0].empty());
  EXPECT_EQ(faulted.rows[0][0][0], "Delacroix");
  // ...and recovery was paid for, never profited from.
  EXPECT_GE(faulted.bill, clean.bill);
  EXPECT_GE(faulted.report.makespan, clean.report.makespan);
  // No task was dropped: the poison counter stays at zero under a plan
  // of transient-only faults.
  EXPECT_EQ(faulted.report.dead_lettered, 0u);
  EXPECT_EQ(faulted.usage.dead_lettered, 0u);
}

// The fault schedule is a pure function of the seeds, not of host-thread
// interleaving: chaos runs are bit-identical serial vs. host-parallel.
TEST_P(ChaosTest, SerialAndParallelChaosRunsAreBitIdentical) {
  ExpectSerialEqualsParallel(Chaos(strategy(), ChaosPlan(), backend()));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndBackends, ChaosTest,
    ::testing::Combine(
        ::testing::ValuesIn(index::AllStrategyKinds()),
        ::testing::Values(IndexBackend::kDynamoDb, IndexBackend::kSimpleDb)),
    [](const ::testing::TestParamInfo<std::tuple<StrategyKind, IndexBackend>>&
           info) {
      return std::string(index::StrategyKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == IndexBackend::kSimpleDb
                  ? "_SimpleDb"
                  : "_DynamoDb");
    });

// The default (empty) plan is the identity: no counter moves, so every
// pre-chaos report and bill is reproduced bit-identically.
TEST(ChaosTest, EmptyPlanInjectsNothing) {
  const Scenario scenario = Chaos(StrategyKind::kLUP, cloud::FaultPlan());
  const Outcome clean = RunScenario(scenario);
  EXPECT_EQ(clean.usage.faulted_requests, 0u);
  EXPECT_EQ(clean.usage.retried_requests, 0u);
  EXPECT_EQ(clean.usage.sqs_redeliveries, 0u);
  EXPECT_EQ(clean.usage.dead_lettered, 0u);
  EXPECT_EQ(clean.report.redeliveries, 0u);
  EXPECT_EQ(clean.report.dead_lettered, 0u);
  EXPECT_EQ(clean.report.documents, scenario.documents.size());
}

// Two different plan seeds produce two different fault schedules against
// the same cloud seed (the knob tests ask for).
TEST(ChaosTest, PlanSeedSelectsTheSchedule) {
  cloud::FaultPlan a = ChaosPlan();
  cloud::FaultPlan b = ChaosPlan();
  b.seed = 8;
  const Outcome run_a = RunScenario(Chaos(StrategyKind::kLU, a));
  const Outcome run_b = RunScenario(Chaos(StrategyKind::kLU, b));
  // Same converged state...
  ExpectSameState(run_a, run_b);
  // ...via different histories.
  EXPECT_NE(run_a.usage.faulted_requests, run_b.usage.faulted_requests);
}

// Satellite: a crash *between* two DynamoDB BatchPut pages leaves a
// half-written index; the redelivered task re-puts the same (hash, range)
// keys, so the table contents converge to the crash-free run's.
TEST(ChaosTest, MidBatchPutCrashConvergesOnRedelivery) {
  int crashes_remaining = 2;
  int boundaries_seen = 0;
  // No service faults: crashes only.
  Scenario scenario = Chaos(StrategyKind::k2LUPI, cloud::FaultPlan());
  scenario.queries.clear();
  const Outcome clean = RunScenario(scenario);
  scenario.warehouse.crash_plan = [&](cloud::CrashPoint point, int,
                                      const std::string&) {
    if (point != cloud::CrashPoint::kBetweenBatchPutPages) return false;
    ++boundaries_seen;
    if (crashes_remaining > 0) {
      --crashes_remaining;
      return true;
    }
    return false;
  };
  const Outcome crashed = RunScenario(scenario);
  // The corpus actually produces multi-page uploads and both crashes
  // fired mid-upload.
  EXPECT_GT(boundaries_seen, 0);
  EXPECT_EQ(crashes_remaining, 0);
  // The two lost tasks were redelivered and the index converged.
  EXPECT_GE(crashed.report.redeliveries, 2u);
  EXPECT_EQ(clean.dump, crashed.dump);
  EXPECT_EQ(clean.report.documents, crashed.report.documents);
}

}  // namespace
}  // namespace webdex::engine
