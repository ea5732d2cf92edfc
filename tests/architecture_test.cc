// Architecture-equivalence contract of the pluggable deployment layer
// (docs/ARCHITECTURES.md): every deployment shape — provisioned or
// on-demand capacity, 1..N shards per logical table, 0..R read replicas —
// must produce the byte-identical logical index dump and query rows of
// the paper's default single-table deployment.  Only Usage, latency and
// dollars may differ.  The contract must survive chaos (a faulted
// sharded+replicated run converges to its own fault-free state), host
// parallelism, and a snapshot v5 crash/restore cycle.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "cloud/deployment.h"
#include "cloud/retrying_kv_store.h"
#include "cloud/sharded_kv_store.h"
#include "cloud/snapshot.h"
#include "common/strings.h"
#include "scenario.h"

namespace webdex::engine {
namespace {

using cloud::ArchitectureSpec;
using cloud::CapacityMode;
using index::StrategyKind;

class Agent : public cloud::SimAgent {};

ArchitectureSpec Arch(CapacityMode capacity, int shards, int replicas) {
  ArchitectureSpec arch;
  arch.capacity = capacity;
  arch.shards = shards;
  arch.replicas = replicas;
  return arch;
}

/// Upserts two documents, deletes one, commits them, then scrubs,
/// fully compacts and scrubs again — through whatever store stack the
/// architecture built.  Both scrubs must audit clean.
void MaintainMutatedCorpus(Warehouse& warehouse) {
  // Only XMark documents change, so the painting query keeps its rows.
  const std::vector<xmark::GeneratedDocument> corpus =
      PaintingsAndXmark(6, 5);
  const size_t n = corpus.size();
  EXPECT_TRUE(
      warehouse.UpsertDocument(corpus[n - 1].uri, corpus[n - 2].text).ok());
  EXPECT_TRUE(
      warehouse.UpsertDocument(corpus[n - 3].uri, corpus[n - 4].text).ok());
  EXPECT_TRUE(warehouse.DeleteDocument(corpus[n - 5].uri).ok());
  auto rerun = warehouse.RunIndexers();
  EXPECT_TRUE(rerun.ok()) << rerun.status().ToString();
  const auto expect_clean = [&warehouse](const char* when) {
    auto audit = warehouse.Scrub(/*repair=*/false);
    ASSERT_TRUE(audit.ok()) << when << ": " << audit.status().ToString();
    EXPECT_TRUE(audit.value().Clean()) << when << ": "
                                       << audit.value().ToString();
  };
  expect_clean("before compaction");
  auto compacted = warehouse.Compact(/*full=*/true);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.value().canonicalized_uris.size(), 2u);
  EXPECT_EQ(compacted.value().collected_uris.size(), 1u);
  expect_clean("after compaction");
}

/// LUP on `arch` answering the painting query; with `maintenance`, the
/// corpus is mutated and maintained (MaintainMutatedCorpus) before the
/// state is captured.  Every run checks that each decorator of the
/// stack passes the backend's capabilities up.
Scenario Layout(const ArchitectureSpec& arch,
                IndexBackend backend = IndexBackend::kDynamoDb,
                bool maintenance = false) {
  Scenario scenario;
  scenario.cloud.arch = arch;
  scenario.warehouse.strategy = StrategyKind::kLUP;
  scenario.warehouse.backend = backend;
  scenario.warehouse.num_instances = 2;
  scenario.warehouse.host_threads = 1;
  scenario.documents = PaintingsAndXmark(6, 5);
  scenario.queries = {kPaintingQuery};
  scenario.after_index = [maintenance](Outcome& run) {
    cloud::CloudEnv& env = run.env();
    const cloud::KvStore& backend =
        run.warehouse().config().backend == IndexBackend::kSimpleDb
            ? static_cast<const cloud::KvStore&>(env.simpledb())
            : env.dynamodb();
    const std::string name = env.deployment().spec().Name();
    EXPECT_EQ(run.warehouse().index_store().Limits(), backend.Limits())
        << name;
    EXPECT_STREQ(run.warehouse().index_store().Name(), backend.Name())
        << name;
    if (maintenance) MaintainMutatedCorpus(run.warehouse());
  };
  return scenario;
}

// ---------------------------------------------------------------------------
// Deployment routing primitives.

TEST(DeploymentTest, DefaultSpecKeepsPhysicalNamesIdentical) {
  cloud::Deployment deployment((ArchitectureSpec()));
  EXPECT_FALSE(deployment.sharded());
  EXPECT_FALSE(deployment.replicated());
  EXPECT_EQ(deployment.PhysicalName("idx-lup", 0), "idx-lup");
  EXPECT_EQ(deployment.ShardFor("any-key"), 0);
  EXPECT_EQ(deployment.PhysicalTables("idx-lup"),
            std::vector<std::string>{"idx-lup"});
  EXPECT_TRUE(deployment.spec().IsDefault());
  EXPECT_EQ(deployment.spec().Name(), "prov-s1-r0");
}

TEST(DeploymentTest, ShardNamingRoundTrips) {
  cloud::Deployment deployment(Arch(CapacityMode::kProvisioned, 4, 2));
  EXPECT_EQ(deployment.spec().Name(), "prov-s4-r2");
  for (int shard = 0; shard < 4; ++shard) {
    const std::string physical = deployment.PhysicalName("idx-lup", shard);
    EXPECT_EQ(deployment.LogicalName(physical), "idx-lup") << physical;
  }
  EXPECT_EQ(deployment.PhysicalName("idx-lup", 0), "idx-lup.s0");
  // A name that merely looks suffixed folds only when the shard index is
  // in range for this deployment.
  EXPECT_EQ(deployment.LogicalName("idx-lup.s9"), "idx-lup.s9");
  // Routing is deterministic and covers every shard on a modest key set.
  std::vector<bool> hit(4, false);
  for (int i = 0; i < 64; ++i) {
    const int shard = deployment.ShardFor(StrFormat("key-%d", i));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, deployment.ShardFor(StrFormat("key-%d", i)));
    hit[static_cast<size_t>(shard)] = true;
  }
  for (int shard = 0; shard < 4; ++shard) EXPECT_TRUE(hit[shard]);
}

TEST(DeploymentTest, SpecValidationBounds) {
  EXPECT_TRUE(ArchitectureSpec().Validate().ok());
  EXPECT_TRUE(Arch(CapacityMode::kOnDemand, 64, 8).Validate().ok());
  EXPECT_FALSE(Arch(CapacityMode::kProvisioned, 0, 0).Validate().ok());
  EXPECT_FALSE(Arch(CapacityMode::kProvisioned, 65, 0).Validate().ok());
  EXPECT_FALSE(Arch(CapacityMode::kProvisioned, 1, 9).Validate().ok());
  ArchitectureSpec negative_lag;
  negative_lag.replication_lag = -1;
  EXPECT_FALSE(negative_lag.Validate().ok());
}

TEST(DeploymentTest, ReplicaReadableFollowsWatermark) {
  ArchitectureSpec arch = Arch(CapacityMode::kProvisioned, 1, 2);
  arch.replication_lag = 1000;
  cloud::Deployment deployment(arch);
  // Never-written tables are trivially caught up.
  EXPECT_TRUE(deployment.ReplicaReadable("idx-lup", 0));
  deployment.RecordWrite("idx-lup", 5000);
  EXPECT_FALSE(deployment.ReplicaReadable("idx-lup", 5500));
  EXPECT_TRUE(deployment.ReplicaReadable("idx-lup", 6000));
  // Watermarks never move backward.
  deployment.RecordWrite("idx-lup", 4000);
  EXPECT_EQ(deployment.Watermark("idx-lup"), 5000);
  // Replica choice is deterministic and in range.
  const int replica = deployment.ReplicaFor("idx-lup", "k");
  EXPECT_GE(replica, 0);
  EXPECT_LT(replica, 2);
  EXPECT_EQ(replica, deployment.ReplicaFor("idx-lup", "k"));
}

// ---------------------------------------------------------------------------
// The headline equivalence: every architecture ends in the same logical
// index and answers the query identically.

class ArchitectureTest : public ::testing::TestWithParam<IndexBackend> {};

TEST_P(ArchitectureTest, AllArchitecturesConvergeToSameLogicalState) {
  const Outcome baseline = RunScenario(
      Layout(ArchitectureSpec(), GetParam(), /*maintenance=*/true));
  ASSERT_FALSE(baseline.rows[0].empty());
  EXPECT_EQ(baseline.rows[0][0][0], "Delacroix");
  ASSERT_FALSE(baseline.dump.empty());

  const std::vector<ArchitectureSpec> architectures = {
      Arch(CapacityMode::kProvisioned, 4, 0),
      Arch(CapacityMode::kProvisioned, 7, 0),
      Arch(CapacityMode::kProvisioned, 1, 2),
      Arch(CapacityMode::kProvisioned, 4, 2),
      Arch(CapacityMode::kOnDemand, 1, 0),
      Arch(CapacityMode::kOnDemand, 4, 2),
  };
  for (const ArchitectureSpec& arch : architectures) {
    SCOPED_TRACE(arch.Name());
    const Outcome run =
        RunScenario(Layout(arch, GetParam(), /*maintenance=*/true));
    ExpectSameState(baseline, run);
    EXPECT_EQ(run.report.documents, baseline.report.documents);
  }
}

INSTANTIATE_TEST_SUITE_P(BothBackends, ArchitectureTest,
                         ::testing::Values(IndexBackend::kDynamoDb,
                                           IndexBackend::kSimpleDb),
                         [](const ::testing::TestParamInfo<IndexBackend>&
                                info) {
                           return info.param == IndexBackend::kSimpleDb
                                      ? "SimpleDb"
                                      : "DynamoDb";
                         });

// Replicated reads actually fire and are cheaper than primary reads:
// same rows, fewer read dollars than the unreplicated run.
TEST(ArchitectureTest, ReplicaReadsAreBilledAtHalfPrice) {
  // Three query rounds, one after the other.
  const auto rounds = [](const ArchitectureSpec& arch) {
    Outcome run = RunScenario(Layout(arch));
    RunQueries(run, {kPaintingQuery});
    RunQueries(run, {kPaintingQuery});
    return run;
  };
  const Outcome primary = rounds(ArchitectureSpec());
  // Short lag so the post-indexing queries find the replicas caught up;
  // the equivalence suite above covers the default 500 ms lag.
  ArchitectureSpec arch = Arch(CapacityMode::kProvisioned, 1, 2);
  arch.replication_lag = 1000;
  const Outcome replicated = rounds(arch);
  EXPECT_EQ(replicated.rows, primary.rows);
  EXPECT_GT(replicated.usage.replica_reads, 0u);
  EXPECT_EQ(primary.usage.replica_reads, 0u);
  // Same read requests, strictly fewer billed read units.
  EXPECT_EQ(replicated.usage.ddb_get_requests, primary.usage.ddb_get_requests);
  EXPECT_LT(replicated.usage.ddb_read_units, primary.usage.ddb_read_units);
}

// Maintenance writes go through the replicated pool like any other
// write: deleting postings moves the table's replication watermark, so
// a replica read right after a compaction cannot serve the stale rows.
TEST(ArchitectureTest, CompactionAdvancesReplicaWatermark) {
  const Outcome run =
      RunScenario(Layout(Arch(CapacityMode::kProvisioned, 1, 2)));
  Warehouse& warehouse = run.warehouse();
  const std::string victim = warehouse.document_uris().back();
  ASSERT_TRUE(warehouse.DeleteDocument(victim).ok());
  ASSERT_TRUE(warehouse.RunIndexers().ok());

  const cloud::Micros before = run.env().deployment().Watermark("idx-lup");
  auto compacted = warehouse.Compact(/*full=*/true);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  ASSERT_EQ(compacted.value().collected_uris,
            std::vector<std::string>{victim});
  EXPECT_GT(run.env().deployment().Watermark("idx-lup"), before);
}

// On-demand capacity bills to the pay-per-request counters at a premium
// instead of the provisioned ones, and disables the autoscaler.
TEST(ArchitectureTest, OnDemandBillsPerRequest) {
  cloud::CloudConfig config;
  config.arch = Arch(CapacityMode::kOnDemand, 1, 0);
  config.autoscale.enabled = true;  // force-disabled under on-demand
  cloud::CloudEnv env(config);
  EXPECT_FALSE(env.autoscaler().active());

  Agent agent;
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "t").ok());
  cloud::Item item{"k", "r", {{"v", {std::string(2048, 'x')}}}};
  ASSERT_TRUE(env.dynamodb().BatchPut(agent, "t", {&item, 1}).ok());
  ASSERT_TRUE(env.dynamodb().BatchGet(agent, "t", {"k"}).ok());

  const cloud::Usage& usage = env.meter().usage();
  EXPECT_GT(usage.ondemand_requests, 0u);
  EXPECT_GT(usage.ddb_ondemand_write_units, 0.0);
  EXPECT_GT(usage.ddb_ondemand_read_units, 0.0);
  EXPECT_EQ(usage.ddb_write_units, 0.0);
  EXPECT_EQ(usage.ddb_read_units, 0.0);
  // The premium prices the same units above the provisioned rate.
  const cloud::Pricing& pricing = env.meter().pricing();
  EXPECT_GT(pricing.idx_ondemand_put, pricing.idx_put);
  EXPECT_GT(pricing.idx_ondemand_get, pricing.idx_get);
}

// Run reports count index units on either price sheet: an on-demand
// deployment reports the on-demand units it metered, not zero.
TEST(ArchitectureTest, OnDemandReportsIndexUnits) {
  const Outcome run =
      RunScenario(Layout(Arch(CapacityMode::kOnDemand, 1, 0)));
  const double write_units = run.index_usage.ddb_ondemand_write_units;
  ASSERT_GT(write_units, 0.0);
  EXPECT_NEAR(run.report.index_put_units, write_units, 1e-9 * write_units);

  const QueryOutcome& outcome = run.queries.outcomes[0];
  EXPECT_GT(outcome.index_get_units, 0.0);
  EXPECT_DOUBLE_EQ(outcome.index_get_units,
                   run.query_usage.ddb_ondemand_read_units);
}

// The sharded router takes a borrowed sub-span: a batch whose items all
// route to one shard is not fanned out, a mixed batch is.  Either way the
// sharded store holds what one unsharded table would.
TEST(ArchitectureTest, ShardedBatchPutStoresSubSpans) {
  cloud::CloudConfig config;
  config.arch = Arch(CapacityMode::kProvisioned, 4, 0);
  cloud::CloudEnv env(config);
  cloud::ShardedKvStore sharded(&env.dynamodb(), env.deployment(),
                                env.meter(), env.metrics(), env.tracer());
  cloud::CloudEnv reference_env{cloud::CloudConfig()};
  cloud::KvStore& reference = reference_env.dynamodb();
  Agent agent;
  ASSERT_TRUE(sharded.CreateTable(agent, "t").ok());
  ASSERT_TRUE(reference.CreateTable(agent, "t").ok());

  const int shard = env.deployment().ShardFor("k0");
  std::vector<cloud::Item> items;
  std::vector<cloud::Item> elsewhere;
  for (int i = 0; items.size() < 6 || elsewhere.empty(); ++i) {
    const std::string key = StrFormat("k%d", i);
    cloud::Item item{key, StrFormat("r%d", i), {{"d", {"v"}}}};
    (env.deployment().ShardFor(key) == shard ? items : elsewhere)
        .push_back(std::move(item));
  }
  // One shard: a sub-span of the caller's vector.
  const std::span<const cloud::Item> page = std::span(items).subspan(1, 4);
  ASSERT_TRUE(sharded.BatchPut(agent, "t", page).ok());
  ASSERT_TRUE(reference.BatchPut(agent, "t", page).ok());
  EXPECT_EQ(env.dynamodb().ItemCount(env.deployment().PhysicalName("t", shard)),
            4u);
  EXPECT_EQ(env.metrics().CounterValue("shard.fanout.count"), 0u);
  EXPECT_EQ(cloud::FingerprintStore(sharded),
            cloud::FingerprintStore(reference));
  // Two shards: split and fanned out.
  const std::vector<cloud::Item> mixed = {items.front(), elsewhere.front()};
  ASSERT_TRUE(sharded.BatchPut(agent, "t", mixed).ok());
  ASSERT_TRUE(reference.BatchPut(agent, "t", mixed).ok());
  EXPECT_EQ(env.metrics().CounterValue("shard.fanout.count"), 1u);
  EXPECT_EQ(env.metrics().CounterValue("shard.route.count"), 6u);
  EXPECT_EQ(sharded.ItemCount("t"), 6u);
  EXPECT_EQ(cloud::FingerprintStore(sharded),
            cloud::FingerprintStore(reference));
}

// ---------------------------------------------------------------------------
// Chaos and host-parallelism hold per architecture.

cloud::FaultPlan ArchChaosPlan() {
  cloud::FaultPlan plan;
  plan.seed = 11;
  plan.dynamodb.error_probability = 0.05;
  plan.dynamodb.throttle_share = 0.7;
  plan.dynamodb.unprocessed_probability = 0.1;
  plan.s3.error_probability = 0.03;
  plan.s3.throttle_share = 0.3;
  return plan;
}

TEST(ArchitectureTest, FaultedShardedReplicatedRunConverges) {
  Scenario scenario = Layout(Arch(CapacityMode::kProvisioned, 4, 2));
  const Outcome clean = RunScenario(scenario);
  scenario.cloud.faults = ArchChaosPlan();
  const Outcome faulted = RunScenario(scenario);
  EXPECT_GT(faulted.usage.faulted_requests, 0u);
  EXPECT_GT(faulted.usage.retried_requests, 0u);
  ExpectSameState(clean, faulted);
  EXPECT_GE(faulted.bill, clean.bill);
}

TEST(ArchitectureTest, SerialAndParallelShardedRunsAreBitIdentical) {
  Scenario scenario = Layout(Arch(CapacityMode::kProvisioned, 4, 2));
  scenario.cloud.faults = ArchChaosPlan();
  ExpectSerialEqualsParallel(scenario);
}

// ---------------------------------------------------------------------------
// Satellite fix: CreateTable is routed through retry + fault + breaker.

TEST(ArchitectureTest, CreateTableRetriesTransientFaultsAndBillsThem) {
  cloud::CloudConfig config;
  config.faults.dynamodb.error_probability = 0.6;
  config.faults.dynamodb.throttle_share = 1.0;  // retriable throttles
  // Breaker off: at this fault rate it would open and fast-fail the
  // retries; what is under test is the retry + billing path itself.
  config.breaker.enabled = false;
  cloud::CloudEnv env(config);
  common::RetryPolicy policy;
  policy.max_attempts = 12;  // enough headroom to outlast the fault rate
  cloud::RetryingKvStore store(&env.dynamodb(), policy, config.seed,
                               env.meter(), env.breaker(), env.metrics(),
                               env.tracer());
  Agent agent;
  uint64_t faulted = 0;
  // Several independent fault sites: at this rate at least one create is
  // deterministically faulted before succeeding.
  for (const char* table : {"idx-lu", "idx-lup", "idx-lui", "idx-meta"}) {
    ASSERT_TRUE(store.CreateTable(agent, table).ok()) << table;
  }
  faulted = env.meter().usage().faulted_requests;
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(env.meter().usage().retried_requests, 0u);
  // Faulted attempts bill their API round trip; the successful create
  // itself stays free.
  EXPECT_EQ(env.meter().usage().ddb_put_requests, faulted);
  // Backoff sleeps and faulted round trips advanced virtual time.
  EXPECT_GT(agent.now(), 0);
}

TEST(ArchitectureTest, FaultFreeCreateTableIsFreeAndInstant) {
  cloud::CloudEnv env;
  cloud::RetryingKvStore store(&env.dynamodb(), common::RetryPolicy(),
                               env.config().seed, env.meter(), env.breaker(),
                               env.metrics(), env.tracer());
  Agent agent;
  ASSERT_TRUE(store.CreateTable(agent, "t").ok());
  EXPECT_EQ(agent.now(), 0);
  EXPECT_EQ(env.meter().usage().ddb_put_requests, 0u);
  EXPECT_TRUE(store.CreateTable(agent, "t").IsAlreadyExists());
}

// ---------------------------------------------------------------------------
// Snapshot v5: deployment state is durable, restore validates the shape.

TEST(ArchitectureTest, SnapshotV5RoundTripsShardedReplicatedState) {
  Scenario scenario = Layout(Arch(CapacityMode::kProvisioned, 4, 2));
  scenario.warehouse.num_instances = 1;
  Outcome run = RunScenario(scenario);
  ASSERT_FALSE(run.env().deployment().watermarks().empty());
  EXPECT_EQ(SerializeSnapshot(run.env()).substr(0, 8), "WDXSNAP5");

  Restart(run);
  EXPECT_EQ(run.env().deployment().watermarks(),
            run.deployment.retired.back()->deployment().watermarks());
  EXPECT_EQ(cloud::FingerprintStore(run.warehouse().index_store()),
            run.fingerprint);
  const std::vector<Rows> rows = run.rows;
  RunQueries(run, {kPaintingQuery});
  EXPECT_EQ(run.rows, rows);
}

TEST(ArchitectureTest, SnapshotRestoreRejectsArchitectureMismatch) {
  // v5 image of a sharded environment cannot restore into the default
  // one, and vice versa.
  cloud::CloudConfig sharded_config;
  sharded_config.arch = Arch(CapacityMode::kProvisioned, 4, 0);
  cloud::CloudEnv sharded(sharded_config);
  const std::string sharded_image = SerializeSnapshot(sharded);
  cloud::CloudEnv fresh_default;
  const Status into_default =
      RestoreSnapshot(sharded_image, &fresh_default);
  EXPECT_TRUE(into_default.IsInvalidArgument())
      << into_default.ToString();

  cloud::CloudEnv default_env;
  const std::string default_image = SerializeSnapshot(default_env);
  cloud::CloudConfig other_config;
  other_config.arch = Arch(CapacityMode::kOnDemand, 1, 0);
  cloud::CloudEnv fresh_ondemand(other_config);
  EXPECT_TRUE(
      RestoreSnapshot(default_image, &fresh_ondemand).IsInvalidArgument());
}

TEST(ArchitectureTest, SnapshotV5RoundTripsOnDemandCeilings) {
  cloud::CloudConfig config;
  config.arch = Arch(CapacityMode::kOnDemand, 1, 0);
  config.dynamodb.write_units_per_second = 50;
  config.dynamodb.read_units_per_second = 50;
  cloud::CloudEnv env(config);
  Agent agent;
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "t").ok());
  cloud::Item item{"k", "r", {{"v", {std::string(4096, 'x')}}}};
  // Push sustained traffic through several one-second windows so the
  // burst ceiling moves above its starting point.
  for (int round = 0; round < 400; ++round) {
    ASSERT_TRUE(env.dynamodb().BatchPut(agent, "t", {&item, 1}).ok());
  }
  const auto& state = env.dynamodb().ondemand_state();
  ASSERT_GT(state.peak_write, 0.0);

  cloud::CloudConfig restored_config = config;
  cloud::CloudEnv restored(restored_config);
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env), &restored).ok());
  const auto& back = restored.dynamodb().ondemand_state();
  EXPECT_DOUBLE_EQ(back.write_ceiling, state.write_ceiling);
  EXPECT_DOUBLE_EQ(back.read_ceiling, state.read_ceiling);
  EXPECT_DOUBLE_EQ(back.peak_write, state.peak_write);
  EXPECT_DOUBLE_EQ(back.peak_read, state.peak_read);
  EXPECT_EQ(back.window_start, state.window_start);
  EXPECT_DOUBLE_EQ(back.window_write_units, state.window_write_units);
  EXPECT_DOUBLE_EQ(back.window_read_units, state.window_read_units);
}

}  // namespace
}  // namespace webdex::engine
