#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cloud/snapshot.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"

namespace webdex::cloud {
namespace {

class Agent : public SimAgent {};

TEST(SnapshotTest, EmptyEnvironmentRoundTrips) {
  CloudEnv env;
  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_TRUE(restored.s3().Empty());
  EXPECT_TRUE(restored.dynamodb().Empty());
}

TEST(SnapshotTest, ObjectsAndItemsRoundTrip) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.s3().CreateBucket("data").ok());
  ASSERT_TRUE(env.s3().Put(agent, "data", "a.xml", "<a/>").ok());
  std::string binary("\x00\x01\xff", 3);
  ASSERT_TRUE(env.s3().Put(agent, "data", "blob", binary).ok());
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "idx").ok());
  ASSERT_TRUE(env.dynamodb()
                  .BatchPut(agent, "idx",
                            std::vector<Item>{Item{"k", "r", {{"a.xml", {"v1", binary}}}}})
                  .ok());
  ASSERT_TRUE(env.simpledb().CreateTable(agent, "legacy").ok());
  ASSERT_TRUE(env.simpledb()
                  .BatchPut(agent, "legacy",
                            std::vector<Item>{Item{"k2", "r2", {{"doc", {"text"}}}}})
                  .ok());

  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env), &restored).ok());

  Agent reader;
  auto object = restored.s3().Get(reader, "data", "a.xml");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object.value(), "<a/>");
  EXPECT_EQ(restored.s3().Get(reader, "data", "blob").value(), binary);
  auto items = restored.dynamodb().BatchGet(reader, "idx", {"k"});
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_EQ(items.value()[0].attrs.at("a.xml"),
            (AttributeValues{"v1", binary}));
  EXPECT_EQ(restored.dynamodb().StoredBytes("idx"),
            env.dynamodb().StoredBytes("idx"));
  EXPECT_EQ(restored.simpledb().ItemCount("legacy"), 1u);
  EXPECT_EQ(restored.simpledb().OverheadBytes("legacy"),
            env.simpledb().OverheadBytes("legacy"));
}

TEST(SnapshotTest, EmptyTablesSurvive) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "empty").ok());
  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env), &restored).ok());
  EXPECT_TRUE(restored.dynamodb().HasTable("empty"));
  EXPECT_EQ(restored.dynamodb().ItemCount("empty"), 0u);
}

TEST(SnapshotTest, RejectsGarbageAndTruncation) {
  CloudEnv empty;
  EXPECT_TRUE(RestoreSnapshot("", &empty).IsCorruption());
  EXPECT_TRUE(RestoreSnapshot("NOTASNAP", &empty).IsCorruption());

  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.s3().CreateBucket("b").ok());
  ASSERT_TRUE(env.s3().Put(agent, "b", "k", "payload").ok());
  std::string snapshot = SerializeSnapshot(env);
  for (size_t cut : {snapshot.size() - 1, snapshot.size() / 2, size_t{9}}) {
    CloudEnv fresh;
    EXPECT_TRUE(
        RestoreSnapshot(snapshot.substr(0, cut), &fresh).IsCorruption())
        << "cut at " << cut;
  }
  // Trailing garbage is also rejected.
  CloudEnv fresh;
  EXPECT_TRUE(RestoreSnapshot(snapshot + "x", &fresh).IsCorruption());
}

TEST(SnapshotTest, RefusesNonEmptyTarget) {
  CloudEnv env;
  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv busy;
  ASSERT_TRUE(busy.s3().CreateBucket("b").ok());
  EXPECT_TRUE(RestoreSnapshot(snapshot, &busy).IsAlreadyExists());
}

TEST(SnapshotTest, FileRoundTripThroughWarehouse) {
  // Index a corpus, snapshot to disk, restore into a fresh cloud, attach
  // a new warehouse, and get identical query answers without reindexing.
  const std::string path = "/tmp/webdex_snapshot_test.bin";
  engine::QueryOutcome original;
  {
    CloudEnv env;
    engine::WarehouseConfig config;
    config.strategy = index::StrategyKind::kLUP;
    engine::Warehouse warehouse(&env, config);
    ASSERT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : xmark::GeneratePaintings()) {
      ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    ASSERT_TRUE(warehouse.RunIndexers().ok());
    auto outcome = warehouse.ExecuteQuery(
        "//painting[/name~'Lion', //painter/name/last:val]");
    ASSERT_TRUE(outcome.ok());
    original = std::move(outcome).value();
    ASSERT_TRUE(SaveSnapshotFile(env, path).ok());
  }

  CloudEnv restored;
  ASSERT_TRUE(LoadSnapshotFile(path, &restored).ok());
  engine::WarehouseConfig config;
  config.strategy = index::StrategyKind::kLUP;
  engine::Warehouse warehouse(&restored, config);
  ASSERT_TRUE(warehouse.AttachToExistingCloud().ok());
  EXPECT_GT(warehouse.document_uris().size(), 40u);
  auto outcome = warehouse.ExecuteQuery(
      "//painting[/name~'Lion', //painter/name/last:val]");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().result.rows, original.result.rows);
  EXPECT_EQ(outcome.value().docs_fetched, original.docs_fetched);
  std::remove(path.c_str());
}

// Version 2 rounds-trips the chaos state: injector stream cursors and
// circuit-breaker trackers survive, so the whole snapshot re-serializes
// byte-identically from the restored environment.
TEST(SnapshotTest, ChaosStateRoundTripsByteIdentically) {
  CloudConfig config;
  config.faults.seed = 11;
  config.faults.s3.error_probability = 0.2;
  CloudEnv env(config);
  Agent agent;
  ASSERT_TRUE(env.s3().CreateBucket("b").ok());
  for (int i = 0; i < 20; ++i) {
    // Faulted puts advance the injector streams; the injected errors
    // themselves are irrelevant here.
    (void)env.s3().Put(agent, "b", "k" + std::to_string(i), "v");
  }
  ASSERT_FALSE(env.fault_injector().SaveStreams().empty());
  for (int i = 0; i < env.config().breaker.failure_threshold; ++i) {
    env.breaker().RecordFailure("idx-table", agent.now());
  }
  ASSERT_EQ(env.breaker().state("idx-table"), BreakerState::kOpen);
  env.breaker().RecordSuccess("healthy-table");

  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv restored(config);
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_EQ(restored.breaker().state("idx-table"), BreakerState::kOpen);
  EXPECT_EQ(restored.breaker().state("healthy-table"), BreakerState::kClosed);
  EXPECT_EQ(restored.fault_injector().SaveStreams(),
            env.fault_injector().SaveStreams());
  EXPECT_EQ(SerializeSnapshot(restored), snapshot);
}

// The test keeps its historical name, but WDXSNAP5 is now the only
// snapshot format: a WDXSNAP1-4 header (v1 included) is rejected as
// corrupt and restores nothing.
TEST(SnapshotTest, LegacyV1SnapshotsStillRestore) {
  CloudEnv fresh;
  const std::string v5 = SerializeSnapshot(fresh);
  ASSERT_EQ(v5.substr(0, 8), "WDXSNAP5");

  for (const char* magic : {"WDXSNAP1", "WDXSNAP2", "WDXSNAP3", "WDXSNAP4"}) {
    // The v5 body behind an older header, and the header alone.
    for (const std::string& image :
         {std::string(magic) + v5.substr(8), std::string(magic)}) {
      CloudEnv env;
      EXPECT_TRUE(RestoreSnapshot(image, &env).IsCorruption()) << magic;
      EXPECT_TRUE(env.s3().Empty());
      EXPECT_TRUE(env.dynamodb().Empty());
      EXPECT_TRUE(env.simpledb().Empty());
      EXPECT_EQ(SerializeSnapshot(env), v5) << magic;
    }
  }
}

// The point of saving chaos state: a faulted run snapshotted mid-way and
// resumed in a fresh process draws the identical continuation of its
// fault schedule — same answers, same makespan, same fault counters and
// dollars as the run that never stopped.
TEST(SnapshotTest, MidRunChaosResumeIsDeterministic) {
  CloudConfig config;
  config.faults.seed = 5;
  // S3 stays fault-free so the post-restore attach (an unretried LIST)
  // cannot be the variable; DynamoDB and SQS chaos exercises the
  // restored streams during the query phase.
  config.faults.dynamodb.error_probability = 0.15;
  config.faults.dynamodb.throttle_share = 0.6;
  config.faults.sqs.error_probability = 0.05;
  config.faults.sqs.delay_probability = 0.2;
  config.faults.sqs.max_delay = kMicrosPerSecond;
  const std::vector<std::string> workload = {
      "//painting[/name~'Lion', //painter/name/last:val]",
      "//painting[/year:val, /museum]"};
  engine::WarehouseConfig wh;
  wh.strategy = index::StrategyKind::kLUP;

  // Run A: index under chaos, snapshot, then keep going with queries.
  CloudEnv env_a(config);
  engine::Warehouse warehouse_a(&env_a, wh);
  ASSERT_TRUE(warehouse_a.Setup().ok());
  for (const auto& doc : xmark::GeneratePaintings()) {
    ASSERT_TRUE(warehouse_a.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(warehouse_a.RunIndexers().ok());
  const std::string snapshot = SerializeSnapshot(env_a);
  const Usage before_a = env_a.meter().Snapshot();
  auto run_a = warehouse_a.ExecuteQueries(workload);
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();
  const Usage delta_a = env_a.meter().Snapshot() - before_a;

  // Run B: restore into a fresh cloud and run the same queries.
  CloudEnv env_b(config);
  ASSERT_TRUE(RestoreSnapshot(snapshot, &env_b).ok());
  engine::Warehouse warehouse_b(&env_b, wh);
  ASSERT_TRUE(warehouse_b.AttachToExistingCloud().ok());
  const Usage before_b = env_b.meter().Snapshot();
  auto run_b = warehouse_b.ExecuteQueries(workload);
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();
  const Usage delta_b = env_b.meter().Snapshot() - before_b;

  // The chaos plan actually bit during the resumed phase.
  EXPECT_GT(delta_a.faulted_requests, 0u);

  ASSERT_EQ(run_a.value().outcomes.size(), run_b.value().outcomes.size());
  for (size_t i = 0; i < run_a.value().outcomes.size(); ++i) {
    EXPECT_EQ(run_a.value().outcomes[i].result.rows,
              run_b.value().outcomes[i].result.rows)
        << "query " << i;
  }
  EXPECT_EQ(run_a.value().makespan, run_b.value().makespan);
  EXPECT_EQ(delta_a.faulted_requests, delta_b.faulted_requests);
  EXPECT_EQ(delta_a.retried_requests, delta_b.retried_requests);
  EXPECT_EQ(delta_a.sqs_requests, delta_b.sqs_requests);
  EXPECT_DOUBLE_EQ(env_a.meter().ComputeBill(delta_a).total(),
                   env_b.meter().ComputeBill(delta_b).total());
}

TEST(SnapshotTest, MissingFileFails) {
  CloudEnv env;
  EXPECT_TRUE(
      LoadSnapshotFile("/tmp/definitely-not-there.bin", &env).IsIOError());
}

}  // namespace
}  // namespace webdex::cloud
