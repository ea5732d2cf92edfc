// Contract of KvStore::Scan (cloud/kv_store.h): the store bills every
// page before it visits anything, so a scan whose page faults and is
// retried visits each item exactly once and bills what a copying scan
// billed, a scan that exhausts its retries visits nothing, and the
// sharded, replicated layout visits the same items in the same (hash,
// range) order, byte for byte, as the paper's single table.  Its
// unbilled twin ForEachItem visits what a fault-free Scan visits, in
// the same order, on both layouts, without moving the meter or the
// clock, and visits everything even while every scan page faults.
//
// The put path's contract (KvStore::BatchPutViews): the sharded,
// replicated layout hands back everything it did not store, in shard
// order, as views of the caller's bytes; and BatchPut over Items bills
// and stores exactly what BatchPutViews over views of them does.

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/replicated_kv_store.h"
#include "cloud/retrying_kv_store.h"
#include "cloud/sharded_kv_store.h"
#include "common/retry.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "xmark/xmark_generator.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

/// 50 items of 50 KB: 21 fit in a 1 MB DynamoDB scan page, so the table
/// scans in three pages.
constexpr int kItems = 50;
/// What the retried scan below billed when Scan still copied every page
/// into a vector: read units of pages 1, 1, 2 and 3, and the virtual time
/// the five page requests and one backoff took.
constexpr double kRetriedReadUnits = 887.67333984375;
constexpr Micros kRetriedMicros = 3'575'488;

std::vector<Item> PageItems(int count) {
  std::vector<Item> items;
  for (int i = 0; i < count; ++i) {
    items.push_back(Item{StrFormat("key%03d", i), "r",
                         {{"doc", {std::string(50 * 1024, 'a' + i % 26)}}}});
  }
  return items;
}

/// A CloudEnv whose DynamoDB table "t" holds `items` (restored, unbilled).
std::unique_ptr<CloudEnv> EnvWith(const std::vector<Item>& items,
                                  const FaultPlan& faults = FaultPlan()) {
  CloudConfig config;
  config.faults = faults;
  auto env = std::make_unique<CloudEnv>(config);
  EXPECT_TRUE(env->dynamodb().RestoreTable("t").ok());
  for (const Item& item : items) env->dynamodb().RestoreItem("t", item);
  return env;
}

/// The keys a scan visited, in visit order.
struct Visits {
  std::vector<std::string> keys;
  KvStore::ScanVisitor Visitor() {
    return [this](const ItemView& item) {
      keys.emplace_back(item.hash_key);
    };
  }
};

/// Every Usage field rendered, so two meter readings compare whole.
std::string Rendered(const Usage& usage) {
  std::string out;
  usage.ForEachField([&out](const char* name, auto value) {
    out += StrFormat("%s=%.17g ", name, static_cast<double>(value));
  });
  return out;
}

RetryingKvStore Retrying(CloudEnv& env) {
  return RetryingKvStore(&env.dynamodb(), common::RetryPolicy(), /*seed=*/42,
                         env.meter(), env.breaker(), env.metrics(),
                         env.tracer());
}

// A fault on the second of three pages fails the attempt after one page
// was billed; the retry scans all three again.  The visitor runs once,
// after the successful attempt, and the bill is the copying scan's.
TEST(ScanContractTest, RetriedScanVisitsEachItemOnce) {
  // The first page's duration, from a one-page twin of the table.
  Micros first_page = 0;
  {
    auto twin = EnvWith(PageItems(21));
    TestAgent agent;
    ASSERT_TRUE(twin->dynamodb().Scan(agent, "t", [](const ItemView&) {}).ok());
    first_page = agent.now();
    ASSERT_EQ(twin->meter().usage().ddb_get_requests, 1u);
  }
  FaultPlan faults;
  faults.outages.push_back(
      {ServiceId::kDynamoDb, first_page, first_page + 1});
  auto env = EnvWith(PageItems(kItems), faults);
  RetryingKvStore retrying = Retrying(*env);
  TestAgent agent;
  Visits visits;
  ASSERT_TRUE(retrying.Scan(agent, "t", visits.Visitor()).ok());

  ASSERT_EQ(visits.keys.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(visits.keys[static_cast<size_t>(i)], StrFormat("key%03d", i));
  }
  const Usage& usage = env->meter().usage();
  EXPECT_EQ(usage.faulted_requests, 1u);
  EXPECT_EQ(usage.retried_requests, 1u);
  // Pages 1 and 2 (faulted), then pages 1-3: the parent's copying scan
  // billed exactly this.
  EXPECT_EQ(usage.ddb_get_requests, 5u);
  EXPECT_EQ(usage.ddb_read_units, kRetriedReadUnits);
  EXPECT_EQ(agent.now(), kRetriedMicros);
}

// A scan whose every attempt faults returns the error and visits
// nothing, though each faulted attempt was billed.  The unbilled walk is
// fault-free: it still visits every item in key order, through the
// retrying decorator and on the bare store, and bills nothing.
TEST(ScanContractTest, ExhaustedScanVisitsNothing) {
  FaultPlan faults;
  faults.outages.push_back({ServiceId::kDynamoDb, 0, kMicrosPerSecond * 3600});
  auto env = EnvWith(PageItems(kItems), faults);
  RetryingKvStore retrying = Retrying(*env);
  TestAgent agent;
  Visits visits;
  const Status status = retrying.Scan(agent, "t", visits.Visitor());
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsRetriable()) << status.ToString();
  EXPECT_TRUE(visits.keys.empty());
  EXPECT_GT(env->meter().usage().ddb_get_requests, 0u);

  const std::string billed = Rendered(env->meter().Snapshot());
  for (const KvStore* store : std::initializer_list<const KvStore*>{
           &retrying, &env->dynamodb()}) {
    Visits walked;
    store->ForEachItem("t", walked.Visitor());
    ASSERT_EQ(walked.keys.size(), static_cast<size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
      EXPECT_EQ(walked.keys[static_cast<size_t>(i)], StrFormat("key%03d", i));
    }
  }
  EXPECT_EQ(Rendered(env->meter().Snapshot()), billed);
}

/// Every (hash, record) a walk of one table visited, in visit order.
using Walk = std::vector<std::pair<std::string, std::string>>;

/// What a warehouse's index store visits on `table` after indexing one
/// corpus on the layout `arch`: by a fault-free Scan and by ForEachItem.
struct Walks {
  Walk scanned;
  Walk walked;
};

Walks WalkIndex(const ArchitectureSpec& arch, const char* table) {
  CloudConfig cloud_config;
  cloud_config.arch = arch;
  CloudEnv env(cloud_config);
  engine::WarehouseConfig config;
  config.strategy = index::StrategyKind::kLUP;
  config.num_instances = 2;
  engine::Warehouse warehouse(&env, config);
  EXPECT_TRUE(warehouse.Setup().ok());
  xmark::GeneratorConfig corpus;
  corpus.num_documents = 6;
  corpus.entities_per_document = 5;
  for (const auto& doc : xmark::XmarkGenerator(corpus).GenerateAll()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  EXPECT_TRUE(warehouse.RunIndexers().ok());
  Walks walks;
  const auto into = [](Walk& walk) {
    return [&walk](const ItemView& item) {
      walk.emplace_back(item.hash_key, item.record());
    };
  };
  // The unbilled walk moves neither the meter nor the clock.
  const std::string billed = Rendered(env.meter().Snapshot());
  const Micros now = warehouse.front_end().now();
  warehouse.index_store().ForEachItem(table, into(walks.walked));
  EXPECT_EQ(Rendered(env.meter().Snapshot()), billed) << arch.Name();
  EXPECT_EQ(warehouse.front_end().now(), now) << arch.Name();
  EXPECT_TRUE(warehouse.index_store()
                  .Scan(warehouse.front_end(), table, into(walks.scanned))
                  .ok());
  EXPECT_NE(Rendered(env.meter().Snapshot()), billed) << arch.Name();
  return walks;
}

// The sharded decorator merges its shards' runs back into the unsharded
// store's order: same items, same order, same record bytes.  On both
// layouts ForEachItem visits what the fault-free Scan visits.
TEST(ScanContractTest, ShardedScanMatchesTheUnshardedStore) {
  ArchitectureSpec sharded;
  sharded.shards = 4;
  sharded.replicas = 1;
  const Walks plain = WalkIndex(ArchitectureSpec(), "idx-lup");
  ASSERT_GT(plain.scanned.size(), 100u);
  EXPECT_EQ(plain.walked, plain.scanned);
  const Walks spread = WalkIndex(sharded, "idx-lup");
  EXPECT_EQ(spread.scanned, plain.scanned);
  EXPECT_EQ(spread.walked, plain.scanned);
}

/// `count` small items, each under a hash key of its own.
std::vector<Item> KeyedItems(int count) {
  std::vector<Item> items;
  for (int i = 0; i < count; ++i) {
    items.push_back(Item{StrFormat("key%03d", i), StrFormat("r%03d", i),
                         {{"doc", {StrFormat("v%d", i)}}}});
  }
  return items;
}

/// The record bytes of the element of `items` that `stored` equals.
const char* FindSent(const std::vector<Item>& items, const ItemView& stored) {
  for (const Item& item : items) {
    if (ItemView(item) == stored) return item.record().data();
  }
  ADD_FAILURE() << "stored an item never sent: " << stored.hash_key;
  return nullptr;
}

// prov-s4-r1 without retries: a put under partial-batch and transient
// faults stores some items and hands back every other one, grouped by
// shard in shard order and in the caller's order within a shard, each a
// view of the caller's bytes.  Over the plan seeds tried, some puts end
// OK with bounced suffixes and some fail part-way, leaving the shards
// after the failed one unattempted.
TEST(PutContractTest, ShardedPutBouncesEverythingNotStoredInShardOrder) {
  const std::vector<Item> items = KeyedItems(120);
  const std::vector<ItemView> views(items.begin(), items.end());
  std::map<const char*, size_t> sent;  // record bytes -> index in `items`
  for (size_t i = 0; i < items.size(); ++i) {
    sent[items[i].record().data()] = i;
  }
  int bounced_ok = 0;
  int failed = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    CloudConfig config;
    config.arch.shards = 4;
    config.arch.replicas = 1;
    config.faults.seed = seed;
    config.faults.dynamodb.unprocessed_probability = 0.5;
    config.faults.dynamodb.error_probability = 0.2;
    CloudEnv env(config);
    ASSERT_EQ(config.arch.Name(), "prov-s4-r1");
    ReplicatedKvStore replicated(&env.dynamodb(), env.deployment(),
                                 env.meter(), env.metrics(), env.tracer());
    ShardedKvStore sharded(&replicated, env.deployment(), env.meter(),
                           env.metrics(), env.tracer());
    ASSERT_TRUE(sharded.RestoreTable("t").ok());
    TestAgent agent;
    std::vector<ItemView> left;
    const Status status = sharded.BatchPutViews(agent, "t", views, &left);
    ASSERT_TRUE(status.ok() || status.IsRetriable()) << status.ToString();

    std::vector<bool> pending(items.size(), false);
    std::pair<int, size_t> previous(-1, 0);
    for (const ItemView& view : left) {
      const auto found = sent.find(view.record().data());
      ASSERT_NE(found, sent.end()) << "bounced view copies the item";
      const size_t index = found->second;
      EXPECT_EQ(view.hash_key.data(), items[index].hash_key.data());
      const std::pair<int, size_t> at(env.deployment().ShardFor(view.hash_key),
                                      index);
      EXPECT_LT(previous, at) << "seed " << seed;
      previous = at;
      pending[index] = true;
    }
    std::vector<bool> stored(items.size(), false);
    sharded.ForEachItem("t", [&](const ItemView& item) {
      stored[sent.at(FindSent(items, item))] = true;
    });
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_NE(stored[i], pending[i]) << "seed " << seed << " item " << i;
    }
    if (!status.ok()) {
      ++failed;
      // A shard the failure stopped before was never attempted: all of
      // its items are pending.
      for (size_t i = 0; i < items.size(); ++i) {
        const int shard = env.deployment().ShardFor(items[i].hash_key);
        if (env.metrics().CounterValue(StrFormat(
                "service.dynamodb.batch_put.s%d.count", shard)) == 0) {
          EXPECT_TRUE(pending[i]) << "seed " << seed << " item " << i;
        }
      }
    } else if (!left.empty()) {
      ++bounced_ok;
    }
  }
  EXPECT_GT(bounced_ok, 0);
  EXPECT_GT(failed, 0);
}

// The Item convenience is BatchPutViews underneath: through the retrying
// decorator, under partial-batch and transient faults, putting Items and
// putting views of them bill the same Usage, take the same virtual time,
// hand back the same survivors and leave the same store, on DynamoDB and
// (fault-free) on SimpleDB.
TEST(PutContractTest, BatchPutOverItemsBillsAndStoresAsViews) {
  const std::vector<Item> items = KeyedItems(80);
  const std::vector<ItemView> views(items.begin(), items.end());
  for (const bool simpledb : {false, true}) {
    struct Outcome {
      std::string status;
      std::string usage;
      Micros now = 0;
      std::vector<std::string> left;
      uint64_t fingerprint = 0;
    };
    const auto put = [&](bool as_views) {
      CloudConfig config;
      config.faults.seed = 3;
      config.faults.dynamodb.unprocessed_probability = 0.4;
      config.faults.dynamodb.error_probability = 0.3;
      CloudEnv env(config);
      KvStore& base = simpledb ? static_cast<KvStore&>(env.simpledb())
                               : static_cast<KvStore&>(env.dynamodb());
      common::RetryPolicy policy;
      policy.max_attempts = 3;
      RetryingKvStore retrying(&base, policy, /*seed=*/42, env.meter(),
                               env.breaker(), env.metrics(), env.tracer());
      EXPECT_TRUE(base.RestoreTable("t").ok());
      TestAgent agent;
      Outcome out;
      Status status;
      if (as_views) {
        std::vector<ItemView> left;
        status = retrying.BatchPutViews(agent, "t", views, &left);
        for (const ItemView& item : left) {
          out.left.emplace_back(item.range_key());
        }
      } else {
        std::vector<Item> left;
        status = retrying.BatchPut(agent, "t", items, &left);
        for (const Item& item : left) out.left.emplace_back(item.range_key());
      }
      out.status = status.ToString();
      out.usage = Rendered(env.meter().Snapshot());
      out.now = agent.now();
      out.fingerprint = FingerprintStore(base);
      return out;
    };
    const Outcome copied = put(false);
    const Outcome viewed = put(true);
    EXPECT_EQ(viewed.status, copied.status) << simpledb;
    EXPECT_EQ(viewed.usage, copied.usage) << simpledb;
    EXPECT_EQ(viewed.now, copied.now) << simpledb;
    EXPECT_EQ(viewed.left, copied.left) << simpledb;
    EXPECT_EQ(viewed.fingerprint, copied.fingerprint) << simpledb;
  }
}

}  // namespace
}  // namespace webdex::cloud
