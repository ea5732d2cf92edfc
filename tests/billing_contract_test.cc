// Contract of the one billing rule every simulated service call follows
// (cloud/billed_call.h, docs/FAULTS.md): a faulted attempt bills exactly
// one request and one round trip, records one error and changes no
// stored state; an organically throttled attempt bills one request and
// no capacity; a call on a missing table bills nothing at all; and
// replacements and deletes keep the item table's size accounting in step
// with the items it holds.  Swept over both key-value backends, whose
// limits are pinned here too, plus the object store's Put / Get /
// BatchGet.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

constexpr Micros kLatency = 7'000;


struct Backend {
  const char* name;  // metric prefix: service.<name>.<op>
  const char* noun;  // what error messages call a table
  StoreLimits limits;
  ServiceId service;
  const char* create_op;
  const char* batch_get_op;  // SimpleDB answers BatchGet with Gets
  uint64_t Usage::*put_requests;
  uint64_t Usage::*get_requests;
  uint64_t overhead_per_item;
  uint64_t overhead_per_value;
  /// Configures the backend's store.  `throttled` gives it one unit (or
  /// request) per second of capacity behind a one-second backlog bound,
  /// so a short burst saturates it.
  void (*configure)(CloudConfig& config, bool throttled);
  /// The backend's store in `env`.
  KvStore& (*store)(CloudEnv& env);
};

void ConfigureDynamoDb(CloudConfig& config, bool throttled) {
  config.dynamodb.request_latency = kLatency;
  if (throttled) {
    config.dynamodb.write_units_per_second = 1;
    config.dynamodb.read_units_per_second = 1;
    config.dynamodb.max_backlog_micros = kMicrosPerSecond;
  }
}

void ConfigureSimpleDb(CloudConfig& config, bool throttled) {
  config.simpledb.request_latency = kLatency;
  if (throttled) {
    config.simpledb.requests_per_second = 1;
    config.simpledb.max_backlog_micros = kMicrosPerSecond;
  }
}

const Backend kDynamoDb{"dynamodb",
                        "table",
                        {.max_item_bytes = 64 * 1024,
                         .max_value_bytes = 64 * 1024,
                         .binary_values = true,
                         .batch_put = 25,
                         .batch_get = 100,
                         .max_values_per_item = 1 << 20},
                        ServiceId::kDynamoDb,
                        "create_table",
                        "batch_get",
                        &Usage::ddb_put_requests,
                        &Usage::ddb_get_requests,
                        DynamoDb::kItemOverheadBytes,
                        0,
                        ConfigureDynamoDb,
                        [](CloudEnv& env) -> KvStore& {
                          return env.dynamodb();
                        }};
const Backend kSimpleDb{"simpledb",
                        "domain",
                        {.max_item_bytes = 256 * 1024,
                         .max_value_bytes = 1024,
                         .binary_values = false,
                         .batch_put = 25,
                         .batch_get = 20,
                         .max_values_per_item = 255},
                        ServiceId::kSimpleDb,
                        "create_domain",
                        "get",
                        &Usage::sdb_put_requests,
                        &Usage::sdb_get_requests,
                        SimpleDb::kPerItemOverheadBytes,
                        SimpleDb::kPerAttributeOverheadBytes,
                        ConfigureSimpleDb,
                        [](CloudEnv& env) -> KvStore& {
                          return env.simpledb();
                        }};

void PrintTo(const Backend& backend, std::ostream* os) { *os << backend.name; }

Item MakeItem(const std::string& hash, const std::string& range,
              AttributeValues values) {
  return Item{hash, range, {{"doc.xml", std::move(values)}}};
}

/// Every index-store API request in a usage delta, on either backend.
uint64_t IndexRequests(const Usage& u) {
  return u.ddb_put_requests + u.ddb_get_requests + u.sdb_put_requests +
         u.sdb_get_requests;
}

/// The data-proportional term of a usage delta — capacity units or box
/// usage — which a rejected attempt must never pay.
double WorkTerm(const Usage& u) {
  return u.ddb_write_units + u.ddb_read_units + u.ddb_ondemand_write_units +
         u.ddb_ondemand_read_units + u.sdb_box_hours;
}

/// One billed call of the KvStore API and the metric it records under.
struct Call {
  std::string op;
  uint64_t Usage::*requests;
  std::function<Status()> run;
};

class BillingContractTest : public ::testing::TestWithParam<Backend> {
 protected:
  /// Opens a store under `plan` holding table "t" with two items, all
  /// loaded host-side (unbilled, fault-free).
  void Open(const FaultPlan& plan, bool throttled = false) {
    CloudConfig config;
    config.seed = 1;
    config.faults = plan;
    GetParam().configure(config, throttled);
    env_ = std::make_unique<CloudEnv>(config);
    store_ = &GetParam().store(*env_);
    ASSERT_TRUE(store_->RestoreTable("t").ok());
    store_->RestoreItem("t", MakeItem("k", "r1", {"a"}));
    store_->RestoreItem("t", MakeItem("k", "r2", {"b", "c"}));
  }

  /// The data-plane and control-plane calls every backend bills; the
  /// data-plane ones address `table`.
  std::vector<Call> Calls(SimAgent& agent, const std::string& table = "t") {
    const Backend& b = GetParam();
    KvStore* s = store_;
    return {
        {b.create_op, b.put_requests,
         [s, &agent] { return s->CreateTable(agent, "u"); }},
        {"batch_put", b.put_requests,
         [s, &agent, table] {
           return s->BatchPut(agent, table,
                              std::vector<Item>{MakeItem("k", "r9", {"z"})});
         }},
        {b.batch_get_op, b.get_requests,
         [s, &agent, table] {
           return s->BatchGet(agent, table, {"k"}).status();
         }},
        {"scan", b.get_requests,
         [s, &agent, table] {
           // A scan visits only once it has succeeded.
           bool visited = false;
           const Status status = s->Scan(
               agent, table, [&visited](const ItemView&) { visited = true; });
           return status.ok() || !visited
                      ? status
                      : Status::Corruption("a failed scan visited items");
         }},
        {"delete_item", b.put_requests,
         [s, &agent, table] { return s->DeleteItem(agent, table, "k", "r1"); }},
    };
  }

  uint64_t Errors(const std::string& op) const {
    return env_->metrics().CounterValue(
        std::string("service.") + GetParam().name + "." + op + ".errors");
  }

  /// StoredBytes, ItemCount and OverheadBytes of "t" agree with the items
  /// the table actually holds.
  void ExpectAccountingInStep() const {
    uint64_t bytes = 0;
    uint64_t items = 0;
    uint64_t values = 0;
    store_->ForEachItem("t", [&](const ItemView& item) {
      bytes += item.SizeBytes();
      items += 1;
      for (const auto& attr : item.attrs()) values += attr.values.size();
    });
    EXPECT_EQ(store_->StoredBytes("t"), bytes);
    EXPECT_EQ(store_->ItemCount("t"), items);
    EXPECT_EQ(store_->OverheadBytes("t"),
              items * GetParam().overhead_per_item +
                  values * GetParam().overhead_per_value);
  }

  std::unique_ptr<CloudEnv> env_;
  KvStore* store_ = nullptr;
  TestAgent agent_;
};

TEST_P(BillingContractTest, FaultedAttemptBillsOneRequestAndOneRoundTrip) {
  FaultPlan plan;
  ServiceFaults& faults = GetParam().service == ServiceId::kDynamoDb
                              ? plan.dynamodb
                              : plan.simpledb;
  faults.error_probability = 1;
  Open(plan);
  const uint64_t bytes = store_->StoredBytes("t");
  const uint64_t items = store_->ItemCount("t");
  for (const Call& call : Calls(agent_)) {
    SCOPED_TRACE(call.op);
    const Usage before = env_->meter().Snapshot();
    const Micros start = agent_.now();
    const uint64_t errors = Errors(call.op);
    const Status status = call.run();
    EXPECT_TRUE(status.IsRetriable()) << status.ToString();
    const Usage delta = env_->meter().usage() - before;
    EXPECT_EQ(delta.*call.requests, 1u);
    EXPECT_EQ(IndexRequests(delta), 1u);
    EXPECT_EQ(delta.faulted_requests, 1u);
    EXPECT_EQ(WorkTerm(delta), 0);
    EXPECT_EQ(agent_.now() - start, kLatency);
    EXPECT_EQ(Errors(call.op), errors + 1);
    EXPECT_EQ(store_->StoredBytes("t"), bytes);
    EXPECT_EQ(store_->ItemCount("t"), items);
  }
  EXPECT_FALSE(store_->HasTable("u"));
}

TEST_P(BillingContractTest, ThrottledAttemptBillsOneRequestAndNoCapacity) {
  Open(FaultPlan(), /*throttled=*/true);
  // Saturate every limiter: committed writes and reads run seconds past
  // time zero.  Each client waits for its own work, so none is throttled.
  TestAgent writer;
  TestAgent reader;
  const std::string value(1000, 'x');
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store_
                    ->BatchPut(writer, "t",
                               std::vector<Item>{MakeItem("w", StrFormat("r%d", i),
                                         {value})})
                    .ok());
    ASSERT_TRUE(store_->BatchGet(reader, "t", {"w"}).ok());
  }
  ExpectAccountingInStep();
  const uint64_t bytes = store_->StoredBytes("t");
  const uint64_t items = store_->ItemCount("t");
  // A client arriving at time zero finds more than the bound queued.
  TestAgent late;
  std::vector<Call> calls = Calls(late);
  calls.erase(calls.begin());  // table creation is never throttled
  for (const Call& call : calls) {
    SCOPED_TRACE(call.op);
    const Usage before = env_->meter().Snapshot();
    const Micros start = late.now();
    const uint64_t errors = Errors(call.op);
    const Status status = call.run();
    ASSERT_TRUE(status.IsResourceExhausted()) << status.ToString();
    EXPECT_GT(status.retry_after_micros(), 0);
    const Usage delta = env_->meter().usage() - before;
    EXPECT_EQ(delta.*call.requests, 1u);
    EXPECT_EQ(IndexRequests(delta), 1u);
    EXPECT_EQ(delta.throttled_requests, 1u);
    EXPECT_EQ(WorkTerm(delta), 0);
    EXPECT_EQ(late.now() - start, kLatency);
    EXPECT_EQ(Errors(call.op), errors + 1);
    EXPECT_EQ(store_->StoredBytes("t"), bytes);
    EXPECT_EQ(store_->ItemCount("t"), items);
  }
}

// Every billed verb opens its table before it bills anything: on a
// missing table it fails NotFound in the backend's own words, with no
// usage, no virtual time and no stored change.  Creating or restoring a
// table that exists fails AlreadyExists, also without a bill.
TEST_P(BillingContractTest, MissingAndDuplicateTablesBillNothing) {
  Open(FaultPlan());
  const auto unbilled = [this](const std::function<Status()>& run) {
    const Usage before = env_->meter().Snapshot();
    const Micros start = agent_.now();
    const Status status = run();
    const Usage delta = env_->meter().usage() - before;
    delta.ForEachField(
        [](const char* field, auto value) { EXPECT_EQ(value, 0) << field; });
    EXPECT_EQ(agent_.now(), start);
    return status;
  };
  const std::string noun = GetParam().noun;
  std::vector<Call> calls = Calls(agent_, "absent");
  calls.erase(calls.begin());  // creation is checked below, on "t"
  for (const Call& call : calls) {
    SCOPED_TRACE(call.op);
    const Status status = unbilled(call.run);
    EXPECT_TRUE(status.IsNotFound()) << status.ToString();
    EXPECT_EQ(status.message(), "no such " + noun + ": absent");
  }
  EXPECT_FALSE(store_->HasTable("absent"));
  for (const Status& status :
       {unbilled([this] { return store_->CreateTable(agent_, "t"); }),
        unbilled([this] { return store_->RestoreTable("t"); })}) {
    EXPECT_TRUE(status.IsAlreadyExists()) << status.ToString();
    EXPECT_EQ(status.message(), noun + " exists: t");
  }
  EXPECT_EQ(store_->ItemCount("t"), 2u);
}

TEST_P(BillingContractTest, LimitsArePinned) {
  Open(FaultPlan());
  EXPECT_EQ(store_->Limits(), GetParam().limits);
  EXPECT_EQ(store_->BatchGetLimit(), GetParam().limits.batch_get);
}

TEST_P(BillingContractTest, ReplaceAndDeleteKeepAccountingInStep) {
  Open(FaultPlan());
  ExpectAccountingInStep();
  const uint64_t before_bytes = store_->StoredBytes("t");
  // Replacing (k, r1) with a larger, multi-valued item.
  ASSERT_TRUE(
      store_->BatchPut(agent_, "t", std::vector<Item>{MakeItem("k", "r1", {"aaaa", "b", "c"})})
          .ok());
  EXPECT_EQ(store_->ItemCount("t"), 2u);
  EXPECT_EQ(store_->StoredBytes("t"), before_bytes + 5);
  ExpectAccountingInStep();
  // Replacing it again inside one batch, next to a fresh item.
  ASSERT_TRUE(store_
                  ->BatchPut(agent_, "t",
                             std::vector<Item>{MakeItem("k", "r1", {"x"}),
                              MakeItem("m", "r1", {"y", "z"})})
                  .ok());
  EXPECT_EQ(store_->ItemCount("t"), 3u);
  ExpectAccountingInStep();
  // Deleting a present item, then an absent one (still one billed request).
  ASSERT_TRUE(store_->DeleteItem(agent_, "t", "k", "r2").ok());
  EXPECT_EQ(store_->ItemCount("t"), 2u);
  ExpectAccountingInStep();
  const Usage before = env_->meter().Snapshot();
  ASSERT_TRUE(store_->DeleteItem(agent_, "t", "k", "absent").ok());
  EXPECT_EQ((env_->meter().usage() - before).*GetParam().put_requests, 1u);
  EXPECT_EQ(store_->ItemCount("t"), 2u);
  ExpectAccountingInStep();
  // Deleting everything returns the table to zero.
  ASSERT_TRUE(store_->DeleteItem(agent_, "t", "k", "r1").ok());
  ASSERT_TRUE(store_->DeleteItem(agent_, "t", "m", "r1").ok());
  EXPECT_EQ(store_->StoredBytes("t"), 0u);
  EXPECT_EQ(store_->ItemCount("t"), 0u);
  EXPECT_EQ(store_->OverheadBytes("t"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BillingContractTest,
                         ::testing::Values(kDynamoDb, kSimpleDb),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The object store bills through the same rule, with S3's charge step: a
// failed Put still sends its body, so it pays the transfer time as well.
TEST(ObjectStoreBillingTest, FaultedAttemptBillsOneRequestAndOneRoundTrip) {
  CloudConfig config;
  config.seed = 1;
  config.faults.s3.error_probability = 1;
  config.s3.request_latency = kLatency;
  config.s3.bandwidth_bytes_per_sec = 1 << 20;
  CloudEnv env(config);
  UsageMeter& meter = env.meter();
  common::MetricRegistry& metrics = env.metrics();
  ObjectStore& s3 = env.s3();
  ASSERT_TRUE(s3.CreateBucket("b").ok());
  s3.RestoreObject("b", "k", "stored");
  TestAgent agent;
  const std::string body(1 << 18, 'p');  // a quarter second on the wire
  struct S3Call {
    std::string op;
    uint64_t Usage::*requests;
    Micros transfer;
    std::function<Status()> run;
  };
  const std::vector<S3Call> calls = {
      {"put", &Usage::s3_put_requests, kMicrosPerSecond / 4,
       [&] { return s3.Put(agent, "b", "new", body); }},
      {"get", &Usage::s3_get_requests, 0,
       [&] { return s3.Get(agent, "b", "k").status(); }},
      {"batch_get", &Usage::s3_get_requests, 0,
       [&] { return s3.BatchGet(agent, "b", {"k", "k"}, 2).status(); }},
  };
  for (const S3Call& call : calls) {
    SCOPED_TRACE(call.op);
    const Usage before = meter.Snapshot();
    const Micros start = agent.now();
    const std::string errors = "service.s3." + call.op + ".errors";
    const uint64_t errors_before = metrics.CounterValue(errors);
    const Status status = call.run();
    EXPECT_TRUE(status.IsRetriable()) << status.ToString();
    const Usage delta = meter.usage() - before;
    EXPECT_EQ(delta.*call.requests, 1u);
    EXPECT_EQ(delta.s3_put_requests + delta.s3_get_requests, 1u);
    EXPECT_EQ(delta.s3_bytes_in + delta.s3_bytes_out, 0u);
    EXPECT_EQ(delta.faulted_requests, 1u);
    EXPECT_EQ(agent.now() - start, kLatency + call.transfer);
    EXPECT_EQ(metrics.CounterValue(errors), errors_before + 1);
    EXPECT_EQ(s3.ObjectCount("b"), 1u);
    EXPECT_EQ(s3.BucketBytes("b"), 6u);
  }
}

}  // namespace
}  // namespace webdex::cloud
