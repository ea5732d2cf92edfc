#include <gtest/gtest.h>

#include "cloud/cloud_env.h"
#include "common/strings.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

Item MakeItem(std::string hash, std::string range,
              std::map<std::string, std::vector<std::string>> attrs) {
  return Item(std::move(hash), range, attrs);
}

class DynamoDbTest : public ::testing::Test {
 protected:
  DynamoDbTest() : env_(Config()) {
    EXPECT_TRUE(db_.CreateTable(agent_, "t").ok());
  }

  static CloudConfig Config() {
    CloudConfig config;
    config.dynamodb.request_latency = 5'000;
    config.dynamodb.write_units_per_second = 1000;
    config.dynamodb.read_units_per_second = 2000;
    return config;
  }

  CloudEnv env_;
  UsageMeter& meter_ = env_.meter();
  DynamoDb& db_ = env_.dynamodb();
  TestAgent agent_;
};

TEST_F(DynamoDbTest, PutAndGetByHashKey) {
  ASSERT_TRUE(db_.BatchPut(agent_, "t",
                           std::vector<Item>{MakeItem("k", "r1", {{"doc1.xml", {"v1"}}}),
                            MakeItem("k", "r2", {{"doc2.xml", {"v2"}}})})
                  .ok());
  auto items = db_.BatchGet(agent_, "t", {"k"});
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 2u);
  EXPECT_EQ(items.value()[0].range_key(), "r1");
  EXPECT_EQ(items.value()[1].ToAttributes().at("doc2.xml")[0], "v2");
}

TEST_F(DynamoDbTest, GetMissingHashKeyReturnsEmpty) {
  auto items = db_.BatchGet(agent_, "t", {"nope"});
  ASSERT_TRUE(items.ok());
  EXPECT_TRUE(items.value().empty());
  EXPECT_DOUBLE_EQ(meter_.usage().ddb_read_units,
                   DynamoDb::kMinReadBytes / 4096.0);  // floor
}

TEST_F(DynamoDbTest, UnknownTableFails) {
  EXPECT_TRUE(db_.BatchGet(agent_, "nope", {"k"}).status().IsNotFound());
  EXPECT_TRUE(db_.BatchPut(agent_, "nope", {}).IsNotFound());
  EXPECT_TRUE(db_.CreateTable(agent_, "t").IsAlreadyExists());
}

TEST_F(DynamoDbTest, SamePrimaryKeyReplacesItem) {
  ASSERT_TRUE(
      db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem("k", "r", {{"a", {"old-value"}}})})
          .ok());
  ASSERT_TRUE(db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem("k", "r", {{"b", {"x"}}})})
                  .ok());
  auto items = db_.BatchGet(agent_, "t", {"k"});
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_EQ(items.value()[0].ToAttributes().count("a"), 0u);
  EXPECT_EQ(items.value()[0].ToAttributes().at("b")[0], "x");
  EXPECT_EQ(db_.ItemCount("t"), 1u);
  // Stored bytes reflect only the replacement.
  const Item replacement = MakeItem("k", "r", {{"b", {"x"}}});
  EXPECT_EQ(db_.StoredBytes("t"), replacement.SizeBytes());
}

TEST_F(DynamoDbTest, RejectsOversizedItem) {
  std::string huge(65 * 1024, 'x');
  auto status =
      db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem("k", "r", {{"a", {huge}}})});
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(db_.ItemCount("t"), 0u);  // no partial effects
}

TEST_F(DynamoDbTest, RejectsEmptyOrHugeKeys) {
  EXPECT_TRUE(
      db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem("", "r", {})}).IsInvalidArgument());
  EXPECT_TRUE(
      db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem("k", "", {})}).IsInvalidArgument());
  EXPECT_TRUE(db_.BatchPut(agent_, "t",
                           std::vector<Item>{MakeItem(std::string(3000, 'k'), "r", {})})
                  .IsInvalidArgument());
}

TEST_F(DynamoDbTest, BinaryValuesSupported) {
  std::string binary("\x00\x01\xff\x7f", 4);
  ASSERT_TRUE(
      db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem("k", "r", {{"u", {binary}}})})
          .ok());
  auto items = db_.BatchGet(agent_, "t", {"k"});
  EXPECT_EQ(items.value()[0].ToAttributes().at("u")[0], binary);
}

TEST_F(DynamoDbTest, WriteUnitsProportionalToItemSize) {
  // ~2.5 KB item: fractional units, size/1024 (see WriteUnits note).
  std::string payload(2500, 'x');
  const Item item = MakeItem("k", "r", {{"u", {payload}}});
  ASSERT_TRUE(db_.BatchPut(agent_, "t", {&item, 1}).ok());
  EXPECT_DOUBLE_EQ(meter_.usage().ddb_write_units,
                   static_cast<double>(item.SizeBytes()) / 1024.0);
  EXPECT_EQ(meter_.usage().ddb_items_written, 1u);
  EXPECT_EQ(meter_.usage().ddb_put_requests, 1u);
}

TEST_F(DynamoDbTest, TinyItemsPayThePerItemFloor) {
  const Item item = MakeItem("k", "r", {{"u", {"v"}}});
  ASSERT_TRUE(db_.BatchPut(agent_, "t", {&item, 1}).ok());
  EXPECT_DOUBLE_EQ(meter_.usage().ddb_write_units,
                   DynamoDb::kMinWriteBytes / 1024.0);
}

TEST_F(DynamoDbTest, BatchPutSplitsIntoApiBatchesOf25) {
  std::vector<Item> items;
  for (int i = 0; i < 60; ++i) {
    items.push_back(
        MakeItem(StrFormat("k%d", i), "r", {{"u", {"v"}}}));
  }
  ASSERT_TRUE(db_.BatchPut(agent_, "t", items).ok());
  EXPECT_EQ(meter_.usage().ddb_put_requests, 3u);  // 25 + 25 + 10
  EXPECT_EQ(meter_.usage().ddb_items_written, 60u);
}

TEST_F(DynamoDbTest, ProvisionedWriteCapacityThrottles) {
  // 1000 write units/s provisioned; 8000 floored items (64 B / 1 KB =
  // 1/16 unit each) => 500 units => the clock must advance >= 0.5 s.
  std::vector<Item> items;
  for (int i = 0; i < 8000; ++i) {
    items.push_back(MakeItem(StrFormat("k%d", i), "r", {{"u", {"v"}}}));
  }
  ASSERT_TRUE(db_.BatchPut(agent_, "t", items).ok());
  EXPECT_GE(agent_.now(), kMicrosPerSecond / 2);
  EXPECT_DOUBLE_EQ(meter_.usage().ddb_write_units, 500.0);
}

TEST_F(DynamoDbTest, ReadUnitsProportionalToBytes) {
  std::string payload(9000, 'x');  // ~9 KB -> size/4096 read units
  const Item item = MakeItem("k", "r", {{"u", {payload}}});
  ASSERT_TRUE(db_.BatchPut(agent_, "t", {&item, 1}).ok());
  const double before = meter_.usage().ddb_read_units;
  ASSERT_TRUE(db_.BatchGet(agent_, "t", {"k"}).ok());
  EXPECT_DOUBLE_EQ(meter_.usage().ddb_read_units - before,
                   static_cast<double>(item.SizeBytes()) / 4096.0);
}

TEST_F(DynamoDbTest, BatchGetMergesAndBatches) {
  std::vector<std::string> keys;
  for (int i = 0; i < 150; ++i) {
    const std::string key = StrFormat("k%d", i);
    keys.push_back(key);
    ASSERT_TRUE(
        db_.BatchPut(agent_, "t", std::vector<Item>{MakeItem(key, "r", {{"u", {"v"}}})}).ok());
  }
  const auto before = meter_.usage().ddb_get_requests;
  auto items = db_.BatchGet(agent_, "t", keys);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items.value().size(), 150u);
  EXPECT_EQ(meter_.usage().ddb_get_requests - before, 2u);  // 100 + 50
}

TEST_F(DynamoDbTest, StorageOverheadPerItem) {
  ASSERT_TRUE(db_.BatchPut(agent_, "t",
                           std::vector<Item>{MakeItem("k", "r1", {{"u", {"v"}}}),
                            MakeItem("k", "r2", {{"u", {"v"}}})})
                  .ok());
  EXPECT_EQ(db_.OverheadBytes("t"), 2 * DynamoDb::kItemOverheadBytes);
}

TEST_F(DynamoDbTest, TableNames) {
  ASSERT_TRUE(db_.CreateTable(agent_, "u").ok());
  EXPECT_EQ(db_.TableNames(), (std::vector<std::string>{"t", "u"}));
  EXPECT_TRUE(db_.HasTable("t"));
  EXPECT_FALSE(db_.HasTable("x"));
}

}  // namespace
}  // namespace webdex::cloud
