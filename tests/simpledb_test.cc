#include <gtest/gtest.h>

#include "cloud/simpledb.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

Item MakeItem(std::string hash, std::string range,
              std::map<std::string, std::vector<std::string>> attrs) {
  return Item{std::move(hash), std::move(range), std::move(attrs)};
}

class SimpleDbTest : public ::testing::Test {
 protected:
  SimpleDbTest() : meter_(Pricing()), db_(Config(), &meter_) {
    EXPECT_TRUE(db_.CreateTable(agent_, "d").ok());
  }

  static SimpleDbConfig Config() {
    SimpleDbConfig config;
    config.request_latency = 30'000;
    config.requests_per_second = 100;
    return config;
  }

  UsageMeter meter_;
  SimpleDb db_;
  TestAgent agent_;
};

TEST_F(SimpleDbTest, PutGetRoundTrip) {
  ASSERT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {"path"}}})})
          .ok());
  auto items = db_.BatchGet(agent_, "d", {"k"});
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_EQ(items.value()[0].attrs.at("doc")[0], "path");
}

TEST_F(SimpleDbTest, RejectsBinaryValues) {
  std::string binary("\x00\x01", 2);
  auto status =
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {binary}}})});
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST_F(SimpleDbTest, RejectsValuesOverOneKilobyte) {
  std::string big(1025, 'x');
  EXPECT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {big}}})})
          .IsInvalidArgument());
  std::string exactly(1024, 'x');
  EXPECT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {exactly}}})})
          .ok());
}

TEST_F(SimpleDbTest, RejectsTooManyAttributes) {
  std::vector<std::string> values(257, "v");
  EXPECT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", values}})})
          .IsInvalidArgument());
}

TEST_F(SimpleDbTest, BillsBoxUsageHours) {
  ASSERT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {"v"}}})}).ok());
  ASSERT_TRUE(db_.BatchGet(agent_, "d", {"k"}).ok());
  const Pricing pricing;
  EXPECT_DOUBLE_EQ(meter_.usage().sdb_box_hours,
                   pricing.simpledb_box_hours_per_put +
                       pricing.simpledb_box_hours_per_get);
  EXPECT_GT(meter_.ComputeBill().simpledb, 0.0);
}

TEST_F(SimpleDbTest, SlowerThanDynamoPerRequest) {
  ASSERT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {"v"}}})}).ok());
  EXPECT_GE(agent_.now(), 30'000);  // one 30 ms round trip at least
}

TEST_F(SimpleDbTest, OverheadPerItemAndAttribute) {
  ASSERT_TRUE(db_.BatchPut(agent_, "d",
                           std::vector<Item>{MakeItem("k", "r", {{"doc", {"a", "b"}}})})
                  .ok());
  EXPECT_EQ(db_.OverheadBytes("d"), SimpleDb::kPerItemOverheadBytes +
                                        2 * SimpleDb::kPerAttributeOverheadBytes);
}

TEST_F(SimpleDbTest, ReplacementUpdatesAccounting) {
  ASSERT_TRUE(db_.BatchPut(agent_, "d",
                           std::vector<Item>{MakeItem("k", "r", {{"doc", {"aaaa", "bb"}}})})
                  .ok());
  ASSERT_TRUE(
      db_.BatchPut(agent_, "d", std::vector<Item>{MakeItem("k", "r", {{"doc", {"c"}}})}).ok());
  EXPECT_EQ(db_.ItemCount("d"), 1u);
  const Item current = MakeItem("k", "r", {{"doc", {"c"}}});
  EXPECT_EQ(db_.StoredBytes("d"), current.SizeBytes());
  EXPECT_EQ(db_.OverheadBytes("d"), SimpleDb::kPerItemOverheadBytes +
                                        SimpleDb::kPerAttributeOverheadBytes);
}

// The limits themselves are pinned per backend in billing_contract_test.
TEST_F(SimpleDbTest, CapabilityModel) {
  EXPECT_STREQ(db_.Name(), "SimpleDB");
}

}  // namespace
}  // namespace webdex::cloud
