#include <gtest/gtest.h>

#include "cloud/cloud_env.h"
#include "cloud/snapshot.h"
#include "common/strings.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : env_(Config()) {
    EXPECT_TRUE(store_.CreateBucket("b").ok());
  }

  static CloudConfig Config() {
    CloudConfig config;
    config.s3.request_latency = 10'000;             // 10 ms
    config.s3.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s
    return config;
  }

  CloudEnv env_;
  UsageMeter& meter_ = env_.meter();
  ObjectStore& store_ = env_.s3();
  TestAgent agent_;
};

TEST_F(ObjectStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "hello").ok());
  auto got = store_.Get(agent_, "b", "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "hello");
}

TEST_F(ObjectStoreTest, GetMissingIsNotFoundAndBilled) {
  auto got = store_.Get(agent_, "b", "nope");
  EXPECT_TRUE(got.status().IsNotFound());
  EXPECT_EQ(meter_.usage().s3_get_requests, 1u);
}

TEST_F(ObjectStoreTest, MissingBucketFails) {
  EXPECT_TRUE(store_.Put(agent_, "nope", "k", "v").IsNotFound());
  EXPECT_TRUE(store_.Get(agent_, "nope", "k").status().IsNotFound());
}

TEST_F(ObjectStoreTest, DuplicateBucketFails) {
  EXPECT_TRUE(store_.CreateBucket("b").IsAlreadyExists());
}

TEST_F(ObjectStoreTest, PutReplacesAndTracksBytes) {
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "12345").ok());
  EXPECT_EQ(store_.BucketBytes("b"), 5u);
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "123").ok());
  EXPECT_EQ(store_.BucketBytes("b"), 3u);
  EXPECT_EQ(store_.ObjectCount("b"), 1u);
}

uint64_t Recount(const ObjectStore& store, const std::string& bucket) {
  uint64_t total = 0;
  store.ForEachObject([&](const std::string& name, const std::string&,
                          const std::string& data) {
    if (name == bucket) total += data.size();
  });
  return total;
}

// BucketBytes is a running total kept by every write; it must always
// equal a recount of the stored payloads.
TEST_F(ObjectStoreTest, BucketBytesMatchesARecountAfterEveryWrite) {
  const auto expect_bytes = [this](const char* step, uint64_t want) {
    EXPECT_EQ(store_.BucketBytes("b"), want) << step;
    EXPECT_EQ(Recount(store_, "b"), want) << step;
  };
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "12345").ok());
  ASSERT_TRUE(store_.Put(agent_, "b", "j", "abc").ok());
  expect_bytes("put", 8);
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "1234567890").ok());
  expect_bytes("growing overwrite", 13);
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "12").ok());
  expect_bytes("shrinking overwrite", 5);
  ASSERT_TRUE(store_.Delete(agent_, "b", "j").ok());
  expect_bytes("delete", 2);
  ASSERT_TRUE(store_.Delete(agent_, "b", "absent").ok());
  expect_bytes("delete of an absent key", 2);
  store_.RestoreObject("b", "k", "wxyz");
  expect_bytes("restore over an existing key", 4);

  CloudEnv restored(Config());
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env_), &restored).ok());
  EXPECT_EQ(restored.s3().BucketBytes("b"), 4u);
  EXPECT_EQ(Recount(restored.s3(), "b"), 4u);
  EXPECT_EQ(restored.s3().TotalBytes(), store_.TotalBytes());
}

TEST_F(ObjectStoreTest, LatencyChargedToAgent) {
  // 1 MB at 1 MB/s = 1 s, plus 10 ms request latency.
  std::string megabyte(1'000'000, 'x');
  ASSERT_TRUE(store_.Put(agent_, "b", "big", std::move(megabyte)).ok());
  EXPECT_EQ(agent_.now(), 1'010'000);
}

TEST_F(ObjectStoreTest, MeterCountsRequestsAndBytes) {
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "abcd").ok());
  ASSERT_TRUE(store_.Get(agent_, "b", "k").ok());
  EXPECT_EQ(meter_.usage().s3_put_requests, 1u);
  EXPECT_EQ(meter_.usage().s3_get_requests, 1u);
  EXPECT_EQ(meter_.usage().s3_bytes_in, 4u);
  EXPECT_EQ(meter_.usage().s3_bytes_out, 4u);
}

TEST_F(ObjectStoreTest, BatchGetParallelStreamsReduceMakespan) {
  std::string blob(1'000'000, 'x');  // 1 s transfer each
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store_.Put(agent_, "b", StrFormat("k%d", i), blob).ok());
  }
  TestAgent serial, parallel;
  auto r1 = store_.BatchGet(serial, "b", {"k0", "k1", "k2", "k3"}, 1);
  ASSERT_TRUE(r1.ok());
  auto r4 = store_.BatchGet(parallel, "b", {"k0", "k1", "k2", "k3"}, 4);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r1.value().size(), 4u);
  EXPECT_EQ(r4.value().size(), 4u);
  // 4 transfers over 4 streams finish ~4x faster than over 1.
  EXPECT_NEAR(static_cast<double>(serial.now()) / parallel.now(), 4.0, 0.1);
}

// BatchGet hands out views of the stored payloads, not copies; billing
// still counts every byte.
TEST_F(ObjectStoreTest, BatchGetBorrowsStoredPayloads) {
  ASSERT_TRUE(store_.Put(agent_, "b", "k0", "first payload").ok());
  ASSERT_TRUE(store_.Put(agent_, "b", "k1", std::string(100, 'y')).ok());
  auto got = store_.BatchGet(agent_, "b", {"k1", "k0", "k1"}, 2);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 3u);
  EXPECT_EQ(got.value()[0], std::string(100, 'y'));
  EXPECT_EQ(got.value()[1], "first payload");
  EXPECT_EQ(got.value()[0].data(), store_.PeekObject("b", "k1")->data());
  EXPECT_EQ(got.value()[2].data(), got.value()[0].data());
  EXPECT_EQ(meter_.usage().s3_bytes_out, 213u);
}

TEST_F(ObjectStoreTest, BatchGetMissingKeyFails) {
  ASSERT_TRUE(store_.Put(agent_, "b", "k0", "x").ok());
  auto r = store_.BatchGet(agent_, "b", {"k0", "missing"}, 2);
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ObjectStoreTest, BatchGetRejectsZeroStreams) {
  EXPECT_TRUE(
      store_.BatchGet(agent_, "b", {"k"}, 0).status().IsInvalidArgument());
}

TEST_F(ObjectStoreTest, ListReturnsPrefixedKeysInOrder) {
  ASSERT_TRUE(store_.Put(agent_, "b", "doc-2", "x").ok());
  ASSERT_TRUE(store_.Put(agent_, "b", "doc-1", "x").ok());
  ASSERT_TRUE(store_.Put(agent_, "b", "other", "x").ok());
  auto keys = store_.List(agent_, "b", "doc-");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value(), (std::vector<std::string>{"doc-1", "doc-2"}));
}

TEST_F(ObjectStoreTest, DeleteRemovesObject) {
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "x").ok());
  ASSERT_TRUE(store_.Delete(agent_, "b", "k").ok());
  EXPECT_FALSE(store_.Exists("b", "k"));
  EXPECT_TRUE(store_.Get(agent_, "b", "k").status().IsNotFound());
}

TEST_F(ObjectStoreTest, TotalBytesAcrossBuckets) {
  ASSERT_TRUE(store_.CreateBucket("c").ok());
  ASSERT_TRUE(store_.Put(agent_, "b", "k", "12").ok());
  ASSERT_TRUE(store_.Put(agent_, "c", "k", "345").ok());
  EXPECT_EQ(store_.TotalBytes(), 5u);
}

}  // namespace
}  // namespace webdex::cloud
