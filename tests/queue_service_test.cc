#include <gtest/gtest.h>

#include "cloud/cloud_env.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

/// A queue "q" in an env whose SQS injects `plan`'s faults.
class QueueServiceTest : public ::testing::Test {
 protected:
  explicit QueueServiceTest(const FaultPlan& plan = FaultPlan())
      : env_(Config(plan)) {
    EXPECT_TRUE(sqs_.CreateQueue("q").ok());
  }

  static CloudConfig Config(const FaultPlan& plan) {
    CloudConfig config;
    config.sqs.request_latency = 1'000;
    config.sqs.visibility_timeout = 60 * kMicrosPerSecond;
    config.faults = plan;
    return config;
  }

  CloudEnv env_;
  UsageMeter& meter_ = env_.meter();
  QueueService& sqs_ = env_.sqs();
  TestAgent agent_;
};

TEST_F(QueueServiceTest, SendReceiveDelete) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "hello").ok());
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(msg.value().has_value());
  EXPECT_EQ(msg.value()->body, "hello");
  EXPECT_EQ(msg.value()->delivery_count, 1);
  ASSERT_TRUE(sqs_.Delete(agent_, "q", msg.value()->receipt).ok());
  EXPECT_TRUE(sqs_.Drained("q"));
}

TEST_F(QueueServiceTest, ReceiveFromEmptyQueueReturnsNulloptButBills) {
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(msg.ok());
  EXPECT_FALSE(msg.value().has_value());
  EXPECT_EQ(meter_.usage().sqs_requests, 1u);
}

TEST_F(QueueServiceTest, UnknownQueueFails) {
  EXPECT_TRUE(sqs_.Send(agent_, "nope", "x").IsNotFound());
  EXPECT_TRUE(sqs_.Receive(agent_, "nope").status().IsNotFound());
}

TEST_F(QueueServiceTest, InFlightMessageIsInvisible) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "only").ok());
  auto first = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(first.value().has_value());
  auto second = sqs_.Receive(agent_, "q");
  EXPECT_FALSE(second.value().has_value());
  EXPECT_FALSE(sqs_.Drained("q"));
}

TEST_F(QueueServiceTest, ExpiredLeaseRedelivers) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "task").ok());
  auto first = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(first.value().has_value());
  // Simulated worker crash: no delete, time passes beyond the timeout.
  agent_.Advance(61 * kMicrosPerSecond);
  auto second = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(second.value()->body, "task");
  EXPECT_EQ(second.value()->delivery_count, 2);
  // The stale first receipt can no longer acknowledge the message.
  EXPECT_TRUE(sqs_.Delete(agent_, "q", first.value()->receipt).IsNotFound());
  EXPECT_TRUE(sqs_.Delete(agent_, "q", second.value()->receipt).ok());
}

TEST_F(QueueServiceTest, RenewLeaseExtendsVisibility) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "task").ok());
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(msg.value().has_value());
  agent_.Advance(50 * kMicrosPerSecond);
  ASSERT_TRUE(sqs_.RenewLease(agent_, "q", msg.value()->receipt).ok());
  agent_.Advance(50 * kMicrosPerSecond);  // 100 s total, lease renewed at 50
  auto other = sqs_.Receive(agent_, "q");
  EXPECT_FALSE(other.value().has_value());  // still leased
  EXPECT_TRUE(sqs_.Delete(agent_, "q", msg.value()->receipt).ok());
}

TEST_F(QueueServiceTest, RenewAfterExpiryFails) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "task").ok());
  auto msg = sqs_.Receive(agent_, "q");
  agent_.Advance(61 * kMicrosPerSecond);
  EXPECT_TRUE(sqs_.RenewLease(agent_, "q", msg.value()->receipt).IsNotFound());
}

TEST_F(QueueServiceTest, FifoAmongVisibleMessages) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "a").ok());
  ASSERT_TRUE(sqs_.Send(agent_, "q", "b").ok());
  auto first = sqs_.Receive(agent_, "q");
  auto second = sqs_.Receive(agent_, "q");
  EXPECT_EQ(first.value()->body, "a");
  EXPECT_EQ(second.value()->body, "b");
}

TEST_F(QueueServiceTest, NextDeliverableAtReportsLease) {
  EXPECT_FALSE(sqs_.NextDeliverableAt("q").has_value());
  ASSERT_TRUE(sqs_.Send(agent_, "q", "x").ok());
  auto visible = sqs_.NextDeliverableAt("q");
  ASSERT_TRUE(visible.has_value());
  EXPECT_LE(*visible, agent_.now());
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(msg.value().has_value());
  visible = sqs_.NextDeliverableAt("q");
  ASSERT_TRUE(visible.has_value());
  EXPECT_EQ(*visible, agent_.now() + 60 * kMicrosPerSecond);
}

TEST_F(QueueServiceTest, CountTracksUndeleted) {
  EXPECT_EQ(sqs_.Count("q"), 0u);
  ASSERT_TRUE(sqs_.Send(agent_, "q", "a").ok());
  ASSERT_TRUE(sqs_.Send(agent_, "q", "b").ok());
  EXPECT_EQ(sqs_.Count("q"), 2u);
  auto msg = sqs_.Receive(agent_, "q");
  EXPECT_EQ(sqs_.Count("q"), 2u);  // in flight still counts
  ASSERT_TRUE(sqs_.Delete(agent_, "q", msg.value()->receipt).ok());
  EXPECT_EQ(sqs_.Count("q"), 1u);
}

TEST_F(QueueServiceTest, DeliveryCountAndStaleReceiptsAcrossExpiries) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "task").ok());
  auto first = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(first.value().has_value());
  EXPECT_EQ(first.value()->delivery_count, 1);
  agent_.Advance(61 * kMicrosPerSecond);
  auto second = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(second.value()->delivery_count, 2);
  agent_.Advance(61 * kMicrosPerSecond);
  auto third = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(third.value().has_value());
  EXPECT_EQ(third.value()->delivery_count, 3);
  // Each redelivery after the first is counted by the meter...
  EXPECT_EQ(meter_.usage().sqs_redeliveries, 2u);
  // ...and invalidates every earlier receipt for delete *and* renew.
  EXPECT_TRUE(sqs_.Delete(agent_, "q", first.value()->receipt).IsNotFound());
  EXPECT_TRUE(
      sqs_.RenewLease(agent_, "q", second.value()->receipt).IsNotFound());
  EXPECT_TRUE(sqs_.RenewLease(agent_, "q", third.value()->receipt).ok());
  EXPECT_TRUE(sqs_.Delete(agent_, "q", third.value()->receipt).ok());
  EXPECT_TRUE(sqs_.Drained("q"));
}

TEST_F(QueueServiceTest, NextDeliverableAtTracksRenewedLease) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "x").ok());
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(msg.value().has_value());
  agent_.Advance(10 * kMicrosPerSecond);
  ASSERT_TRUE(sqs_.RenewLease(agent_, "q", msg.value()->receipt).ok());
  // The in-flight message becomes deliverable a full timeout after the
  // renewal, not after the original receive.
  auto visible = sqs_.NextDeliverableAt("q");
  ASSERT_TRUE(visible.has_value());
  EXPECT_EQ(*visible, agent_.now() + 60 * kMicrosPerSecond);
}

FaultPlan AllErrorsPlan() {
  FaultPlan plan;
  plan.sqs.error_probability = 1.0;
  plan.sqs.throttle_share = 0.0;  // always kUnavailable
  return plan;
}

class ErroringQueueTest : public QueueServiceTest {
 protected:
  ErroringQueueTest() : QueueServiceTest(AllErrorsPlan()) {}
};

TEST_F(ErroringQueueTest, InjectedErrorsAreRetriableAndBilled) {
  auto status = sqs_.Send(agent_, "q", "x");
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_TRUE(status.IsRetriable());
  // The failed attempt still bills a request and its latency, but the
  // message was not enqueued.
  EXPECT_EQ(meter_.usage().sqs_requests, 1u);
  EXPECT_EQ(meter_.usage().faulted_requests, 1u);
  EXPECT_EQ(agent_.now(), 1'000);
  EXPECT_TRUE(sqs_.Drained("q"));
  EXPECT_TRUE(sqs_.Receive(agent_, "q").status().IsUnavailable());
  EXPECT_EQ(meter_.usage().faulted_requests, 2u);
}

FaultPlan AllDuplicatesPlan() {
  FaultPlan plan;
  plan.sqs.duplicate_probability = 1.0;
  return plan;
}

class DuplicatingQueueTest : public QueueServiceTest {
 protected:
  DuplicatingQueueTest() : QueueServiceTest(AllDuplicatesPlan()) {}
};

TEST_F(DuplicatingQueueTest, DuplicateDeliveryStalesTheReceipt) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "task").ok());
  auto first = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(first.value().has_value());
  // The duplicate injection left the message deliverable: the receipt just
  // handed out is already stale, exactly like a real at-least-once dup.
  EXPECT_TRUE(sqs_.Delete(agent_, "q", first.value()->receipt).IsNotFound());
  auto second = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(second.value()->body, "task");
  EXPECT_EQ(second.value()->delivery_count, 2);
  EXPECT_EQ(meter_.usage().sqs_redeliveries, 1u);
}

FaultPlan AllDelaysPlan() {
  FaultPlan plan;
  plan.sqs.delay_probability = 1.0;
  plan.sqs.max_delay = 5 * kMicrosPerSecond;
  return plan;
}

class DelayingQueueTest : public QueueServiceTest {
 protected:
  DelayingQueueTest() : QueueServiceTest(AllDelaysPlan()) {}
};

TEST_F(DelayingQueueTest, DelayedMessageBecomesVisibleLater) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "slow").ok());
  auto hidden = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(hidden.ok());
  EXPECT_FALSE(hidden.value().has_value());
  auto visible_at = sqs_.NextDeliverableAt("q");
  ASSERT_TRUE(visible_at.has_value());
  EXPECT_GT(*visible_at, agent_.now());
  EXPECT_LE(*visible_at, agent_.now() + 5 * kMicrosPerSecond);
  agent_.AdvanceTo(*visible_at);
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(msg.value().has_value());
  EXPECT_EQ(msg.value()->body, "slow");
  EXPECT_EQ(msg.value()->delivery_count, 1);  // a delay is not a redelivery
  EXPECT_EQ(meter_.usage().sqs_redeliveries, 0u);
}

TEST_F(QueueServiceTest, EveryApiCallBillsOneRequest) {
  ASSERT_TRUE(sqs_.Send(agent_, "q", "x").ok());
  auto msg = sqs_.Receive(agent_, "q");
  ASSERT_TRUE(sqs_.RenewLease(agent_, "q", msg.value()->receipt).ok());
  ASSERT_TRUE(sqs_.Delete(agent_, "q", msg.value()->receipt).ok());
  EXPECT_EQ(meter_.usage().sqs_requests, 4u);
  EXPECT_EQ(agent_.now(), 4'000);  // 4 requests x 1 ms
}

}  // namespace
}  // namespace webdex::cloud
