// Contract of the retry decorator (cloud/retrying_kv_store.h,
// docs/FAULTS.md), pinned against a scripted store so every outcome is
// chosen by the test: one `attempt.<op>` span per attempt for all five
// verbs, unbilled breaker short-circuits, BatchPut re-submitting only the
// unprocessed suffix, retry-after hints slept exactly, deadline and
// max-attempt exits handing the survivors back, and the retry counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cloud/circuit_breaker.h"
#include "cloud/kv_store.h"
#include "cloud/retrying_kv_store.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/tracer.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

constexpr Micros kLatency = 1'000;

/// One scripted outcome of a call that reached the store.  For BatchPut,
/// `stored` items of the submitted batch commit (in order) and the rest
/// bounce back as unprocessed; other verbs ignore it.
struct Step {
  Status status;
  size_t stored = static_cast<size_t>(-1);
};

/// A KvStore whose outcomes are popped from a script (calls past the end
/// succeed).  Every call that reaches it bills one request, costs one
/// round trip of virtual time and, for BatchPut, one write unit per
/// committed item — so anything billed twice shows up in the meter.
class ScriptedStore final : public KvStore {
 public:
  explicit ScriptedStore(UsageMeter* meter) : meter_(meter) {}

  std::deque<Step> script;
  std::vector<size_t> batch_sizes;  // items submitted per BatchPut call
  std::vector<std::string> committed;  // range keys, in commit order
  int calls = 0;

  Status CreateTable(SimAgent& agent, const std::string&) override {
    return Reach(agent, &Usage::ddb_put_requests).status;
  }
  bool HasTable(const std::string&) const override { return true; }
  Status BatchPut(SimAgent& agent, const std::string&,
                  std::span<const Item> items,
                  std::vector<Item>* unprocessed) override {
    if (unprocessed != nullptr) unprocessed->clear();
    batch_sizes.push_back(items.size());
    const Step step = Reach(agent, &Usage::ddb_put_requests);
    const size_t stored = std::min(step.stored, items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (i < stored) {
        committed.push_back(items[i].range_key);
        meter_->mutable_usage().ddb_write_units += 1;
      } else if (unprocessed != nullptr) {
        unprocessed->push_back(items[i]);
      }
    }
    return step.status;
  }
  Result<std::vector<Item>> BatchGet(SimAgent& agent, const std::string&,
                                     const std::vector<std::string>&) override {
    return Items(Reach(agent, &Usage::ddb_get_requests).status);
  }
  Result<std::vector<Item>> Scan(SimAgent& agent,
                                const std::string&) override {
    return Items(Reach(agent, &Usage::ddb_get_requests).status);
  }
  Status DeleteItem(SimAgent& agent, const std::string&, const std::string&,
                    const std::string&) override {
    return Reach(agent, &Usage::ddb_put_requests).status;
  }

  const char* Name() const override { return "scripted"; }
  const StoreLimits& Limits() const override {
    static constexpr StoreLimits kLimits{.max_item_bytes = 1 << 20,
                                         .max_value_bytes = 1 << 20,
                                         .binary_values = true,
                                         .batch_put = 25,
                                         .batch_get = 100,
                                         .max_values_per_item = 1 << 20};
    return kLimits;
  }
  uint64_t StoredBytes(const std::string&) const override { return 0; }
  uint64_t OverheadBytes(const std::string&) const override { return 0; }
  uint64_t ItemCount(const std::string&) const override { return 0; }
  std::vector<std::string> TableNames() const override { return {}; }
  void ForEachItem(const std::function<void(const std::string&, const Item&)>&)
      const override {}
  void RestoreItem(const std::string&, const Item&) override {}
  Status RestoreTable(const std::string&) override { return Status::OK(); }

 private:
  Step Reach(SimAgent& agent, uint64_t Usage::*requests) {
    ++calls;
    meter_->mutable_usage().*requests += 1;
    agent.Advance(kLatency);
    if (script.empty()) return Step{};
    Step step = script.front();
    script.pop_front();
    return step;
  }
  static Result<std::vector<Item>> Items(const Status& status) {
    if (!status.ok()) return status;
    return std::vector<Item>{Item{"k", "r", {}}};
  }

  UsageMeter* meter_;
};

std::vector<Item> MakeItems(int n) {
  std::vector<Item> items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Item{"key", "r" + std::to_string(i), {{"doc", {"v"}}}});
  }
  return items;
}

std::vector<std::string> RangeKeys(const std::vector<Item>& items) {
  std::vector<std::string> keys;
  for (const Item& item : items) keys.push_back(item.range_key);
  return keys;
}

/// A decorator over a scripted store, with its meter, breaker, metrics
/// and an enabled tracer.
struct Harness {
  explicit Harness(common::RetryPolicy policy = common::RetryPolicy(),
                   CircuitBreakerConfig breaker_config = CircuitBreakerConfig())
      : meter(Pricing()),
        store(&meter),
        breaker(breaker_config, &meter),
        retrying(&store, policy, /*seed=*/42, &meter, &breaker, &metrics,
                 &tracer) {
    tracer.set_enabled(true);
  }

  /// Attribute `key` (0 when absent) of every span named `name`, in order.
  std::vector<int> Attrs(const std::string& name, const char* key) const {
    std::vector<int> values;
    for (const auto& span : tracer.spans()) {
      if (span.name == name) {
        values.push_back(static_cast<int>(common::Tracer::Attr(span, key)));
      }
    }
    return values;
  }
  std::vector<int> Attempts(const std::string& name) const {
    return Attrs(name, "attempt");
  }
  std::vector<int> Errors(const std::string& name) const {
    return Attrs(name, "error");
  }
  uint64_t Counter(const std::string& name) const {
    return metrics.CounterValue(name);
  }

  UsageMeter meter;
  common::MetricRegistry metrics;
  common::Tracer tracer;
  ScriptedStore store;
  CircuitBreaker breaker;
  RetryingKvStore retrying;
  TestAgent agent;
};

struct Verb {
  const char* span;
  std::function<Status(Harness&)> call;
};

std::vector<Verb> AllVerbs() {
  return {
      {"attempt.create_table",
       [](Harness& h) { return h.retrying.CreateTable(h.agent, "t"); }},
      {"attempt.batch_put",
       [](Harness& h) {
         std::vector<Item> left;
         return h.retrying.BatchPut(h.agent, "t", MakeItems(3), &left);
       }},
      {"attempt.batch_get",
       [](Harness& h) {
         return h.retrying.BatchGet(h.agent, "t", {"a", "b"}).status();
       }},
      {"attempt.scan",
       [](Harness& h) { return h.retrying.Scan(h.agent, "t").status(); }},
      {"attempt.delete_item",
       [](Harness& h) {
         return h.retrying.DeleteItem(h.agent, "t", "k", "r");
       }},
  };
}

TEST(RetryingKvStoreTest, OneAttemptSpanPerAttemptForEveryVerb) {
  for (const Verb& verb : AllVerbs()) {
    Harness h;
    h.store.script = {Step{Status::Unavailable("blip"), 0},
                      Step{Status::Unavailable("blip"), 0}};
    ASSERT_TRUE(verb.call(h).ok()) << verb.span;
    EXPECT_EQ(h.Attempts(verb.span), (std::vector<int>{1, 2, 3})) << verb.span;
    EXPECT_EQ(h.Errors(verb.span), (std::vector<int>{1, 1, 0})) << verb.span;
    // Nothing but attempt spans: the decorator opens no other span.
    EXPECT_EQ(h.tracer.spans().size(), 3u) << verb.span;
    EXPECT_EQ(h.store.calls, 3) << verb.span;
    EXPECT_EQ(h.meter.usage().retried_requests, 2u) << verb.span;
    EXPECT_EQ(h.Counter("cloud.retry.attempts.count"), 3u) << verb.span;
  }
}

TEST(RetryingKvStoreTest, FirstTrySuccessCountsOneAttemptAndNoRetry) {
  for (const Verb& verb : AllVerbs()) {
    Harness h;
    ASSERT_TRUE(verb.call(h).ok()) << verb.span;
    EXPECT_EQ(h.Attempts(verb.span), (std::vector<int>{1})) << verb.span;
    EXPECT_EQ(h.agent.now(), kLatency) << verb.span;
    EXPECT_EQ(h.meter.usage().retried_requests, 0u) << verb.span;
    EXPECT_EQ(h.Counter("cloud.retry.attempts.count"), 1u) << verb.span;
  }
}

TEST(RetryingKvStoreTest, PermanentErrorIsNotRetried) {
  for (const Verb& verb : AllVerbs()) {
    Harness h;
    h.store.script = {Step{Status::InvalidArgument("bad"), 0}};
    EXPECT_EQ(verb.call(h).code(), Status::Code::kInvalidArgument)
        << verb.span;
    EXPECT_EQ(h.store.calls, 1) << verb.span;
    EXPECT_EQ(h.meter.usage().retried_requests, 0u) << verb.span;
    // A permanent error proves the service is up: the breaker stays shut.
    EXPECT_EQ(h.breaker.state("t"), BreakerState::kClosed) << verb.span;
  }
}

// An open breaker fails the remaining attempts fast: they still get an
// attempt span and count as attempts, but no request reaches the store
// and their spans carry no dollars.
TEST(RetryingKvStoreTest, BreakerShortCircuitsBillNothing) {
  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 3600 * kMicrosPerSecond;
  for (const Verb& verb : AllVerbs()) {
    Harness h(common::RetryPolicy(), breaker);
    for (int i = 0; i < 10; ++i) {
      h.store.script.push_back(Step{Status::Unavailable("down"), 0});
    }
    const Status status = verb.call(h);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable) << verb.span;
    EXPECT_EQ(h.store.calls, 2) << verb.span;
    const Usage& usage = h.meter.usage();
    EXPECT_EQ(usage.ddb_put_requests + usage.ddb_get_requests, 2u)
        << verb.span;
    EXPECT_EQ(usage.ddb_write_units, 0.0) << verb.span;
    EXPECT_EQ(usage.breaker_short_circuits, 3u) << verb.span;
    EXPECT_EQ(usage.retried_requests, 4u) << verb.span;
    EXPECT_EQ(h.Attempts(verb.span), (std::vector<int>{1, 2, 3, 4, 5}))
        << verb.span;
    EXPECT_EQ(h.Errors(verb.span), (std::vector<int>{1, 1, 1, 1, 1}))
        << verb.span;
    // Requests billed inside each attempt span: only the two that
    // reached the store; the short-circuited three carry no dollars.
    std::vector<int> requests;
    for (const auto& span : h.tracer.spans()) {
      if (span.name != verb.span) continue;
      requests.push_back(static_cast<int>(
          common::Tracer::Attr(span, "usage.ddb_put_requests") +
          common::Tracer::Attr(span, "usage.ddb_get_requests")));
      if (requests.size() > 2) {
        EXPECT_EQ(common::Tracer::Attr(span, "usd", -1.0), 0.0) << verb.span;
      }
    }
    EXPECT_EQ(requests, (std::vector<int>{1, 1, 0, 0, 0})) << verb.span;
  }
}

TEST(RetryingKvStoreTest, BreakerShortCircuitKeepsTheWholeBatchPending) {
  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 3600 * kMicrosPerSecond;
  Harness h(common::RetryPolicy(), breaker);
  // The only call that reaches the store commits 2 of 5 and fails; the
  // breaker then opens and every later attempt is short-circuited.
  h.store.script = {Step{Status::Unavailable("down"), 2}};
  std::vector<Item> left;
  const std::vector<Item> items = MakeItems(5);
  const Status status = h.retrying.BatchPut(h.agent, "t", items, &left);
  EXPECT_EQ(status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(h.store.calls, 1);
  EXPECT_EQ(RangeKeys(left), (std::vector<std::string>{"r2", "r3", "r4"}));
  EXPECT_EQ(h.meter.usage().ddb_write_units, 2.0);
  EXPECT_EQ(h.meter.usage().breaker_short_circuits, 4u);
}

// Each round re-submits only what has not committed: the bounced suffix
// after a partial success, the uncommitted suffix after a page error.
// Every item's write unit is paid exactly once.
TEST(RetryingKvStoreTest, BatchPutResubmitsOnlyTheUnprocessedSuffix) {
  Harness h;
  h.store.script = {Step{Status::OK(), 6},
                    Step{Status::Unavailable("page error"), 2},
                    Step{Status::OK()}};
  const std::vector<Item> items = MakeItems(10);
  std::vector<Item> left = MakeItems(1);  // cleared on entry
  ASSERT_TRUE(h.retrying.BatchPut(h.agent, "t", items, &left).ok());
  EXPECT_TRUE(left.empty());
  EXPECT_EQ(h.store.batch_sizes, (std::vector<size_t>{10, 4, 2}));
  EXPECT_EQ(h.store.committed, RangeKeys(items));
  EXPECT_EQ(h.meter.usage().ddb_write_units, 10.0);
  EXPECT_EQ(h.meter.usage().ddb_put_requests, 3u);
  EXPECT_EQ(h.meter.usage().retried_requests, 2u);
  EXPECT_EQ(h.Attempts("attempt.batch_put"), (std::vector<int>{1, 2, 3}));
  // A partial success is not an error; the page error is.
  EXPECT_EQ(h.Errors("attempt.batch_put"), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(h.Counter("cloud.retry.attempts.count"), 3u);
}

// BatchPut borrows its input: a sub-span of a larger vector is all that
// is submitted, stored and billed, and the survivors handed back are
// exactly the sub-span's bounced items.
TEST(RetryingKvStoreTest, BatchPutStoresOnlyTheSubSpan) {
  common::RetryPolicy policy;
  policy.max_attempts = 2;
  const std::vector<Item> items = MakeItems(10);
  const std::span<const Item> page = std::span(items).subspan(3, 5);
  {
    Harness h(policy);
    h.store.script = {Step{Status::OK(), 2},
                      Step{Status::Unavailable("page error"), 1}};
    std::vector<Item> left;
    const Status status = h.retrying.BatchPut(h.agent, "t", page, &left);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(h.store.batch_sizes, (std::vector<size_t>{5, 3}));
    EXPECT_EQ(h.store.committed,
              (std::vector<std::string>{"r3", "r4", "r5"}));
    EXPECT_EQ(h.meter.usage().ddb_write_units, 3.0);
    EXPECT_EQ(h.meter.usage().ddb_put_requests, 2u);
    EXPECT_EQ(RangeKeys(left), (std::vector<std::string>{"r6", "r7"}));
  }
  // An open breaker attempts nothing: the whole sub-span, and only it,
  // comes back.
  {
    CircuitBreakerConfig breaker;
    breaker.failure_threshold = 1;
    breaker.cooldown = 3600 * kMicrosPerSecond;
    Harness h(policy, breaker);
    h.store.script = {Step{Status::Unavailable("down"), 0}};
    std::vector<Item> left;
    (void)h.retrying.BatchPut(h.agent, "t", MakeItems(1), &left);
    const Status status = h.retrying.BatchPut(h.agent, "t", page, &left);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(h.store.calls, 1);
    EXPECT_TRUE(h.store.committed.empty());
    EXPECT_EQ(RangeKeys(left),
              (std::vector<std::string>{"r3", "r4", "r5", "r6", "r7"}));
  }
}

TEST(RetryingKvStoreTest, BatchPutWithoutSinkStillDrains) {
  Harness h;
  h.store.script = {Step{Status::Unavailable("page error"), 3}};
  const std::vector<Item> items = MakeItems(5);
  ASSERT_TRUE(h.retrying.BatchPut(h.agent, "t", items, nullptr).ok());
  EXPECT_EQ(h.store.batch_sizes, (std::vector<size_t>{5, 2}));
  EXPECT_EQ(h.store.committed, RangeKeys(items));
}

// An organic throttle names when capacity frees up: the retry sleeps
// exactly that long, never a jittered amount.
TEST(RetryingKvStoreTest, RetryAfterHintIsSleptExactly) {
  constexpr int64_t kHint = 123'456;
  for (const Verb& verb : AllVerbs()) {
    Harness h;
    h.store.script = {Step{Status::ResourceExhausted("throttled", kHint), 0}};
    ASSERT_TRUE(verb.call(h).ok()) << verb.span;
    EXPECT_EQ(h.agent.now(), 2 * kLatency + kHint) << verb.span;
    EXPECT_EQ(h.meter.usage().retried_requests, 1u) << verb.span;
  }
}

TEST(RetryingKvStoreTest, DeadlineExitReturnsSurvivors) {
  common::RetryPolicy policy;
  policy.initial_backoff_micros = 1'000'000'000;
  policy.max_backoff_micros = 1'000'000'000;
  policy.deadline_micros = 1;
  const std::vector<Item> items = MakeItems(10);

  // Partial success, then the next backoff would overrun the budget.
  {
    Harness h(policy);
    h.store.script = {Step{Status::OK(), 7}};
    std::vector<Item> left;
    const Status status = h.retrying.BatchPut(h.agent, "t", items, &left);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(RangeKeys(left), (std::vector<std::string>{"r7", "r8", "r9"}));
    EXPECT_EQ(h.store.calls, 1);
    EXPECT_EQ(h.agent.now(), kLatency);
    EXPECT_EQ(h.meter.usage().retried_requests, 0u);
  }
  // Transient page error: its status comes back with the uncommitted
  // suffix.
  {
    Harness h(policy);
    h.store.script = {Step{Status::Unavailable("page error"), 4}};
    std::vector<Item> left;
    const Status status = h.retrying.BatchPut(h.agent, "t", items, &left);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(status.message(), "page error");
    EXPECT_EQ(left.size(), 6u);
    EXPECT_EQ(left.front().range_key, "r4");
    EXPECT_EQ(h.store.calls, 1);
  }
  // A hint past the budget is not slept either.
  {
    policy.initial_backoff_micros = 0;
    policy.deadline_micros = 500;
    Harness h(policy);
    h.store.script = {Step{Status::ResourceExhausted("throttled", 1'000), 0}};
    auto result = h.retrying.BatchGet(h.agent, "t", {"k"});
    EXPECT_EQ(result.status().code(), Status::Code::kResourceExhausted);
    EXPECT_EQ(h.agent.now(), kLatency);
  }
}

TEST(RetryingKvStoreTest, MaxAttemptExitReturnsSurvivors) {
  common::RetryPolicy policy;
  policy.max_attempts = 3;
  const std::vector<Item> items = MakeItems(10);

  // Every round bounces the last item: after three rounds it survives.
  {
    Harness h(policy);
    h.store.script = {Step{Status::OK(), 9}, Step{Status::OK(), 0},
                      Step{Status::OK(), 0}};
    std::vector<Item> left;
    const Status status = h.retrying.BatchPut(h.agent, "t", items, &left);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(RangeKeys(left), (std::vector<std::string>{"r9"}));
    EXPECT_EQ(h.store.batch_sizes, (std::vector<size_t>{10, 1, 1}));
    EXPECT_EQ(h.meter.usage().ddb_write_units, 9.0);
    EXPECT_EQ(h.meter.usage().retried_requests, 2u);
    EXPECT_EQ(h.Counter("cloud.retry.attempts.count"), 3u);
  }
  // The last round fails outright: its status and suffix come back.
  {
    Harness h(policy);
    h.store.script = {Step{Status::OK(), 5}, Step{Status::OK(), 2},
                      Step{Status::Unavailable("page error"), 1}};
    std::vector<Item> left;
    const Status status = h.retrying.BatchPut(h.agent, "t", items, &left);
    EXPECT_EQ(status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(status.message(), "page error");
    EXPECT_EQ(RangeKeys(left), (std::vector<std::string>{"r8", "r9"}));
    EXPECT_EQ(h.meter.usage().ddb_write_units, 8.0);
  }
  // A permanent error ends the loop at once, survivors included.
  {
    Harness h(policy);
    h.store.script = {Step{Status::OK(), 5},
                      Step{Status::InvalidArgument("bad item"), 1}};
    std::vector<Item> left;
    const Status status = h.retrying.BatchPut(h.agent, "t", items, &left);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(left.size(), 4u);
    EXPECT_EQ(h.store.calls, 2);
  }
}

// Jitter comes from per-(operation, table) streams: the same script on a
// fresh decorator with the same seed sleeps the same schedule, pinned to
// the virtual microsecond so a change in the draws cannot pass unseen.
TEST(RetryingKvStoreTest, BackoffScheduleIsDeterministic) {
  auto run = [] {
    Harness h;
    for (int i = 0; i < 4; ++i) {
      h.store.script.push_back(Step{Status::Unavailable("blip"), 1});
    }
    std::vector<Item> left;
    EXPECT_TRUE(h.retrying.BatchPut(h.agent, "t", MakeItems(5), &left).ok());
    EXPECT_TRUE(h.retrying.Scan(h.agent, "u").ok());
    return h.agent.now();
  };
  const Micros first = run();
  EXPECT_EQ(first, 611'185);
  EXPECT_EQ(run(), first);
}

}  // namespace
}  // namespace webdex::cloud
