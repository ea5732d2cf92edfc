#include "cloud/retrying_kv_store.h"

namespace webdex::cloud {

Retrier::Retrier(const common::RetryPolicy& policy, uint64_t seed,
                 UsageMeter* meter, CircuitBreaker* breaker,
                 common::MetricRegistry* metrics, common::Tracer* tracer)
    : policy_(policy),
      seed_(seed),
      meter_(meter),
      breaker_(breaker),
      tracer_(tracer),
      attempts_metric_(metrics == nullptr ? nullptr
                                          : metrics->GetCounter(
                                                "cloud.retry.attempts.count")) {
}

Rng& Retrier::StreamFor(std::string_view key) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_.emplace(std::string(key), Rng::ForKey(seed_, key)).first;
  }
  return it->second;
}

RetryingKvStore::RetryingKvStore(KvStore* base,
                                 const common::RetryPolicy& policy,
                                 uint64_t seed, UsageMeter* meter,
                                 CircuitBreaker* breaker,
                                 common::MetricRegistry* metrics,
                                 common::Tracer* tracer)
    : ForwardingKvStore(base),
      retrier_(policy, seed, meter, breaker, metrics, tracer) {}

Status RetryingKvStore::CreateTable(SimAgent& agent,
                                    const std::string& table) {
  return retrier_.Call(agent, "retry:createtable:" + table,
                       "attempt.create_table", table,
                       [&] { return base_->CreateTable(agent, table); });
}

Status RetryingKvStore::BatchPut(SimAgent& agent, const std::string& table,
                                 std::span<const Item> items,
                                 std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  // Each round re-submits only what has not committed yet: re-batched
  // unprocessed items after a partial success, or the uncommitted suffix
  // after a transient page error.  Re-puts of committed items are
  // harmless anyway (replacement semantics, UUID range keys) — this just
  // avoids paying their write units twice.  A breaker short-circuit
  // leaves the batch as it was: nothing was attempted or billed.
  std::span<const Item> batch = items;
  std::vector<Item> pending;
  std::vector<Item> leftover;
  bool attempted = false;
  const Status status = retrier_.Call(
      agent, "retry:batchput:" + table, "attempt.batch_put", table,
      [&] {
        Status put = base_->BatchPut(agent, table, batch, &leftover);
        pending = std::move(leftover);
        leftover.clear();
        batch = pending;
        attempted = true;
        return put;
      },
      [&](Status put) {
        if (!put.ok() || batch.empty()) return put;
        // A partial success is retried like a transient error.
        return Status::Unavailable(
            "unprocessed items remain after re-batching: " + table);
      });
  if (!status.ok() && unprocessed != nullptr) {
    *unprocessed = attempted ? std::move(pending)
                             : std::vector<Item>(items.begin(), items.end());
  }
  return status;
}

Result<std::vector<Item>> RetryingKvStore::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  return retrier_.Call(
      agent, "retry:batchget:" + table, "attempt.batch_get", table,
      [&] { return base_->BatchGet(agent, table, hash_keys); });
}

Result<std::vector<Item>> RetryingKvStore::Scan(SimAgent& agent,
                                               const std::string& table) {
  return retrier_.Call(agent, "retry:scan:" + table, "attempt.scan", table,
                       [&] { return base_->Scan(agent, table); });
}

Status RetryingKvStore::DeleteItem(SimAgent& agent, const std::string& table,
                                   const std::string& hash_key,
                                   const std::string& range_key) {
  return retrier_.Call(
      agent, "retry:delete:" + table, "attempt.delete_item", table,
      [&] { return base_->DeleteItem(agent, table, hash_key, range_key); });
}

}  // namespace webdex::cloud
