#include "cloud/retrying_kv_store.h"

namespace webdex::cloud {

Retrier::Retrier(const common::RetryPolicy& policy, uint64_t seed,
                 UsageMeter& meter, CircuitBreaker& breaker,
                 common::MetricRegistry& metrics, common::Tracer& tracer)
    : policy_(policy),
      seed_(seed),
      meter_(meter),
      breaker_(breaker),
      tracer_(tracer),
      attempts_metric_(*metrics.GetCounter("cloud.retry.attempts.count")) {}

Rng& Retrier::StreamFor(const StreamKey& key) {
  key_.assign(key.prefix);
  key_ += key.suffix;
  auto it = streams_.find(key_);
  if (it == streams_.end()) {
    it = streams_.emplace(key_, Rng::ForKey(seed_, key_)).first;
  }
  return it->second;
}

RetryingKvStore::RetryingKvStore(KvStore* base,
                                 const common::RetryPolicy& policy,
                                 uint64_t seed, UsageMeter& meter,
                                 CircuitBreaker& breaker,
                                 common::MetricRegistry& metrics,
                                 common::Tracer& tracer)
    : ForwardingKvStore(base),
      retrier_(policy, seed, meter, breaker, metrics, tracer) {}

Status RetryingKvStore::CreateTable(SimAgent& agent,
                                    const std::string& table) {
  return retrier_.Call(agent, {"retry:createtable:", table},
                       "attempt.create_table", table,
                       [&] { return base_->CreateTable(agent, table); });
}

Status RetryingKvStore::BatchPutViews(SimAgent& agent,
                                      const std::string& table,
                                      std::span<const ItemView> items,
                                      std::vector<ItemView>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  // Each round re-submits only what has not committed yet: re-batched
  // unprocessed items after a partial success, or the uncommitted suffix
  // after a transient page error.  Re-puts of committed items are
  // harmless anyway (replacement semantics, UUID range keys) — this just
  // avoids paying their write units twice.  A breaker short-circuit
  // leaves the batch as it was: nothing was attempted or billed.  The
  // rounds pass views of the caller's bytes, never copies of its items.
  std::span<const ItemView> batch = items;
  std::vector<ItemView> pending;
  std::vector<ItemView> leftover;
  bool attempted = false;
  const Status status = retrier_.Call(
      agent, {"retry:batchput:", table}, "attempt.batch_put", table,
      [&] {
        Status put = base_->BatchPutViews(agent, table, batch, &leftover);
        pending.swap(leftover);
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
    if (attempted) {
      *unprocessed = std::move(pending);
    } else {
      unprocessed->assign(items.begin(), items.end());
    }
  }
  return status;
}

Result<std::vector<ItemView>> RetryingKvStore::BatchGetViews(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  return retrier_.Call(
      agent, {"retry:batchget:", table}, "attempt.batch_get", table,
      [&] { return base_->BatchGetViews(agent, table, hash_keys); });
}

Status RetryingKvStore::Scan(SimAgent& agent, const std::string& table,
                             const ScanVisitor& visit) {
  // The store visits only after a whole successful call, so no item is
  // visited by an attempt that is then retried.
  return retrier_.Call(agent, {"retry:scan:", table}, "attempt.scan", table,
                       [&] { return base_->Scan(agent, table, visit); });
}

Status RetryingKvStore::DeleteItem(SimAgent& agent, const std::string& table,
                                   const std::string& hash_key,
                                   const std::string& range_key) {
  return retrier_.Call(
      agent, {"retry:delete:", table}, "attempt.delete_item", table,
      [&] { return base_->DeleteItem(agent, table, hash_key, range_key); });
}

}  // namespace webdex::cloud
