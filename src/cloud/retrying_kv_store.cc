#include "cloud/retrying_kv_store.h"

namespace webdex::cloud {

RetryingKvStore::RetryingKvStore(KvStore* base,
                                 const common::RetryPolicy& policy,
                                 uint64_t seed, UsageMeter* meter,
                                 CircuitBreaker* breaker,
                                 common::MetricRegistry* metrics,
                                 common::Tracer* tracer)
    : base_(base),
      policy_(policy),
      seed_(seed),
      meter_(meter),
      breaker_(breaker),
      tracer_(tracer),
      attempts_metric_(metrics == nullptr ? nullptr
                                          : metrics->GetCounter(
                                                "cloud.retry.attempts.count")),
      retries_metric_(metrics == nullptr ? nullptr
                                         : metrics->GetCounter(
                                               "cloud.retry.retries.count")) {}

Rng& RetryingKvStore::StreamFor(const std::string& site) {
  auto it = streams_.find(site);
  if (it == streams_.end()) {
    it = streams_.emplace(site, Rng::ForKey(seed_, site)).first;
  }
  return it->second;
}

uint64_t* RetryingKvStore::RetryCounter() {
  return meter_ == nullptr ? nullptr
                           : &meter_->mutable_usage().retried_requests;
}

void RetryingKvStore::Backoff(SimAgent& agent, int64_t micros) {
  agent.Advance(static_cast<Micros>(micros));
  if (retries_metric_ != nullptr) retries_metric_->Add(1);
}

template <typename Call>
auto RetryingKvStore::Attempt(SimAgent& agent, const char* span_name,
                              int attempt, const std::string& table,
                              const Call& call) -> decltype(call()) {
  MeteredSpan span(tracer_, meter_, agent, span_name);
  span.AddAttr("attempt", attempt);
  if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
  if (breaker_ != nullptr) {
    Status gate = breaker_->Allow(table, agent.now());
    if (!gate.ok()) {
      span.AddAttr("error", 1);
      return gate;
    }
  }
  auto outcome = call();
  const Status& status = common::StatusOf(outcome);
  if (breaker_ != nullptr) {
    // Only retriable outcomes count against the table's health.
    if (status.ok() || !status.IsRetriable()) {
      breaker_->RecordSuccess(table);
    } else {
      breaker_->RecordFailure(table, agent.now());
    }
  }
  if (!status.ok()) span.AddAttr("error", 1);
  return outcome;
}

template <typename Call>
auto RetryingKvStore::Retry(SimAgent& agent, const char* site,
                            const char* span_name, const std::string& table,
                            const Call& call) -> decltype(call()) {
  int attempt = 0;
  return common::CallWithRetry(
      policy_, StreamFor(site + table),
      [&] { return Attempt(agent, span_name, ++attempt, table, call); },
      [&](int64_t micros) { Backoff(agent, micros); }, RetryCounter());
}

Status RetryingKvStore::CreateTable(SimAgent& agent,
                                    const std::string& table) {
  return Retry(agent, "retry:createtable:", "attempt.create_table", table,
               [&] { return base_->CreateTable(agent, table); });
}

bool RetryingKvStore::HasTable(const std::string& table) const {
  return base_->HasTable(table);
}

Status RetryingKvStore::BatchPut(SimAgent& agent, const std::string& table,
                                 const std::vector<Item>& items,
                                 std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  // Each round re-submits only what has not committed yet: re-batched
  // unprocessed items after a partial success, or the uncommitted suffix
  // after a transient page error.  Re-puts of committed items are
  // harmless anyway (replacement semantics, UUID range keys) — this just
  // avoids paying their write units twice.  A breaker short-circuit
  // leaves the batch as it was: nothing was attempted or billed.
  const std::vector<Item>* batch = &items;
  std::vector<Item> pending;
  std::vector<Item> leftover;
  int attempt = 0;
  const Status status = common::CallWithRetry(
      policy_, StreamFor("retry:batchput:" + table),
      [&]() -> Status {
        WEBDEX_RETURN_IF_ERROR(
            Attempt(agent, "attempt.batch_put", ++attempt, table, [&] {
              Status put = base_->BatchPut(agent, table, *batch, &leftover);
              pending = std::move(leftover);
              leftover.clear();
              batch = &pending;
              return put;
            }));
        if (batch->empty()) return Status::OK();
        // A partial success is retried like a transient error.
        return Status::Unavailable(
            "unprocessed items remain after re-batching: " + table);
      },
      [&](int64_t micros) { Backoff(agent, micros); }, RetryCounter());
  if (!status.ok() && unprocessed != nullptr) {
    *unprocessed = batch == &items ? items : std::move(pending);
  }
  return status;
}

Result<std::vector<Item>> RetryingKvStore::Get(SimAgent& agent,
                                               const std::string& table,
                                               const std::string& hash_key) {
  return Retry(agent, "retry:get:", "attempt.get", table,
               [&] { return base_->Get(agent, table, hash_key); });
}

Result<std::vector<Item>> RetryingKvStore::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  return Retry(agent, "retry:batchget:", "attempt.batch_get", table,
               [&] { return base_->BatchGet(agent, table, hash_keys); });
}

Result<std::vector<Item>> RetryingKvStore::Scan(SimAgent& agent,
                                               const std::string& table) {
  return Retry(agent, "retry:scan:", "attempt.scan", table,
               [&] { return base_->Scan(agent, table); });
}

Status RetryingKvStore::DeleteItem(SimAgent& agent, const std::string& table,
                                   const std::string& hash_key,
                                   const std::string& range_key) {
  return Retry(agent, "retry:delete:", "attempt.delete_item", table, [&] {
    return base_->DeleteItem(agent, table, hash_key, range_key);
  });
}

}  // namespace webdex::cloud
