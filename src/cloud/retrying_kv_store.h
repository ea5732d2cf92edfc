#ifndef WEBDEX_CLOUD_RETRYING_KV_STORE_H_
#define WEBDEX_CLOUD_RETRYING_KV_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "cloud/circuit_breaker.h"
#include "cloud/kv_store.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// KvStore decorator that gives every caller the AWS-SDK retry behaviour:
/// transient errors (kUnavailable / kResourceExhausted) are re-attempted
/// under capped exponential backoff with full jitter, and BatchPut
/// unprocessed-items suffixes are re-batched until they drain or the
/// policy is exhausted (docs/FAULTS.md).
///
/// Backoff sleeps advance the calling agent's virtual clock, so retries
/// honestly lengthen makespans and EC2 bills.  Jitter is drawn from
/// deterministic per-(operation, table) `Rng::ForKey` streams, keeping
/// schedules independent of host-thread interleaving.
///
/// When a `CircuitBreaker` is attached, every attempt is gated per table:
/// an open breaker fails the attempt fast with an *unbilled* kUnavailable
/// (no request reaches the store), while the backoff between attempts
/// still advances virtual time — which is exactly what lets the breaker's
/// cooldown lapse and half-open probes go through mid-retry-loop.  Only
/// retriable outcomes count against a table's health; a NotFound proves
/// the service is up.
///
/// The capability queries forward straight to the wrapped store (they are
/// pure), so the decorator is safe to hand to the host-parallel extraction
/// pipeline wherever the raw store was.
class RetryingKvStore final : public KvStore {
 public:
  /// `breaker` may be null (no breaker gating).  `metrics` mirrors
  /// attempt/retry counts under `cloud.retry.*`; `tracer` (when enabled)
  /// records one `attempt.<op>` span per attempt, each carrying its own
  /// metered Usage delta.  Both may be null.
  RetryingKvStore(KvStore* base, const common::RetryPolicy& policy,
                  uint64_t seed, UsageMeter* meter,
                  CircuitBreaker* breaker = nullptr,
                  common::MetricRegistry* metrics = nullptr,
                  common::Tracer* tracer = nullptr);

  RetryingKvStore(const RetryingKvStore&) = delete;
  RetryingKvStore& operator=(const RetryingKvStore&) = delete;

  /// Routed through CallWithRetry like the data-plane verbs: transient
  /// create faults are retried under the breaker-gated backoff schedule
  /// instead of bypassing the whole resilience stack (the pre-refactor
  /// bug this fixes).  AlreadyExists is terminal, not retriable.
  Status CreateTable(SimAgent& agent, const std::string& table) override;
  bool HasTable(const std::string& table) const override;
  /// Retries transient page errors and re-batches unprocessed items.  If
  /// items still remain after max_attempts rounds, returns kUnavailable
  /// with the survivors in `*unprocessed` (when non-null) so the caller
  /// can decide between abandoning the task and dead-lettering it.
  Status BatchPut(SimAgent& agent, const std::string& table,
                  const std::vector<Item>& items,
                  std::vector<Item>* unprocessed = nullptr) override;
  Result<std::vector<Item>> Get(SimAgent& agent, const std::string& table,
                                const std::string& hash_key) override;
  Result<std::vector<Item>> BatchGet(
      SimAgent& agent, const std::string& table,
      const std::vector<std::string>& hash_keys) override;
  Result<std::vector<Item>> Scan(SimAgent& agent,
                                const std::string& table) override;
  Status DeleteItem(SimAgent& agent, const std::string& table,
                    const std::string& hash_key,
                    const std::string& range_key) override;

  const char* Name() const override { return base_->Name(); }
  uint64_t MaxItemBytes() const override { return base_->MaxItemBytes(); }
  uint64_t MaxValueBytes() const override { return base_->MaxValueBytes(); }
  bool SupportsBinaryValues() const override {
    return base_->SupportsBinaryValues();
  }
  int BatchPutLimit() const override { return base_->BatchPutLimit(); }
  int BatchGetLimit() const override { return base_->BatchGetLimit(); }
  uint64_t MaxValuesPerItem() const override {
    return base_->MaxValuesPerItem();
  }

  uint64_t StoredBytes(const std::string& table) const override {
    return base_->StoredBytes(table);
  }
  uint64_t OverheadBytes(const std::string& table) const override {
    return base_->OverheadBytes(table);
  }
  uint64_t ItemCount(const std::string& table) const override {
    return base_->ItemCount(table);
  }
  std::vector<std::string> TableNames() const override {
    return base_->TableNames();
  }
  void ForEachItem(
      const std::function<void(const std::string&, const Item&)>& fn)
      const override {
    base_->ForEachItem(fn);
  }
  void RestoreItem(const std::string& table, const Item& item) override {
    base_->RestoreItem(table, item);
  }
  Status RestoreTable(const std::string& table) override {
    return base_->RestoreTable(table);
  }
  bool Empty() const override { return base_->Empty(); }

  const common::RetryPolicy& policy() const { return policy_; }
  CircuitBreaker* breaker() const { return breaker_; }

 private:
  Rng& StreamFor(const std::string& site);
  uint64_t* RetryCounter();
  /// One backoff sleep between attempts: advances `agent`'s clock.
  void Backoff(SimAgent& agent, int64_t micros);
  /// One attempt of any verb: an `attempt.<op>` span (`span_name`), the
  /// breaker gate on `table`, the base `call`, and the breaker record.
  template <typename Call>
  auto Attempt(SimAgent& agent, const char* span_name, int attempt,
               const std::string& table, const Call& call)
      -> decltype(call());
  /// `call` under CallWithRetry, one Attempt per try, jittered from the
  /// stream keyed `site + table`.
  template <typename Call>
  auto Retry(SimAgent& agent, const char* site, const char* span_name,
             const std::string& table, const Call& call) -> decltype(call());

  KvStore* base_;
  common::RetryPolicy policy_;
  uint64_t seed_;
  UsageMeter* meter_;
  CircuitBreaker* breaker_;
  common::Tracer* tracer_ = nullptr;
  common::Counter* attempts_metric_ = nullptr;
  common::Counter* retries_metric_ = nullptr;
  std::map<std::string, Rng, std::less<>> streams_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_RETRYING_KV_STORE_H_
