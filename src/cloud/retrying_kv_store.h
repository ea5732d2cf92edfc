#ifndef WEBDEX_CLOUD_RETRYING_KV_STORE_H_
#define WEBDEX_CLOUD_RETRYING_KV_STORE_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
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

/// The one retry loop of every cloud call (docs/FAULTS.md): the index
/// store's verbs (RetryingKvStore) and the warehouse's S3/SQS calls
/// (engine::Warehouse::RetryCall) both run through a Retrier.
///
/// A call names a stream key, a span name and optionally a resource:
///   * jitter is drawn from a deterministic `Rng::ForKey(seed, key)`
///     stream per key, keeping schedules independent of host-thread
///     interleaving;
///   * every try is one `attempt.<op>` span (`span_name`, carrying the
///     Usage it metered and an `attempt` attr counting from 1) and one
///     `cloud.retry.attempts.count` bump;
///   * backoff sleeps advance the calling agent's virtual clock, so
///     retries honestly lengthen makespans and EC2 bills, and each one
///     counts in Usage::retried_requests.
///
/// When the call names a resource, every attempt is gated on the
/// retrier's `CircuitBreaker`: an open breaker fails the attempt fast
/// with an *unbilled* kUnavailable (no request reaches the service),
/// while the backoff between attempts still advances virtual time —
/// which is exactly what lets the breaker's cooldown lapse and half-open
/// probes go through mid-retry-loop.  Only retriable outcomes count
/// against a resource's health; a NotFound proves the service is up.  A
/// call that names no resource is never gated.
class Retrier {
 public:
  /// The key of a jitter stream: `prefix` then `suffix`, e.g.
  /// "retry:delete:" and a table name.
  struct StreamKey {
    std::string_view prefix;
    std::string_view suffix;
  };

  Retrier(const common::RetryPolicy& policy, uint64_t seed, UsageMeter& meter,
          CircuitBreaker& breaker, common::MetricRegistry& metrics,
          common::Tracer& tracer);

  /// Runs `fn` (returning Status or Result<T>) under the policy, one
  /// attempt span per try, jittered from the stream keyed `key`.  Each
  /// attempt's outcome passes through `settle` after the attempt's span
  /// and breaker record have closed, and the loop retries on what
  /// `settle` returns: BatchPut turns a partial success into a retriable
  /// error this way without charging it to the breaker.
  template <typename Fn, typename Settle = std::identity>
  auto Call(SimAgent& agent, StreamKey key, std::string_view span_name,
            std::string_view resource, const Fn& fn,
            const Settle& settle = {}) -> decltype(fn()) {
    int attempt = 0;
    return common::CallWithRetry(
        policy_, StreamFor(key),
        [&] {
          return settle(Attempt(agent, span_name, ++attempt, resource, fn));
        },
        [&agent](int64_t micros) {
          agent.Advance(static_cast<Micros>(micros));
        },
        &meter_.mutable_usage().retried_requests);
  }

 private:
  Rng& StreamFor(const StreamKey& key);

  /// One try: the span, the attempts bump, the breaker gate on
  /// `resource` (when named), `fn`, and the breaker record.
  template <typename Fn>
  auto Attempt(SimAgent& agent, std::string_view span_name, int attempt,
               std::string_view resource, const Fn& fn) -> decltype(fn()) {
    MeteredSpan span(tracer_, meter_, agent, span_name);
    span.AddAttr("attempt", attempt);
    attempts_metric_.Add(1);
    const bool gated = !resource.empty();
    if (gated) {
      Status gate = breaker_.Allow(resource, agent.now());
      if (!gate.ok()) {
        span.AddAttr("error", 1);
        return gate;
      }
    }
    auto outcome = fn();
    const Status& status = common::StatusOf(outcome);
    if (gated) {
      // Only retriable outcomes count against the resource's health.
      if (status.ok() || !status.IsRetriable()) {
        breaker_.RecordSuccess(resource);
      } else {
        breaker_.RecordFailure(resource, agent.now());
      }
    }
    if (!status.ok()) span.AddAttr("error", 1);
    return outcome;
  }

  common::RetryPolicy policy_;
  uint64_t seed_;
  UsageMeter& meter_;
  CircuitBreaker& breaker_;
  common::Tracer& tracer_;
  common::Counter& attempts_metric_;
  std::map<std::string, Rng, std::less<>> streams_;
  /// StreamFor's key, spelled into one reused buffer, so a look-up
  /// allocates nothing once the buffer has grown.
  std::string key_;
};

/// KvStore decorator that gives every caller the AWS-SDK retry behaviour:
/// transient errors (kUnavailable / kResourceExhausted) are re-attempted
/// under capped exponential backoff with full jitter, and BatchPut
/// unprocessed-items suffixes are re-batched until they drain or the
/// policy is exhausted (docs/FAULTS.md).  Each verb is one Retrier call
/// with the table as the breaker resource, jittered from the stream keyed
/// `retry:<op>:<table>`.
///
/// The capability queries, accounting and host-side tooling pass straight
/// through ForwardingKvStore (they are pure), so the decorator is safe to
/// hand to the host-parallel extraction pipeline wherever the raw store
/// was.
class RetryingKvStore final : public ForwardingKvStore {
 public:
  RetryingKvStore(KvStore* base, const common::RetryPolicy& policy,
                  uint64_t seed, UsageMeter& meter, CircuitBreaker& breaker,
                  common::MetricRegistry& metrics, common::Tracer& tracer);

  /// Routed through the retrier like the data-plane verbs: transient
  /// create faults are retried under the breaker-gated backoff schedule
  /// instead of bypassing the whole resilience stack.  AlreadyExists is
  /// terminal, not retriable.
  Status CreateTable(SimAgent& agent, const std::string& table) override;
  /// Retries transient page errors and re-batches unprocessed items.  If
  /// items still remain after max_attempts rounds, returns kUnavailable
  /// with the survivors in `*unprocessed` (when non-null) so the caller
  /// can decide between abandoning the task and dead-lettering it.
  Status BatchPutViews(SimAgent& agent, const std::string& table,
                       std::span<const ItemView> items,
                       std::vector<ItemView>* unprocessed = nullptr) override;
  Result<std::vector<ItemView>> BatchGetViews(
      SimAgent& agent, const std::string& table,
      const std::vector<std::string>& hash_keys) override;
  Status Scan(SimAgent& agent, const std::string& table,
              const ScanVisitor& visit) override;
  Status DeleteItem(SimAgent& agent, const std::string& table,
                    const std::string& hash_key,
                    const std::string& range_key) override;

 private:
  Retrier retrier_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_RETRYING_KV_STORE_H_
