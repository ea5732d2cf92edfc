#ifndef WEBDEX_CLOUD_FAULT_H_
#define WEBDEX_CLOUD_FAULT_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/sim.h"
#include "cloud/usage.h"
#include "common/rng.h"
#include "common/status.h"

namespace webdex::cloud {

/// Where the engine may simulate a worker crash (generalizing the old
/// crash-before-delete test hook; see docs/FAULTS.md).
enum class CrashPoint {
  /// After a task is fully processed but before its queue message is
  /// deleted: the classic lost-ack, the lease expires and the task is
  /// redone elsewhere (paper Section 3).
  kBeforeDelete,
  /// Between two pages of an index-store BatchPut: the crash leaves a
  /// half-written index that a redelivery must converge despite.
  kBetweenBatchPutPages,
  /// Between two documents of a compaction pass: the pass dies with its
  /// cursor checkpointed at the last completed URI, and a resumed pass
  /// must converge from there (engine/maintenance.h, docs/MUTABILITY.md).
  kMidCompaction,
};

const char* CrashPointName(CrashPoint point);

/// The fault-injectable simulated services.  Used to select a
/// ServiceFaults profile from the plan and to scope OutageWindows.
enum class ServiceId {
  kS3,
  kDynamoDb,
  kSimpleDb,
  kSqs,
};

const char* ServiceIdName(ServiceId service);

/// Fault profile of one simulated service.  Probabilities are per API
/// attempt; fields irrelevant to a service are simply ignored (e.g. only
/// DynamoDB consults unprocessed_probability, only SQS the duplicate and
/// delay knobs).
struct ServiceFaults {
  /// Probability that an attempt fails outright with a transient error.
  double error_probability = 0;
  /// Fraction of those errors reported as throttling
  /// (kResourceExhausted); the rest are 5xx-style kUnavailable.
  double throttle_share = 0.5;
  /// DynamoDB batch writes: probability that a page succeeds but returns
  /// an unprocessed-items suffix the client must re-batch.
  double unprocessed_probability = 0;
  /// SQS receive: probability a delivery stays immediately deliverable
  /// again (at-least-once duplicate; the first receipt turns stale).
  double duplicate_probability = 0;
  /// SQS send: probability the message only becomes visible after a
  /// uniform delay in (0, max_delay].
  double delay_probability = 0;
  Micros max_delay = 0;

  bool Any() const {
    return error_probability > 0 || unprocessed_probability > 0 ||
           duplicate_probability > 0 || delay_probability > 0;
  }
};

/// Probabilities of the plan-driven crash points, evaluated per task (the
/// stream is keyed by the queue-message body, so a given task crashes at
/// the same points no matter which instance or delivery runs it).
/// kMidCompaction has none: only WarehouseConfig::crash_plan drives it.
struct CrashFaults {
  double before_delete_probability = 0;
  double between_batch_put_pages_probability = 0;

  bool Any() const {
    return before_delete_probability > 0 ||
           between_batch_put_pages_probability > 0;
  }
};

/// A sustained outage: one service failing (hard, by default) over a
/// half-open virtual-time interval [start, end).  Unlike the per-attempt
/// transient knobs above, an outage persists past any retry budget — the
/// brownout that forces circuit breakers open and queries onto the
/// degraded scan path (docs/FAULTS.md).
struct OutageWindow {
  ServiceId service = ServiceId::kDynamoDb;
  Micros start = 0;
  Micros end = 0;
  /// Probability an attempt inside the window fails (default: all do).
  double error_probability = 1.0;
  /// Share of those failures reported as throttling (kResourceExhausted);
  /// the rest are kUnavailable.  Extremes skip the coin flip so a hard
  /// outage never advances the site's random stream.
  double throttle_share = 1.0;

  bool Active(Micros now) const { return now >= start && now < end; }
};

/// The complete chaos schedule of a simulated cloud.  Default-constructed
/// plans inject nothing, keeping every existing run bit-identical.
struct FaultPlan {
  /// Mixed with CloudConfig::seed: two runs with the same cloud seed but
  /// different plan seeds see different fault schedules.
  uint64_t seed = 1;
  ServiceFaults s3;
  ServiceFaults dynamodb;
  ServiceFaults simpledb;
  ServiceFaults sqs;
  CrashFaults crash;
  std::vector<OutageWindow> outages;

  const ServiceFaults& Faults(ServiceId service) const;

  bool Any() const {
    return s3.Any() || dynamodb.Any() || simpledb.Any() || sqs.Any() ||
           crash.Any() || !outages.empty();
  }
};

/// Deterministic transient-fault source shared by the simulated services.
///
/// Determinism contract: every decision is drawn from an `Rng::ForKey`
/// stream pinned to a *site key* (operation + resource, e.g.
/// "ddb.batchput:LU-table"), never from execution order of unrelated
/// calls.  Sustained outages additionally consult the caller's virtual
/// clock, which is itself deterministic.  All injection happens on the
/// event-loop thread (pooled host threads never touch simulated
/// services), so the fault schedule — and therefore bills and makespans —
/// is identical for host_threads == 1 and host_threads == N, and
/// independent of host-thread interleaving.
///
/// Billing contract: the injector only decides; the calling service bills
/// the failed attempt exactly like a successful request round trip
/// (request counters + latency) minus any data-proportional effects
/// (bytes, capacity units) — matching AWS, where throttled requests
/// consume no capacity but retried attempts still cost requests and time.
class FaultInjector {
 public:
  /// One saved per-site stream cursor (cloud/snapshot.cc).
  using StreamState = std::pair<std::string, std::array<uint64_t, 4>>;

  FaultInjector(const FaultPlan& plan, uint64_t base_seed, UsageMeter& meter);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return enabled_; }

  /// Returns a transient error (kUnavailable or kResourceExhausted) with
  /// probability `error_probability` of the service's profile — or of an
  /// OutageWindow active at `now`, which takes precedence — OK otherwise.
  /// Increments Usage::faulted_requests when it fires.
  Status MaybeFail(ServiceId service, std::string_view site, Micros now);

  /// DynamoDB partial batch failure: how many trailing items of a
  /// `page_size`-item page come back unprocessed (0 = whole page stored).
  size_t UnprocessedCount(ServiceId service, std::string_view site,
                          size_t page_size);

  /// SQS at-least-once duplicate: leave the message deliverable although
  /// it was just handed out.
  bool ShouldDuplicate(ServiceId service, std::string_view site);

  /// SQS delayed delivery: extra visibility delay for a sent message.
  Micros DeliveryDelay(ServiceId service, std::string_view site);

  /// Plan-driven crash decision for the engine's crash points, keyed by
  /// the task's queue-message body.
  bool ShouldCrash(CrashPoint point, std::string_view task_key);

  /// Snapshot support: the per-site stream cursors in site-key order.
  /// Restoring them makes a resumed run draw the identical continuation
  /// of every fault schedule (cloud/snapshot.cc, docs/FAULTS.md).
  std::vector<StreamState> SaveStreams() const;
  void RestoreStreams(const std::vector<StreamState>& streams);

 private:
  Rng& StreamFor(std::string_view site);

  FaultPlan plan_;
  uint64_t base_seed_;
  UsageMeter& meter_;
  bool enabled_;
  std::map<std::string, Rng, std::less<>> streams_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_FAULT_H_
