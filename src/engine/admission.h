#ifndef WEBDEX_ENGINE_ADMISSION_H_
#define WEBDEX_ENGINE_ADMISSION_H_

#include <map>
#include <string>
#include <vector>

#include "cloud/sim.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/tracer.h"

namespace webdex::engine {

/// Engine-side admission control (docs/OVERLOAD.md): token buckets plus
/// an AIMD concurrency limiter gating the query processors, and
/// throttle-keyed backpressure for the extraction pipeline.  Everything
/// runs in virtual time, so decisions are deterministic and identical
/// for every host_threads value.
struct AdmissionConfig {
  /// Master switch.  false (default) admits everything untouched, so
  /// existing runs stay bit-identical.
  bool enabled = false;

  /// Global query token bucket: sustained queries/second and burst
  /// capacity.  rate <= 0 disables the global bucket.
  double global_rate = 0;
  double global_burst = 4;

  /// Per-tenant buckets (fairness): each distinct QueryRequest::tenant
  /// gets its own bucket, so one hot tenant exhausts its own tokens
  /// while cold tenants keep being admitted.  rate <= 0 disables.
  /// Untagged queries share the "" tenant.
  double per_tenant_rate = 0;
  double per_tenant_burst = 2;

  /// AIMD concurrency limiter over queries in flight (by virtual-time
  /// interval overlap).  The limit starts at `initial_concurrency`,
  /// grows by one per cleanly admitted query, and multiplies by
  /// `decrease_factor` whenever an admitted query observed an organic
  /// throttle — the classic additive-increase / multiplicative-decrease
  /// response to congestion.  initial <= 0 disables the limiter.
  int initial_concurrency = 0;
  int min_concurrency = 1;
  int max_concurrency = 64;
  double decrease_factor = 0.5;

  /// Per-query virtual-time deadline budget: how long a query may wait
  /// (deferred on bucket refills / slot frees) before it is shed with
  /// kOverloaded instead.  <= 0 sheds immediately when any gate is
  /// closed — pure load shedding, no queueing.
  cloud::Micros deadline_micros = 2'000'000;

  /// Extraction-pipeline backpressure: when the loader queue holds at
  /// least this many messages AND the cloud reported new organic
  /// throttles since the last poll, indexer polls defer by
  /// `backpressure_pause` instead of piling more writes onto a store
  /// that is already shedding.  0 disables.
  uint64_t backpressure_queue_depth = 0;
  cloud::Micros backpressure_pause = 200'000;
};

/// What the controller decided for one query.
struct AdmissionDecision {
  bool admitted = true;
  /// Virtual time the query waited in the admission gate before being
  /// admitted (0 when it sailed through or was shed).
  cloud::Micros waited = 0;
  /// kOverloaded when shed; OK when admitted.
  Status status = Status::OK();
};

/// Gates query tasks (and paces indexer polls) for one Warehouse.  All
/// methods run on the deterministic event loop; per-instance calls are
/// serialized by the cluster's smallest-clock-first schedule, so the
/// bucket levels and the in-flight table evolve identically across
/// host_threads settings.
class AdmissionController {
 public:
  /// `meter` bills Usage::shed_queries; `metrics` / `tracer` may be null.
  AdmissionController(const AdmissionConfig& config, cloud::UsageMeter* meter,
                      common::MetricRegistry* metrics = nullptr,
                      common::Tracer* tracer = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  bool enabled() const { return config_.enabled; }
  const AdmissionConfig& config() const { return config_; }

  /// Decides the fate of the query `agent` just received.  May Advance
  /// `agent`'s virtual clock (a deferred query waits for a token or a
  /// concurrency slot), never longer than the deadline budget.  On
  /// admit, the caller must pair with OnCompleted() when the query
  /// finishes so the in-flight table and the AIMD limit stay truthful.
  AdmissionDecision Admit(cloud::SimAgent& agent, const std::string& tenant,
                          uint64_t query_id);

  /// Reports an admitted query's virtual-time interval and whether it
  /// observed an organic throttle while running.  Throttle-free queries
  /// grow the AIMD limit by one; throttled ones multiply it down.
  void OnCompleted(cloud::Micros start, cloud::Micros end, bool saw_throttle);

  /// Extraction-pipeline backpressure: returns how long an indexer poll
  /// at `now` should defer, or 0 to proceed.  Keyed on the loader-queue
  /// depth and the cloud-wide organic-throttle counter: depth alone is
  /// healthy (that is what the queue is for); depth plus fresh
  /// throttles means the store is shedding and the fleet should pace.
  cloud::Micros IndexerBackoff(cloud::Micros now, uint64_t queue_depth,
                               uint64_t throttled_total);

  int concurrency_limit() const { return concurrency_limit_; }
  int InFlightAt(cloud::Micros now) const;

 private:
  /// Virtual-time token bucket.  Probe() refills to `now` and returns 0
  /// when a token is available (without consuming it) or the wait until
  /// one would be; Commit() consumes after a successful probe.
  class TokenBucket {
   public:
    TokenBucket(double rate_per_second, double burst);
    cloud::Micros Probe(cloud::Micros now);
    void Commit();
    bool active() const { return rate_ > 0; }

   private:
    double rate_;   // tokens per microsecond
    double burst_;
    double level_;
    cloud::Micros last_ = 0;
  };

  /// Wait until any admission gate opens for `tenant` at `now`; 0 means
  /// every gate is open *and* the bucket tokens have been consumed.
  cloud::Micros GateWait(cloud::Micros now, const std::string& tenant);

  /// Drops completed intervals that ended at or before `now`.
  void Prune(cloud::Micros now);

  TokenBucket& TenantBucket(const std::string& tenant);

  AdmissionConfig config_;
  cloud::UsageMeter* meter_;
  common::MetricRegistry* metrics_;
  common::Tracer* tracer_;
  common::Counter* admitted_metric_ = nullptr;
  common::Counter* deferred_metric_ = nullptr;
  common::Counter* backpressure_metric_ = nullptr;
  common::Gauge* limit_gauge_ = nullptr;

  TokenBucket global_bucket_;
  std::map<std::string, TokenBucket> tenant_buckets_;

  /// Admitted query intervals still overlapping the present (unordered;
  /// pruned lazily); in-flight at t = intervals with end > t.
  std::vector<std::pair<cloud::Micros, cloud::Micros>> in_flight_;
  int concurrency_limit_ = 0;

  /// Last organic-throttle total the indexer backpressure check saw.
  uint64_t last_throttled_seen_ = 0;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_ADMISSION_H_
