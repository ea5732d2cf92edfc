#ifndef WEBDEX_CLOUD_BILLED_CALL_H_
#define WEBDEX_CLOUD_BILLED_CALL_H_

#include <cstdint>
#include <string_view>

#include "cloud/fault.h"
#include "cloud/sim.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/status.h"

namespace webdex::cloud {

/// What a simulated service tells the billing skeleton about itself.
struct ServiceEndpoint {
  ServiceId service;
  UsageMeter* meter;
  FaultInjector* injector;  // may be null
  Micros request_latency;
  /// `service.<svc>.throttled.count`; may be null.
  common::Counter* throttled = nullptr;

  /// The injector when it may inject anything, else null: callers skip
  /// their fault hooks, and building the hooks' site keys, on null.
  FaultInjector* active_injector() const {
    return injector != nullptr && injector->enabled() ? injector : nullptr;
  }
};

/// How one request is charged to the caller's clock: a wait for `units`
/// of `limiter` (when set), then the request latency plus `transfer`.
struct RoundTrip {
  RateLimiter* limiter = nullptr;
  double units = 0;
  Micros transfer = 0;
};

/// The one billing rule of every simulated AWS call (docs/FAULTS.md):
///
///   fault gate → throttle gate → bill the request → advance virtual time
///   → record `service.<svc>.<op>`.
///
/// Every attempt, failed or not, bills its request and charges its round
/// trip; only an attempt that does work adds a capacity or byte term,
/// which the service meters itself.  The per-service differences are
/// arguments: the Usage request counter, the RoundTrip a failed attempt
/// is charged, and the throttle gate's limiter and bound.
class BilledCall {
 public:
  /// Starts a call of `op` now; its requests bill to `Usage::*requests`.
  BilledCall(const ServiceEndpoint& endpoint, SimAgent& agent,
             const OpMetrics& op, uint64_t Usage::*requests)
      : endpoint_(endpoint),
        agent_(agent),
        op_(op),
        requests_(requests),
        start_(agent.now()) {}

  BilledCall(const BilledCall&) = delete;
  BilledCall& operator=(const BilledCall&) = delete;

  Micros now() const { return agent_.now(); }

  /// Fails the attempt when the injector fires at site `site` + `resource`
  /// (e.g. "ddb.batchput:" + table — the key seeds the site's fault
  /// stream, so it must never change): charges `failed`, records the
  /// error and returns the fault.
  Status FaultGate(std::string_view site, std::string_view resource,
                   const RoundTrip& failed = {});

  /// Rejects the attempt before it does any work when `max_backlog` > 0
  /// and `limiter`'s backlog exceeds it: bills one request and a bare
  /// round trip, counts Usage::throttled_requests, records the error and
  /// returns kResourceExhausted "<what>; retry after N us", where N is
  /// when the backlog drains back to the bound.
  Status ThrottleGate(const RateLimiter& limiter, Micros max_backlog,
                      const char* what);

  /// Bills `count` requests.
  void Bill(uint64_t count = 1) {
    endpoint_.meter->mutable_usage().*requests_ += count;
  }
  /// Charges one round trip.
  void Charge(const RoundTrip& trip = {});
  /// Records `service.<svc>.<op>.{requests,errors,latency_us}`.
  void Record(bool error) const { op_.Record(agent_, start_, error); }

  /// Bills the request and charges `trip`, once per call: later Settle,
  /// Succeed and Fail calls add nothing.  SQS settles before its fault
  /// gate, so an outage check sees now + latency.
  void Settle(const RoundTrip& trip = {}) {
    if (settled_) return;
    settled_ = true;
    Bill();
    Charge(trip);
  }
  /// Settle(trip), then record a success.
  void Succeed(const RoundTrip& trip = {}) {
    Settle(trip);
    Record(/*error=*/false);
  }
  /// Settle(trip), then record an error; returns `status`.
  Status Fail(Status status, const RoundTrip& trip = {}) {
    Settle(trip);
    Record(/*error=*/true);
    return status;
  }

 private:
  const ServiceEndpoint& endpoint_;
  SimAgent& agent_;
  const OpMetrics& op_;
  uint64_t Usage::*requests_;
  Micros start_;
  bool settled_ = false;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_BILLED_CALL_H_
