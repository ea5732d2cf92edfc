#ifndef WEBDEX_CLOUD_CIRCUIT_BREAKER_H_
#define WEBDEX_CLOUD_CIRCUIT_BREAKER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/sim.h"
#include "cloud/usage.h"
#include "common/status.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// Tunables of the per-resource circuit breakers (docs/FAULTS.md).  The
/// defaults are safe to leave enabled: a breaker only opens after
/// `failure_threshold` *consecutive* retriable failures, which a
/// fault-free run never produces.
struct CircuitBreakerConfig {
  bool enabled = true;
  /// Consecutive retriable failures that trip a closed breaker open.
  int failure_threshold = 5;
  /// Consecutive half-open probe successes that close it again.
  int success_threshold = 2;
  /// Virtual time an open breaker waits before letting probes through.
  Micros cooldown = 30 * kMicrosPerSecond;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

/// Health of a single resource (one index table, say): the consecutive
/// failure/success runs plus the breaker state machine position.  Plain
/// data so cloud/snapshot.cc can round-trip it.
struct HealthTracker {
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  int consecutive_successes = 0;
  /// When the breaker last opened (valid while state == kOpen).
  Micros opened_at = 0;
};

/// Per-resource circuit breakers over the cloud clients, the standard
/// brownout defence: after a run of consecutive retriable failures the
/// breaker *opens* and fails calls fast — unbilled, since no request is
/// ever sent — until a virtual-time cooldown lapses; then it goes
/// *half-open*, letting real probe attempts through, and *closes* after
/// enough succeed (or re-opens on the first probe failure).  Every
/// transition is counted in Usage, so brownouts are visible in bills and
/// bench rows.
///
/// Determinism: state changes happen on the event-loop thread and depend
/// only on the (deterministic) sequence of call outcomes and virtual
/// clocks, so serial and host-parallel runs trip breakers identically.
class CircuitBreaker {
 public:
  /// One saved per-resource tracker (cloud/snapshot.cc).
  using TrackerState = std::pair<std::string, HealthTracker>;

  /// `tracer` records a zero-duration span per transition
  /// (`breaker.open:<resource>` etc.); it may be null.
  CircuitBreaker(const CircuitBreakerConfig& config, UsageMeter* meter,
                 common::Tracer* tracer = nullptr)
      : config_(config), meter_(meter), tracer_(tracer) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  const CircuitBreakerConfig& config() const { return config_; }

  /// Gate an attempt against `resource` at virtual time `now`.  Returns
  /// OK when the attempt may proceed (closed, or half-open probe), or an
  /// unbilled kUnavailable when the breaker is open and still cooling
  /// down (counted in Usage::breaker_short_circuits).
  Status Allow(std::string_view resource, Micros now);

  /// Report the outcome of an allowed attempt.  Only retriable failures
  /// (kUnavailable / kResourceExhausted) count against health; permanent
  /// errors say nothing about the service being up.
  void RecordSuccess(std::string_view resource);
  void RecordFailure(std::string_view resource, Micros now);

  /// Current state for reports and `webdex stats` (closed for resources
  /// never seen).
  BreakerState state(std::string_view resource) const;

  /// Non-mutating health probe for planners: would an attempt against
  /// `resource` at virtual time `now` be let through?  True when the
  /// breaker is closed or half-open, and also when it is open but the
  /// cooldown has lapsed (the next Allow would move it to half-open) —
  /// so callers that plan around an open breaker still re-try the
  /// resource once it is probe-eligible, instead of shunning it forever.
  /// Unlike Allow, no state changes and no Usage counters.
  bool WouldAllow(std::string_view resource, Micros now) const;

  /// Snapshot support: the per-resource trackers in resource order.
  std::vector<TrackerState> SaveTrackers() const;
  void RestoreTrackers(const std::vector<TrackerState>& trackers);

 private:
  HealthTracker& TrackerFor(std::string_view resource);
  /// Records a state transition as a zero-duration span at `now`.
  void TraceTransition(const char* kind, std::string_view resource,
                       Micros now);

  CircuitBreakerConfig config_;
  UsageMeter* meter_;
  common::Tracer* tracer_ = nullptr;
  /// Virtual time of the last Allow/RecordFailure; RecordSuccess has no
  /// timestamp parameter, so its half-open -> closed transition span is
  /// stamped with this (the success it reports was observed then).
  Micros last_now_ = 0;
  std::map<std::string, HealthTracker, std::less<>> trackers_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_CIRCUIT_BREAKER_H_
