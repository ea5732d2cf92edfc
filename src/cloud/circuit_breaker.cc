#include "cloud/circuit_breaker.h"

namespace webdex::cloud {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

HealthTracker& CircuitBreaker::TrackerFor(std::string_view resource) {
  auto it = trackers_.find(resource);
  if (it == trackers_.end()) {
    it = trackers_.emplace(std::string(resource), HealthTracker()).first;
  }
  return it->second;
}

void CircuitBreaker::TraceTransition(const char* kind,
                                     std::string_view resource, Micros now) {
  if (!tracer_.enabled()) return;
  std::string name = kind;
  name += ":";
  name += resource;
  tracer_.EndSpan(tracer_.BeginSpan(name, now), now);
}

Status CircuitBreaker::Allow(std::string_view resource, Micros now) {
  if (!config_.enabled) return Status::OK();
  last_now_ = now;
  HealthTracker& tracker = TrackerFor(resource);
  if (tracker.state != BreakerState::kOpen) return Status::OK();
  if (now - tracker.opened_at >= config_.cooldown) {
    // Cooldown lapsed: let real probe attempts through.
    tracker.state = BreakerState::kHalfOpen;
    tracker.consecutive_successes = 0;
    TraceTransition("breaker.half_open", resource, now);
    return Status::OK();
  }
  meter_.mutable_usage().breaker_short_circuits += 1;
  std::string msg = "circuit breaker open: ";
  msg += resource;
  return Status::Unavailable(msg);
}

void CircuitBreaker::RecordSuccess(std::string_view resource) {
  if (!config_.enabled) return;
  HealthTracker& tracker = TrackerFor(resource);
  switch (tracker.state) {
    case BreakerState::kClosed:
      tracker.consecutive_failures = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++tracker.consecutive_successes >= kSuccessThreshold) {
        tracker = HealthTracker();  // back to a fresh closed breaker
        meter_.mutable_usage().breaker_closes += 1;
        TraceTransition("breaker.close", resource, last_now_);
      }
      break;
    case BreakerState::kOpen:
      // A success can only follow an Allow, which would have moved the
      // breaker to half-open first; nothing to do.
      break;
  }
}

void CircuitBreaker::RecordFailure(std::string_view resource, Micros now) {
  if (!config_.enabled) return;
  last_now_ = now;
  HealthTracker& tracker = TrackerFor(resource);
  switch (tracker.state) {
    case BreakerState::kClosed:
      if (++tracker.consecutive_failures >= config_.failure_threshold) {
        tracker.state = BreakerState::kOpen;
        tracker.opened_at = now;
        meter_.mutable_usage().breaker_opens += 1;
        TraceTransition("breaker.open", resource, now);
      }
      break;
    case BreakerState::kHalfOpen:
      // One failed probe re-opens: the service is still browning out.
      tracker.state = BreakerState::kOpen;
      tracker.opened_at = now;
      tracker.consecutive_successes = 0;
      meter_.mutable_usage().breaker_opens += 1;
      TraceTransition("breaker.open", resource, now);
      break;
    case BreakerState::kOpen:
      break;
  }
}

BreakerState CircuitBreaker::state(std::string_view resource) const {
  auto it = trackers_.find(resource);
  return it == trackers_.end() ? BreakerState::kClosed : it->second.state;
}

bool CircuitBreaker::WouldAllow(std::string_view resource,
                                Micros now) const {
  if (!config_.enabled) return true;
  auto it = trackers_.find(resource);
  if (it == trackers_.end()) return true;
  const HealthTracker& tracker = it->second;
  if (tracker.state != BreakerState::kOpen) return true;
  return now - tracker.opened_at >= config_.cooldown;
}

std::vector<CircuitBreaker::TrackerState> CircuitBreaker::SaveTrackers()
    const {
  std::vector<TrackerState> out;
  out.reserve(trackers_.size());
  for (const auto& [resource, tracker] : trackers_) {
    out.emplace_back(resource, tracker);
  }
  return out;
}

void CircuitBreaker::RestoreTrackers(
    const std::vector<TrackerState>& trackers) {
  for (const auto& [resource, tracker] : trackers) {
    TrackerFor(resource) = tracker;
  }
}

}  // namespace webdex::cloud
