#include "cloud/autoscaler.h"

#include <algorithm>

#include "cloud/dynamodb.h"

namespace webdex::cloud {

namespace {
constexpr double kChangeEpsilon = 1e-9;
// A throttled window proves demand beyond what a saturated limiter lets
// consumption show, so it scales up to at least current * kThrottleBoost
// (doubling climbs out of a deep knee in a handful of windows).
// Utilization below target * kScaleDownHeadroom decays capacity to no
// less than current * kScaleDownStep per window (slow decay).
constexpr double kThrottleBoost = 2.0;
constexpr double kScaleDownHeadroom = 0.5;
constexpr double kScaleDownStep = 0.7;

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

// The target-utilization law for one dimension: `units` provisioned,
// `consumed` units per second over a window that saw `throttles`.
double DesiredUnits(double units, double consumed, uint64_t throttles,
                    double target) {
  const double util = units <= 0 ? 0 : consumed / units;
  if (throttles > 0) {
    return std::max(consumed / target, units * kThrottleBoost);
  }
  if (util > target) return consumed / target;
  if (util < target * kScaleDownHeadroom) {
    return std::max(consumed / target, units * kScaleDownStep);
  }
  return units;
}
}  // namespace

Autoscaler::Autoscaler(const AutoscalerConfig& config, DynamoDb& dynamodb,
                       UsageMeter& meter, common::MetricRegistry& metrics,
                       common::Tracer& tracer)
    : config_(config),
      dynamodb_(dynamodb),
      meter_(meter),
      tracer_(tracer),
      write_units_gauge_(*metrics.GetGauge("autoscale.write_units")),
      read_units_gauge_(*metrics.GetGauge("autoscale.read_units")),
      scale_ups_(*metrics.GetCounter("autoscale.scale_ups.count")),
      scale_downs_(*metrics.GetCounter("autoscale.scale_downs.count")) {}

void Autoscaler::EnsureStarted(Micros now) {
  if (state_.started != 0) return;
  state_.started = 1;
  // Windows are aligned to the interval grid so the trajectory depends
  // only on virtual time, not on which call happened to arrive first.
  const Micros interval = config_.evaluation_interval;
  state_.window_start = interval <= 0 ? now : (now / interval) * interval;
  if (state_.write_units <= 0) {
    state_.write_units = dynamodb_.write_units_per_second();
    state_.read_units = dynamodb_.read_units_per_second();
  }
  if (config_.enabled) {
    // Pull the starting point into the configured bounds.
    state_.write_units = Clamp(state_.write_units, config_.min_write_units,
                               config_.max_write_units);
    state_.read_units = Clamp(state_.read_units, config_.min_read_units,
                              config_.max_read_units);
    ApplyCapacity(state_.window_start);
  }
  PublishCapacity();
}

void Autoscaler::BillWindow(Micros from, Micros to) {
  if (to <= from) return;
  const double hours = MicrosToHours(to - from);
  meter_.mutable_usage().ddb_write_capacity_hours += state_.write_units * hours;
  meter_.mutable_usage().ddb_read_capacity_hours += state_.read_units * hours;
}

void Autoscaler::ApplyCapacity(Micros at) {
  dynamodb_.SetProvisionedCapacity(state_.write_units, state_.read_units, at);
}

void Autoscaler::PublishCapacity() {
  write_units_gauge_.Set(state_.write_units);
  read_units_gauge_.Set(state_.read_units);
}

void Autoscaler::Tick(Micros now) {
  if (!active()) return;
  EnsureStarted(now);
  const Micros interval = config_.evaluation_interval;
  if (interval <= 0) return;
  while (now >= state_.window_start + interval) {
    EvaluateWindow(state_.window_start + interval);
  }
}

void Autoscaler::FinishBilling(Micros now) {
  if (!active()) return;
  EnsureStarted(now);
  Tick(now);
  BillWindow(state_.window_start, now);
  if (now > state_.window_start) state_.window_start = now;
}

void Autoscaler::EvaluateWindow(Micros boundary) {
  const Micros window_start = state_.window_start;
  BillWindow(window_start, boundary);
  const double window_seconds =
      static_cast<double>(boundary - window_start) /
      static_cast<double>(kMicrosPerSecond);

  if (config_.enabled && window_seconds > 0) {
    const double target = config_.target_utilization;
    const double desired_w = Clamp(
        DesiredUnits(state_.write_units,
                     state_.window_write_units / window_seconds,
                     state_.window_write_throttles, target),
        config_.min_write_units, config_.max_write_units);
    const double desired_r = Clamp(
        DesiredUnits(state_.read_units,
                     state_.window_read_units / window_seconds,
                     state_.window_read_throttles, target),
        config_.min_read_units, config_.max_read_units);

    const bool up = desired_w > state_.write_units + kChangeEpsilon ||
                    desired_r > state_.read_units + kChangeEpsilon;
    const bool down = !up && (desired_w < state_.write_units - kChangeEpsilon ||
                              desired_r < state_.read_units - kChangeEpsilon);
    bool apply = false;
    if (up) {
      apply = state_.last_scale_up == 0 ||
              boundary - state_.last_scale_up >= config_.scale_up_cooldown;
    } else if (down) {
      const Micros last_change =
          std::max(state_.last_scale_up, state_.last_scale_down);
      apply = last_change == 0
                  ? boundary >= config_.scale_down_cooldown
                  : boundary - last_change >= config_.scale_down_cooldown;
    }
    if (apply) {
      clock_.ResetClock(boundary);
      MeteredSpan span(tracer_, meter_, clock_, "autoscale.scale");
      span.AddAttr("write_units_before", state_.write_units);
      span.AddAttr("read_units_before", state_.read_units);
      state_.write_units = desired_w;
      state_.read_units = desired_r;
      ApplyCapacity(boundary);
      span.AddAttr("write_units", state_.write_units);
      span.AddAttr("read_units", state_.read_units);
      span.AddAttr("up", up ? 1 : 0);
      meter_.mutable_usage().scale_events += 1;
      if (up) {
        state_.last_scale_up = boundary;
        scale_ups_.Add(1);
      } else {
        state_.last_scale_down = boundary;
        scale_downs_.Add(1);
      }
      PublishCapacity();
    }
  }

  state_.window_start = boundary;
  state_.window_write_units = 0;
  state_.window_read_units = 0;
  state_.window_write_throttles = 0;
  state_.window_read_throttles = 0;
}

void Autoscaler::Restore(const AutoscalerState& state) {
  state_ = state;
  if (active() && state_.started != 0 && state_.write_units > 0) {
    ApplyCapacity(state_.window_start);
    PublishCapacity();
  }
}

}  // namespace webdex::cloud
