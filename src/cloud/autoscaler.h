#ifndef WEBDEX_CLOUD_AUTOSCALER_H_
#define WEBDEX_CLOUD_AUTOSCALER_H_

#include <cstdint>

#include "cloud/sim.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/tracer.h"

namespace webdex::cloud {

class DynamoDb;

/// Reactive capacity autoscaler configuration (docs/OVERLOAD.md).
///
/// Both knobs default off so every existing run is bit-identical: no
/// capacity-hours are metered and provisioned throughput never moves.
struct AutoscalerConfig {
  /// Runs the target-utilization control law (implies `bill_capacity`).
  bool enabled = false;
  /// Meters provisioned capacity-unit-hours through Pricing without
  /// moving capacity — the honest baseline a static over-provisioned
  /// deployment pays, so frontier benches compare like with like.
  bool bill_capacity = false;

  /// Capacity bounds the control law may move between.  Initial capacity
  /// is whatever DynamoDbConfig provisioned (clamped into the bounds on
  /// the first evaluation).
  double min_write_units = 100;
  double max_write_units = 3200;
  double min_read_units = 50;
  double max_read_units = 2000;

  /// Control law: provision so that consumed/provisioned ~= target.
  double target_utilization = 0.7;
  /// A throttled window proves demand exceeds what consumption can
  /// measure (a saturated limiter admits at most its own capacity), so
  /// scale up to at least current * throttle_boost — doubling climbs
  /// out of a deep knee in a handful of windows where consumed/target
  /// alone would creep at 1/target per window.
  double throttle_boost = 2.0;
  /// Scale down only when utilization falls below target * headroom.
  double scale_down_headroom = 0.5;
  /// Each scale-down step keeps at least this fraction of current
  /// capacity (slow decay; scale-up jumps straight to consumed/target).
  double scale_down_step = 0.7;

  /// Control-loop cadence in virtual time.
  Micros evaluation_interval = 10 * kMicrosPerSecond;
  /// Scale-up fast, scale-down slow (AWS Application Auto Scaling shape).
  Micros scale_up_cooldown = 10 * kMicrosPerSecond;
  Micros scale_down_cooldown = 120 * kMicrosPerSecond;
};

/// Durable control-loop state, persisted in snapshots so a restored
/// run resumes the same capacity trajectory deterministically.
struct AutoscalerState {
  double write_units = 0;  // 0 = not yet initialized from the store
  double read_units = 0;
  Micros window_start = 0;
  Micros last_scale_up = 0;
  Micros last_scale_down = 0;
  double window_write_units = 0;
  double window_read_units = 0;
  uint64_t window_write_throttles = 0;
  uint64_t window_read_throttles = 0;
  uint64_t started = 0;  // bool; uint64 for stable serialization
};

/// Watches DynamoDB consumption and organic throttles and re-provisions
/// read/write capacity between configured bounds — entirely in virtual
/// time, driven by the timestamps of the (deterministically ordered)
/// service calls themselves, so serial and host-parallel runs produce
/// byte-identical capacity trajectories.
///
/// The control loop settles fixed evaluation windows: each completed
/// window bills its capacity-unit-hours through the meter (Pricing
/// idx_*_unit_hour), then applies the target-utilization law per
/// dimension.  A throttle or utilization above target scales up to
/// consumed/target immediately (subject to the short up-cooldown); deep
/// idleness decays capacity by at most `scale_down_step` per window
/// (subject to the long down-cooldown).  Every applied change emits an
/// `autoscale.scale` span, bumps `usage.scale_events`, and re-times the
/// store's fluid limiters from the window boundary on.
class Autoscaler {
 public:
  /// `dynamodb` must outlive the autoscaler; `metrics`/`tracer` may be
  /// null (no observability surface).
  Autoscaler(const AutoscalerConfig& config, DynamoDb* dynamodb,
             UsageMeter* meter, common::MetricRegistry* metrics = nullptr,
             common::Tracer* tracer = nullptr);

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  /// True when the autoscaler does anything at all (control or billing).
  bool active() const { return config_.enabled || config_.bill_capacity; }

  /// Hooks called by DynamoDb on every billed operation.  `Tick` runs
  /// the control loop across any evaluation windows `now` has crossed;
  /// the Observe* hooks feed the current window.  Out-of-order
  /// timestamps (the discrete-event scheduler replays agents
  /// task-by-task) are handled by only ever moving the window forward.
  void Tick(Micros now);
  void ObserveWrite(double units) {
    if (active()) state_.window_write_units += units;
  }
  void ObserveRead(double units) {
    if (active()) state_.window_read_units += units;
  }
  void ObserveThrottle(bool write) {
    if (!active()) return;
    if (write) {
      state_.window_write_throttles += 1;
    } else {
      state_.window_read_throttles += 1;
    }
  }

  /// Settles capacity-hour billing through `now` (pro-rata for the final
  /// partial window) without evaluating the control law.  Call at the
  /// end of an experiment so static and autoscaled runs bill the same
  /// wall of virtual time.
  void FinishBilling(Micros now);

  const AutoscalerConfig& config() const { return config_; }
  const AutoscalerState& state() const { return state_; }
  /// Restores durable state (snapshot).  When the autoscaler is
  /// active and the state carries capacities, they are re-applied to the
  /// store's limiters at the restored window boundary.
  void Restore(const AutoscalerState& state);

  double write_units() const { return state_.write_units; }
  double read_units() const { return state_.read_units; }

 private:
  void EnsureStarted(Micros now);
  /// Settles exactly one window ending at `boundary`.
  void EvaluateWindow(Micros boundary);
  void BillWindow(Micros from, Micros to);
  void ApplyCapacity(Micros at);

  AutoscalerConfig config_;
  DynamoDb* dynamodb_;
  UsageMeter* meter_;
  common::Tracer* tracer_;
  common::Gauge* write_units_gauge_ = nullptr;
  common::Gauge* read_units_gauge_ = nullptr;
  common::Counter* scale_ups_ = nullptr;
  common::Counter* scale_downs_ = nullptr;
  /// Private clock pinned to window boundaries so scale-event spans
  /// carry the boundary's virtual time.
  SimAgent clock_;
  AutoscalerState state_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_AUTOSCALER_H_
