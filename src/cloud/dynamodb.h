#ifndef WEBDEX_CLOUD_DYNAMODB_H_
#define WEBDEX_CLOUD_DYNAMODB_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/billed_call.h"
#include "cloud/item_table.h"
#include "cloud/kv_store.h"
#include "cloud/sim.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"

namespace webdex::cloud {

struct DynamoDbConfig {
  /// Per-API-request round trip.
  Micros request_latency = 3'000;
  /// Provisioned write capacity (1 KB write units / second) shared by all
  /// clients — the indexing bottleneck observed in the paper (Section 8.2
  /// "DynamoDB was the bottleneck while indexing").  <= 0 disables.
  double write_units_per_second = 400;
  /// Provisioned read capacity (4 KB read units / second).
  double read_units_per_second = 250;
  /// Organic-throttle delay bound: a request that would queue behind more
  /// than this much committed work is rejected with kResourceExhausted
  /// and a Retry-After hint instead of waiting (docs/OVERLOAD.md).
  /// <= 0 (default) queues without bound — the pre-overload behaviour,
  /// and what keeps existing runs bit-identical.
  Micros max_backlog_micros = 0;
  /// Pay-per-request capacity (docs/ARCHITECTURES.md).  Units are billed
  /// to Usage::ddb_ondemand_* at Pricing::idx_ondemand_* rates instead
  /// of the provisioned counters; the limiters act as the on-demand
  /// burst ceiling, starting at the configured rates (CloudEnv doubles
  /// the baseline) and doubling past each sustained one-second peak.
  bool on_demand = false;
};

class Autoscaler;

/// Simulated Amazon DynamoDB (paper Section 6): tables of items of at most
/// 64 KB, composite hash + range primary keys, multi-valued attributes,
/// binary values, get / batchGet(100) / put / batchPut(25), and
/// provisioned-capacity throttling.
///
/// Storage overhead: AWS bills 100 bytes of index overhead per item on top
/// of raw item size; this is the ovh(D, I) term visible in Figure 8.
class DynamoDb final : public ItemStore {
 public:
  DynamoDb(const DynamoDbConfig& config, UsageMeter& meter,
           FaultInjector& injector, common::MetricRegistry& metrics);

  Status CreateTable(SimAgent& agent, const std::string& table) override;
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

  /// Per-item storage overhead billed by the store.
  static constexpr uint64_t kItemOverheadBytes = 100;
  /// Billing floors of one item: see WriteUnits and ReadUnits.
  static constexpr double kMinWriteBytes = 64;
  static constexpr double kMinReadBytes = 128;

  /// Durable on-demand burst-ceiling state (snapshot v5).  All zero when
  /// `on_demand` is off.
  struct OnDemandState {
    double write_ceiling = 0;  // current limiter rates (units/second)
    double read_ceiling = 0;
    double peak_write = 0;  // highest sustained one-second consumption
    double peak_read = 0;
    Micros window_start = 0;
    double window_write_units = 0;
    double window_read_units = 0;
  };
  const OnDemandState& ondemand_state() const { return ondemand_; }
  /// Restores the burst-ceiling trajectory (snapshot v5) and re-times
  /// the limiters to the restored ceilings.
  void RestoreOnDemand(const OnDemandState& state);

  /// Attaches the reactive autoscaler (cloud/autoscaler.h) when it is
  /// active.  The store feeds it consumption and throttle observations
  /// and lets it re-provision capacity at evaluation boundaries.
  void set_autoscaler(Autoscaler* autoscaler) { autoscaler_ = autoscaler; }

  /// Re-provisions both fluid limiters at virtual time `at`, preserving
  /// busy-period accounting (RateLimiter::SetRate).  Called by the
  /// autoscaler; also usable directly by tests.
  void SetProvisionedCapacity(double write_units_per_second,
                              double read_units_per_second, Micros at);
  double write_units_per_second() const {
    return config_.write_units_per_second;
  }
  double read_units_per_second() const {
    return config_.read_units_per_second;
  }

 private:
  /// Write capacity units for an item of `item_bytes` billable bytes.
  ///
  /// Calibration note: AWS quantizes write units to 1 KB *per item*.  At
  /// the paper's scale (2 MB documents) per-key index payloads routinely
  /// exceed 1 KB, so capacity consumption — and therefore both upload
  /// time and Table 6's costs — is effectively proportional to index
  /// *bytes*, which is exactly what the paper measured (costs ordered
  /// LU < LUI < LUP < 2LUPI like the index sizes).  To preserve that
  /// size-proportional behaviour at laptop-scale document sizes, the
  /// simulation uses fractional units, max(bytes, kMinWriteBytes)/1024,
  /// instead of hard per-item ceilings; the small floor models per-item
  /// request overhead.
  static double WriteUnits(uint64_t item_bytes);
  /// Read capacity units for an item: max(bytes, kMinReadBytes)/4096,
  /// fractional (same calibration rationale; AWS quantum is 4 KB).
  static double ReadUnits(uint64_t item_bytes);

  Status ValidateItem(const ItemView& item) const;

  /// On-demand control loop: at each elapsed one-second window, folds the
  /// window's consumption into the sustained peak and raises (never
  /// lowers) the burst ceiling to twice that peak — AWS's "double your
  /// previous peak" adaptive capacity, in virtual time.
  void OnDemandTick(Micros now);
  /// Feeds the current on-demand window; routes the units to the
  /// on-demand usage counters when on-demand, provisioned ones otherwise.
  void MeterWriteUnits(double units);
  void MeterReadUnits(double units);

  /// The gates of every data-plane call: the fault gate at site
  /// `site` + `table`, then the autoscaler and on-demand control loops,
  /// then the organic throttle gate over `limiter` (a throttle is also
  /// reported to the autoscaler).
  Status Admit(BilledCall& call, std::string_view site,
               const std::string& table, const RateLimiter& limiter,
               bool write);
  DynamoDbConfig config_;
  UsageMeter& meter_;
  ServiceEndpoint endpoint_;
  Autoscaler* autoscaler_ = nullptr;
  common::Counter& throttled_metric_;
  OpMetrics batch_put_metrics_;
  OpMetrics batch_get_metrics_;
  OpMetrics scan_metrics_;
  OpMetrics delete_metrics_;
  OpMetrics create_table_metrics_;
  RateLimiter write_limiter_;
  RateLimiter read_limiter_;
  OnDemandState ondemand_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_DYNAMODB_H_
