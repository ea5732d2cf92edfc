#ifndef WEBDEX_CLOUD_USAGE_H_
#define WEBDEX_CLOUD_USAGE_H_

#include <cstdint>
#include <string>

#include "cloud/pricing.h"
#include "cloud/sim.h"

namespace webdex::cloud {

/// Every field of Usage, in declaration order.  operator+= / operator-,
/// the ForEachField visitors, the `usage.<field>` metric mirror
/// (CloudEnv::PublishUsageMetrics) and the `usage.<field>` span
/// attributes (cloud/trace.h) are all generated from this list, so a new
/// counter added here automatically flows through arithmetic, stats,
/// metrics and traces — usage_test.cc verifies the list covers the whole
/// struct so a field added below without a matching X(...) entry fails.
#define WEBDEX_USAGE_FIELDS(X) \
  X(s3_put_requests)           \
  X(s3_get_requests)           \
  X(s3_bytes_in)               \
  X(s3_bytes_out)              \
  X(ddb_put_requests)          \
  X(ddb_get_requests)          \
  X(ddb_items_written)         \
  X(ddb_write_units)           \
  X(ddb_read_units)            \
  X(sdb_put_requests)          \
  X(sdb_get_requests)          \
  X(sdb_box_hours)             \
  X(sqs_requests)              \
  X(faulted_requests)          \
  X(retried_requests)          \
  X(sqs_redeliveries)          \
  X(dead_lettered)             \
  X(breaker_opens)             \
  X(breaker_closes)            \
  X(breaker_short_circuits)    \
  X(degraded_queries)          \
  X(scrub_repaired)            \
  X(tombstones_written)        \
  X(compact_gc_items)          \
  X(compact_uris)              \
  X(throttled_requests)        \
  X(shed_queries)              \
  X(scale_events)              \
  X(ddb_write_capacity_hours)  \
  X(ddb_read_capacity_hours)   \
  X(vm_micros_large)           \
  X(vm_micros_xlarge)          \
  X(egress_bytes)              \
  X(ondemand_requests)         \
  X(replica_reads)             \
  X(ddb_ondemand_write_units)  \
  X(ddb_ondemand_read_units)

/// Raw consumption counters for every simulated cloud service.
///
/// Every simulated API call increments these, so the dollar amounts the
/// provider would have charged are *metered*, not estimated.  The
/// analytical model of Section 7 lives separately in cost/cost_model.h;
/// tests cross-check the two.
struct Usage {
  // File store (S3).
  uint64_t s3_put_requests = 0;
  uint64_t s3_get_requests = 0;
  uint64_t s3_bytes_in = 0;   // uploaded payload bytes
  uint64_t s3_bytes_out = 0;  // downloaded payload bytes

  // Index store (DynamoDB).
  uint64_t ddb_put_requests = 0;   // API calls (a batch counts once)
  uint64_t ddb_get_requests = 0;   // API calls
  uint64_t ddb_items_written = 0;  // individual items
  // Capacity units are fractional: size-proportional with a small
  // per-item floor (see DynamoDb::WriteUnits for the calibration note).
  double ddb_write_units = 0;  // 1 KB write capacity units
  double ddb_read_units = 0;   // 4 KB read capacity units

  // Legacy index store (SimpleDB).
  uint64_t sdb_put_requests = 0;
  uint64_t sdb_get_requests = 0;
  double sdb_box_hours = 0.0;

  // Queue service (SQS): send + receive + delete + lease renewals.
  uint64_t sqs_requests = 0;

  // Fault-injection and recovery accounting (docs/FAULTS.md).  Faulted
  // attempts are billed through the ordinary per-service counters above;
  // these extra counters make the fault overhead itself observable in
  // reports, stats and bench rows.
  uint64_t faulted_requests = 0;  // attempts failed by the chaos layer
  uint64_t retried_requests = 0;  // re-attempts issued by retry helpers
  uint64_t sqs_redeliveries = 0;  // deliveries with delivery_count > 1
  uint64_t dead_lettered = 0;     // messages dropped after max deliveries

  // Brownout accounting (circuit breakers, degraded reads, scrubbing).
  uint64_t breaker_opens = 0;           // closed/half-open -> open
  uint64_t breaker_closes = 0;          // half-open -> closed
  uint64_t breaker_short_circuits = 0;  // calls failed fast, unbilled
  uint64_t degraded_queries = 0;        // answered via full scan fallback
  uint64_t scrub_repaired = 0;          // URIs repaired by a scrub

  // Mutable-corpus maintenance accounting (docs/MUTABILITY.md).
  uint64_t tombstones_written = 0;  // delete tasks committed
  uint64_t compact_gc_items = 0;    // stale/tombstoned items collected
  uint64_t compact_uris = 0;        // URIs canonicalized or collected

  // Overload accounting (docs/OVERLOAD.md).  Throttled/shed attempts are
  // billed (or deliberately not billed) through the per-service counters
  // above; these make the overload behaviour itself observable.
  uint64_t throttled_requests = 0;  // organic 429s from backlog bounds
  uint64_t shed_queries = 0;        // queries rejected by admission control
  uint64_t scale_events = 0;        // autoscaler capacity adjustments
  // Provisioned-capacity rental, metered by the Autoscaler when capacity
  // billing is enabled (0 otherwise, keeping request-only bills intact).
  double ddb_write_capacity_hours = 0;  // write-capacity-unit-hours
  double ddb_read_capacity_hours = 0;   // read-capacity-unit-hours

  // Virtual machines: rented time per type.
  Micros vm_micros_large = 0;
  Micros vm_micros_xlarge = 0;

  // Data transferred out of the cloud (query results to the user).
  uint64_t egress_bytes = 0;

  // Deployment-shape accounting (docs/ARCHITECTURES.md).  All zero under
  // the default provisioned single-table architecture.
  uint64_t ondemand_requests = 0;  // API requests billed at on-demand rates
  uint64_t replica_reads = 0;      // reads served by a read replica
  // On-demand capacity units, metered apart from the provisioned ones so
  // the two price sheets never mix in one bill.
  double ddb_ondemand_write_units = 0;
  double ddb_ondemand_read_units = 0;

  Usage& operator+=(const Usage& o);
  Usage operator-(const Usage& o) const;

  /// Calls fn("field_name", field_value) for every field, in declaration
  /// order.  `fn` must be generic: values are uint64_t, double or Micros.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define WEBDEX_USAGE_VISIT(field) fn(#field, field);
    WEBDEX_USAGE_FIELDS(WEBDEX_USAGE_VISIT)
#undef WEBDEX_USAGE_VISIT
  }

  /// Mutable variant: fn("field_name", &field).
  template <typename Fn>
  void ForEachField(Fn&& fn) {
#define WEBDEX_USAGE_VISIT(field) fn(#field, &field);
    WEBDEX_USAGE_FIELDS(WEBDEX_USAGE_VISIT)
#undef WEBDEX_USAGE_VISIT
  }

  /// Number of fields in WEBDEX_USAGE_FIELDS; every field is 8 bytes
  /// (uint64_t / double / Micros), so usage_test.cc asserts
  /// kFieldCount * 8 == sizeof(Usage) to catch a field missing from the
  /// list.
  static constexpr int kFieldCount = 0
#define WEBDEX_USAGE_COUNT(field) +1
      WEBDEX_USAGE_FIELDS(WEBDEX_USAGE_COUNT)
#undef WEBDEX_USAGE_COUNT
      ;
};

/// One line item per cloud service, in dollars, as in the paper's Table 6
/// and Figure 12 breakdowns.
struct Bill {
  double s3 = 0;        // file store requests
  double dynamodb = 0;  // index store capacity units
  double simpledb = 0;  // legacy index store box usage
  double ec2 = 0;       // instance-hours
  double sqs = 0;       // queue requests
  double egress = 0;    // paper's "AWSDown"

  double total() const {
    return s3 + dynamodb + simpledb + ec2 + sqs + egress;
  }

  Bill operator-(const Bill& o) const;
  Bill& operator+=(const Bill& o);

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// Accumulates Usage and converts it to money under a Pricing sheet.
class UsageMeter {
 public:
  explicit UsageMeter(Pricing pricing) : pricing_(pricing) {}

  const Pricing& pricing() const { return pricing_; }
  const Usage& usage() const { return usage_; }
  Usage& mutable_usage() { return usage_; }

  void AddVmTime(InstanceType type, Micros busy);
  void AddEgress(uint64_t bytes) { usage_.egress_bytes += bytes; }

  /// The total bill for everything metered so far.
  Bill ComputeBill() const { return ComputeBill(usage_); }

  /// The bill for a usage delta (e.g. one experiment phase).
  Bill ComputeBill(const Usage& u) const;

  /// Snapshot for later diffing: `usage() - snapshot`.
  Usage Snapshot() const { return usage_; }

  void Reset() { usage_ = Usage(); }

 private:
  Pricing pricing_;
  Usage usage_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_USAGE_H_
