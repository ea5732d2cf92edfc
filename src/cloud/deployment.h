#ifndef WEBDEX_CLOUD_DEPLOYMENT_H_
#define WEBDEX_CLOUD_DEPLOYMENT_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/sim.h"
#include "common/status.h"

namespace webdex::cloud {

/// How index-store capacity is purchased (docs/ARCHITECTURES.md).
enum class CapacityMode {
  /// The paper's deployment: provisioned read/write units, organic
  /// throttling against the fluid limiters, optional autoscaler.
  kProvisioned,
  /// Pay-per-request: no provisioned rental, a burst ceiling that starts
  /// at twice the configured baseline and doubles past each sustained
  /// peak, and a per-unit price premium (Pricing::idx_ondemand_*).
  kOnDemand,
};

const char* CapacityModeName(CapacityMode mode);

/// The deployment shape of the simulated warehouse, selected in
/// CloudConfig.  The default spec reproduces the paper's single-table
/// provisioned deployment bit-identically; every other spec must yield
/// the same logical index contents and query rows, differing only in
/// Usage, latency and dollars (architecture_test.cc).
struct ArchitectureSpec {
  CapacityMode capacity = CapacityMode::kProvisioned;
  /// Physical tables each logical index table is hash-partitioned
  /// across.  1 = the paper's layout (physical names == logical names).
  int shards = 1;
  /// Read replicas per physical table.  0 = primary-only.  Replicas
  /// serve eventually-consistent reads at half the read price once the
  /// replication lag has elapsed since the table's last write; fresher
  /// reads fall back to the primary (read-your-writes).
  int replicas = 0;
  /// Virtual-time replication lag before a write is visible on replicas.
  Micros replication_lag = 500'000;

  bool IsDefault() const {
    return capacity == CapacityMode::kProvisioned && shards <= 1 &&
           replicas <= 0;
  }

  /// Compact spec name used by compare-arch and bench rows, e.g.
  /// "prov-s4-r2" or "ondemand-s1-r0".
  std::string Name() const;

  /// Bounds check (shards in [1, 64], replicas in [0, 8], lag >= 0).
  Status Validate() const;

  bool operator==(const ArchitectureSpec& o) const {
    return capacity == o.capacity && shards == o.shards &&
           replicas == o.replicas && replication_lag == o.replication_lag;
  }
};

/// Owns how the logical index maps onto physical stores: shard routing
/// and physical table naming, plus the per-physical-table write
/// watermarks the replicated read pool prices consistency against.
///
/// Lives in CloudEnv next to the stores; the ShardedKvStore /
/// ReplicatedKvStore decorators and the planner all consult the same
/// instance, and snapshot v5 persists the watermarks through it.
///
/// Thread-safety: routing queries (ShardFor/PhysicalName/...) are pure
/// functions of immutable configuration and safe from any thread; the
/// watermark map follows the event-loop-only contract of UsageMeter.
class Deployment {
 public:
  explicit Deployment(const ArchitectureSpec& spec);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const ArchitectureSpec& spec() const { return spec_; }
  bool sharded() const { return spec_.shards > 1; }
  bool replicated() const { return spec_.replicas > 0; }

  /// Shard index for a hash key: FNV-1a of the key modulo the shard
  /// count.  Always 0 when unsharded.
  int ShardFor(std::string_view hash_key) const;

  /// Physical table backing shard `shard` of `logical`.  Identity when
  /// shards == 1 so the default deployment's table names — and with them
  /// fault sites, breaker resources and retry jitter streams — are
  /// byte-for-byte unchanged.
  std::string PhysicalName(const std::string& logical, int shard) const;

  /// Folds a physical table name back to its logical table.
  std::string LogicalName(const std::string& physical) const;

  /// Every physical table backing `logical`, in shard order.
  std::vector<std::string> PhysicalTables(const std::string& logical) const;

  /// Deterministic replica choice for a read: FNV-1a of table + first
  /// requested key modulo the replica count.
  int ReplicaFor(const std::string& table, const std::string& first_key) const;

  // --- Replication watermarks (virtual time of the last write) ---------
  /// 0 when the table has never been written.
  Micros Watermark(const std::string& physical_table) const;
  /// Moves the table's watermark forward to `at` (never backward).
  void RecordWrite(const std::string& physical_table, Micros at);
  /// True when a read at `now` may be served by a replica: the last
  /// write has had `replication_lag` to propagate.
  bool ReplicaReadable(const std::string& physical_table, Micros now) const;

  /// Snapshot support (cloud/snapshot.cc, format v5).
  const std::map<std::string, Micros>& watermarks() const {
    return watermarks_;
  }
  void RestoreWatermark(const std::string& physical_table, Micros at) {
    watermarks_[physical_table] = at;
  }

 private:
  ArchitectureSpec spec_;
  std::map<std::string, Micros> watermarks_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_DEPLOYMENT_H_
