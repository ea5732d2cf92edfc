#ifndef WEBDEX_CLOUD_SHARDED_KV_STORE_H_
#define WEBDEX_CLOUD_SHARDED_KV_STORE_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "cloud/deployment.h"
#include "cloud/kv_store.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// KvStore decorator that hash-partitions every logical index table
/// across `Deployment::spec().shards` physical tables
/// (docs/ARCHITECTURES.md).  Callers keep speaking logical table names;
/// the decorator routes each key to `PhysicalName(logical, ShardFor(key))`
/// and fans table-wide operations (Scan, CreateTable, storage accounting)
/// out over every physical table.
///
/// Because shards multiply the provisioned-capacity pool (CloudEnv scales
/// the per-table DynamoDB rates by the shard count), a sharded deployment
/// absorbs write bursts that throttle the single-table layout — the
/// Table 4-style makespan win compare-arch measures.
///
/// Contract preservation is what keeps architectures equivalent:
///   * BatchGetViews reassembles per-shard results into the documented
///     "concatenated in key order" order of the unsharded store;
///   * Scan bills every shard, then merges the shards' (hash, range)
///     ordered runs of views; ForEachItem walks the shards unbilled and
///     merges their runs the same way, so FingerprintStore() matches
///     across shard counts;
///   * on a transient BatchPut error, `*unprocessed` aggregates the
///     bounced items of the failed shard plus every not-yet-attempted
///     shard, preserving the "everything not stored" contract.
///
/// Sits at the *top* of the decorator stack (above replication and
/// retries), so retry jitter streams, breaker resources and fault sites
/// are all keyed by physical table names — shard 3 of idx-lup can brown
/// out while its siblings stay healthy.
class ShardedKvStore final : public ForwardingKvStore {
 public:
  /// `deployment` must outlive the store and have shards > 1.
  ShardedKvStore(KvStore* base, Deployment& deployment, UsageMeter& meter,
                 common::MetricRegistry& metrics, common::Tracer& tracer);

  /// Creates every physical shard of `logical` (first error wins).
  Status CreateTable(SimAgent& agent, const std::string& logical) override;
  bool HasTable(const std::string& logical) const override;
  Status BatchPutViews(SimAgent& agent, const std::string& logical,
                       std::span<const ItemView> items,
                       std::vector<ItemView>* unprocessed = nullptr) override;
  Result<std::vector<ItemView>> BatchGetViews(
      SimAgent& agent, const std::string& logical,
      const std::vector<std::string>& hash_keys) override;
  Status Scan(SimAgent& agent, const std::string& logical,
              const ScanVisitor& visit) override;
  Status DeleteItem(SimAgent& agent, const std::string& logical,
                    const std::string& hash_key,
                    const std::string& range_key) override;

  /// Storage accounting sums over the logical table's physical shards.
  uint64_t StoredBytes(const std::string& logical) const override;
  uint64_t OverheadBytes(const std::string& logical) const override;
  uint64_t ItemCount(const std::string& logical) const override;
  /// Logical table names (each reported once however many shards back it).
  std::vector<std::string> TableNames() const override;
  /// Visits the logical table's items in (hash, range) key order,
  /// exactly as an unsharded store would — the property behind
  /// cross-architecture fingerprint equality.
  void ForEachItem(const std::string& logical,
                   const ScanVisitor& visit) const override;
  void RestoreItem(const std::string& logical, const Item& item) override;
  Status RestoreTable(const std::string& logical) override;

 private:
  /// Per-physical-shard op counter `service.<svc>.<op>.s<shard>.count`.
  void CountOp(const char* op, int shard);
  /// Sums the accounting query `stat` over `logical`'s physical shards.
  uint64_t SumOverShards(
      const std::string& logical,
      uint64_t (KvStore::*stat)(const std::string&) const) const;

  Deployment& deployment_;
  UsageMeter& meter_;
  common::MetricRegistry& metrics_;
  common::Tracer& tracer_;
  common::Counter& route_metric_;
  common::Counter& fanout_metric_;
  /// Lowercased base service name, e.g. "dynamodb" — metric prefix part.
  std::string service_;
  std::map<std::string, common::Counter*> op_counters_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_SHARDED_KV_STORE_H_
