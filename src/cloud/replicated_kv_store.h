#ifndef WEBDEX_CLOUD_REPLICATED_KV_STORE_H_
#define WEBDEX_CLOUD_REPLICATED_KV_STORE_H_

#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cloud/deployment.h"
#include "cloud/kv_store.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// KvStore decorator that models a pool of read replicas per physical
/// table (docs/ARCHITECTURES.md).  Writes go to the primary and advance
/// the table's replication watermark in the shared Deployment; reads are
/// served eventually-consistently from a deterministically chosen replica
/// at half the read price once the replication lag has elapsed since the
/// table's last write, and fall back to the primary (read-your-writes,
/// full price) while the watermark is still fresh.
///
/// Replica reads return the exact same bytes as primary reads — only the
/// Usage (and hence dollars) differ, which is what keeps every
/// architecture's query rows bit-identical (architecture_test.cc).  The
/// half price mirrors DynamoDB's eventually-consistent read pricing.
///
/// Sits *below* ShardedKvStore (it prices physical tables) and *above*
/// RetryingKvStore in the stack, so the retry loop and breaker still see
/// the same table names and jitter streams as an unreplicated run.
class ReplicatedKvStore final : public ForwardingKvStore {
 public:
  /// `deployment` must outlive the store and have replicas > 0.
  ReplicatedKvStore(KvStore* base, Deployment& deployment, UsageMeter& meter,
                    common::MetricRegistry& metrics, common::Tracer& tracer);

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

 private:
  /// One read verb: `call` (the base store's read) served by a replica —
  /// a `replica.read` span with `replica`/`lag_us` attrs and half-price
  /// read units — when the table's watermark has aged past the lag, else
  /// by the primary.  A null `replica_key` always reads the primary.
  template <typename Call>
  std::invoke_result_t<const Call&> Read(SimAgent& agent,
                                         const std::string& table,
                                         const std::string* replica_key,
                                         const Call& call);

  Deployment& deployment_;
  UsageMeter& meter_;
  common::Tracer& tracer_;
  common::Counter& primary_reads_metric_;
  common::Histogram& lag_metric_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_REPLICATED_KV_STORE_H_
