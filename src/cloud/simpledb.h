#ifndef WEBDEX_CLOUD_SIMPLEDB_H_
#define WEBDEX_CLOUD_SIMPLEDB_H_

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

struct SimpleDbConfig {
  /// Per-API-request round trip; SimpleDB was markedly slower than
  /// DynamoDB (paper Section 8.4).
  Micros request_latency = 40'000;
  /// Global request rate; SimpleDB throttled far earlier than DynamoDB's
  /// provisioned capacity.
  double requests_per_second = 300;
  /// Organic-throttle delay bound on the request rate cap, as in
  /// DynamoDbConfig::max_backlog_micros.  <= 0 (default) queues without
  /// bound, keeping existing runs bit-identical.
  Micros max_backlog_micros = 0;
};

/// Simulated Amazon SimpleDB, the key-value store used by the authors'
/// earlier system [8] and kept here as the Section 8.4 comparison
/// baseline.  The limitations that motivated the move to DynamoDB are
/// modeled faithfully:
///   * attribute values are UTF-8 text of at most 1 KB — no binary blobs,
///     so node-ID lists must be hex-armoured and chunked;
///   * at most 256 attributes per item, 1 KB per attribute name;
///   * lower request throughput and higher latency;
///   * "box usage" machine-hour billing per request.
class SimpleDb final : public ItemStore {
 public:
  SimpleDb(const SimpleDbConfig& config, UsageMeter& meter,
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

  /// SimpleDB billed 45 bytes of storage overhead per item name and per
  /// attribute name-value pair.
  static constexpr uint64_t kPerItemOverheadBytes = 45;
  static constexpr uint64_t kPerAttributeOverheadBytes = 45;

 private:
  Status ValidateItem(const ItemView& item) const;

  /// The gates of every data-plane call: the fault gate at site
  /// `site` + `table`, then the organic throttle gate over the
  /// request-rate cap (a rejected request bills no box usage).
  Status Admit(BilledCall& call, std::string_view site,
               const std::string& table);
  /// One key of a BatchGet: a select of `hash_key`'s items, appended to
  /// `*out`, billed one request per 2500-attribute page at fault site
  /// `sdb.get:` + `table`.
  Status SelectKey(SimAgent& agent, const std::string& table,
                   const std::string& hash_key, std::vector<ItemView>* out);

  SimpleDbConfig config_;
  UsageMeter& meter_;
  ServiceEndpoint endpoint_;
  common::Counter& throttled_metric_;
  OpMetrics batch_put_metrics_;
  OpMetrics get_metrics_;
  OpMetrics scan_metrics_;
  OpMetrics delete_metrics_;
  OpMetrics create_table_metrics_;
  RateLimiter request_limiter_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_SIMPLEDB_H_
