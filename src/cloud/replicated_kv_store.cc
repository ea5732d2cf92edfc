#include "cloud/replicated_kv_store.h"

#include <algorithm>

namespace webdex::cloud {

ReplicatedKvStore::ReplicatedKvStore(KvStore* base, Deployment* deployment,
                                     UsageMeter* meter,
                                     common::MetricRegistry* metrics,
                                     common::Tracer* tracer)
    : ForwardingKvStore(base),
      deployment_(deployment),
      meter_(meter),
      tracer_(tracer),
      primary_reads_metric_(metrics == nullptr
                                ? nullptr
                                : metrics->GetCounter("replica.primary.count")),
      lag_metric_(metrics == nullptr ? nullptr
                                     : metrics->GetHistogram("replica.lag_us")) {
}

Status ReplicatedKvStore::BatchPut(SimAgent& agent, const std::string& table,
                                   std::span<const Item> items,
                                   std::vector<Item>* unprocessed) {
  Status status = base_->BatchPut(agent, table, items, unprocessed);
  // Even a failed round may have committed a prefix; moving the watermark
  // on every attempt is the conservative (read-your-writes-safe) choice.
  deployment_->RecordWrite(table, agent.now());
  return status;
}

template <typename Call>
Result<std::vector<Item>> ReplicatedKvStore::Read(
    SimAgent& agent, const std::string& table,
    const std::string* replica_key, const Call& call) {
  if (replica_key == nullptr ||
      !deployment_->ReplicaReadable(table, agent.now())) {
    if (primary_reads_metric_ != nullptr) primary_reads_metric_->Add(1);
    return call();
  }
  MeteredSpan span(tracer_, meter_, agent, "replica.read");
  span.AddAttr("replica", deployment_->ReplicaFor(table, *replica_key));
  const Usage before = meter_->Snapshot();
  auto result = call();
  if (!result.status().ok()) return result;
  const Micros mark = deployment_->Watermark(table);
  const Micros lag = mark == 0 ? 0 : agent.now() - mark;
  span.AddAttr("lag_us", static_cast<double>(lag));
  // Eventually-consistent reads cost half the strongly-consistent price
  // (as DynamoDB prices them): refund half of whatever read capacity the
  // primary-path call just metered.  Request counts, latency and bytes
  // are untouched — a replica moves the same data over the same wire.
  Usage& u = meter_->mutable_usage();
  u.ddb_read_units -= 0.5 * (u.ddb_read_units - before.ddb_read_units);
  u.ddb_ondemand_read_units -=
      0.5 * (u.ddb_ondemand_read_units - before.ddb_ondemand_read_units);
  u.sdb_box_hours -= 0.5 * (u.sdb_box_hours - before.sdb_box_hours);
  u.replica_reads += 1;
  if (lag_metric_ != nullptr) lag_metric_->Record(static_cast<double>(lag));
  return result;
}

Result<std::vector<Item>> ReplicatedKvStore::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  // An empty batch has no key to pick a replica by: the primary serves it.
  return Read(agent, table, hash_keys.empty() ? nullptr : &hash_keys.front(),
              [&] { return base_->BatchGet(agent, table, hash_keys); });
}

Result<std::vector<Item>> ReplicatedKvStore::Scan(SimAgent& agent,
                                                  const std::string& table) {
  const std::string whole_table;
  return Read(agent, table, &whole_table,
              [&] { return base_->Scan(agent, table); });
}

Status ReplicatedKvStore::DeleteItem(SimAgent& agent, const std::string& table,
                                     const std::string& hash_key,
                                     const std::string& range_key) {
  Status status = base_->DeleteItem(agent, table, hash_key, range_key);
  deployment_->RecordWrite(table, agent.now());
  return status;
}

}  // namespace webdex::cloud
