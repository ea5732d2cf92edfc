#include "cloud/sharded_kv_store.h"

#include <cctype>
#include <set>

namespace webdex::cloud {
namespace {

/// Visits the items of one logical table's shard `runs`, each in (hash,
/// range) order, in the unsharded store's order: a hash key lives on one
/// shard, so merging the runs restores it.  Scan and ForEachItem share it.
void MergeRuns(const std::vector<std::vector<ItemView>>& runs,
               const KvStore::ScanVisitor& visit) {
  std::vector<size_t> next(runs.size(), 0);
  for (;;) {
    const ItemView* least = nullptr;
    size_t from = 0;
    for (size_t shard = 0; shard < runs.size(); ++shard) {
      if (next[shard] == runs[shard].size()) continue;
      const ItemView& head = runs[shard][next[shard]];
      if (least == nullptr || head.hash_key < least->hash_key ||
          (head.hash_key == least->hash_key &&
           head.range_key() < least->range_key())) {
        least = &head;
        from = shard;
      }
    }
    if (least == nullptr) return;
    visit(*least);
    ++next[from];
  }
}

}  // namespace

ShardedKvStore::ShardedKvStore(KvStore* base, Deployment& deployment,
                               UsageMeter& meter,
                               common::MetricRegistry& metrics,
                               common::Tracer& tracer)
    : ForwardingKvStore(base),
      deployment_(deployment),
      meter_(meter),
      metrics_(metrics),
      tracer_(tracer),
      route_metric_(*metrics.GetCounter("shard.route.count")),
      fanout_metric_(*metrics.GetCounter("shard.fanout.count")) {
  for (const char* p = base_->Name(); *p != '\0'; ++p) {
    service_.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
}

void ShardedKvStore::CountOp(const char* op, int shard) {
  std::string key = std::string(op) + ".s" + std::to_string(shard);
  auto it = op_counters_.find(key);
  if (it == op_counters_.end()) {
    common::Counter* counter =
        metrics_.GetCounter("service." + service_ + "." + key + ".count");
    it = op_counters_.emplace(std::move(key), counter).first;
  }
  it->second->Add(1);
}

Status ShardedKvStore::CreateTable(SimAgent& agent,
                                   const std::string& logical) {
  for (int shard = 0; shard < deployment_.spec().shards; ++shard) {
    CountOp("create_table", shard);
    Status status =
        base_->CreateTable(agent, deployment_.PhysicalName(logical, shard));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

bool ShardedKvStore::HasTable(const std::string& logical) const {
  // Shards are created together, so shard 0 witnesses the logical table.
  return base_->HasTable(deployment_.PhysicalName(logical, 0));
}

Status ShardedKvStore::BatchPutViews(SimAgent& agent,
                                     const std::string& logical,
                                     std::span<const ItemView> items,
                                     std::vector<ItemView>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  const int shards = deployment_.spec().shards;
  // Routes views: each shard's group borrows the caller's bytes.
  std::vector<std::vector<ItemView>> per_shard(static_cast<size_t>(shards));
  for (const ItemView& item : items) {
    per_shard[static_cast<size_t>(deployment_.ShardFor(item.hash_key))]
        .push_back(item);
  }
  route_metric_.Add(items.size());
  int touched = 0;
  for (const auto& group : per_shard) {
    if (!group.empty()) ++touched;
  }
  if (touched > 1) fanout_metric_.Add(1);
  std::vector<ItemView> bounced;
  for (int shard = 0; shard < shards; ++shard) {
    const auto& group = per_shard[static_cast<size_t>(shard)];
    if (group.empty()) continue;
    CountOp("batch_put", shard);
    Status status = base_->BatchPutViews(
        agent, deployment_.PhysicalName(logical, shard), group,
        unprocessed == nullptr ? nullptr : &bounced);
    if (unprocessed != nullptr) {
      unprocessed->insert(unprocessed->end(), bounced.begin(),
                          bounced.end());
    }
    if (!status.ok()) {
      // "Everything not stored" contract: the failed shard reported its
      // own survivors above; the shards never attempted contribute all
      // of their items.
      if (unprocessed != nullptr) {
        for (int rest = shard + 1; rest < shards; ++rest) {
          const auto& pending = per_shard[static_cast<size_t>(rest)];
          unprocessed->insert(unprocessed->end(), pending.begin(),
                              pending.end());
        }
      }
      return status;
    }
  }
  return Status::OK();
}

Result<std::vector<ItemView>> ShardedKvStore::BatchGetViews(
    SimAgent& agent, const std::string& logical,
    const std::vector<std::string>& hash_keys) {
  const int shards = deployment_.spec().shards;
  std::vector<std::vector<std::string>> per_shard(
      static_cast<size_t>(shards));
  for (const std::string& key : hash_keys) {
    per_shard[static_cast<size_t>(deployment_.ShardFor(key))].push_back(key);
  }
  route_metric_.Add(hash_keys.size());
  std::vector<std::vector<ItemView>> shard_results(
      static_cast<size_t>(shards));
  int touched = 0;
  for (int shard = 0; shard < shards; ++shard) {
    auto& keys = per_shard[static_cast<size_t>(shard)];
    if (keys.empty()) continue;
    ++touched;
    CountOp("batch_get", shard);
    auto result = base_->BatchGetViews(
        agent, deployment_.PhysicalName(logical, shard), keys);
    if (!result.status().ok()) return result.status();
    shard_results[static_cast<size_t>(shard)] = std::move(result).value();
  }
  if (touched > 1) fanout_metric_.Add(1);
  // Reassemble the unsharded store's documented order — each requested
  // key's items in request order — by consuming, per shard, the
  // consecutive run of items matching the next requested key.  (Assumes
  // a key is not requested twice, which holds for the planner's deduped
  // lookup sets; duplicates would merely merge their runs.)
  std::vector<ItemView> out;
  std::vector<size_t> cursor(static_cast<size_t>(shards), 0);
  for (const std::string& key : hash_keys) {
    const auto shard = static_cast<size_t>(deployment_.ShardFor(key));
    const auto& items = shard_results[shard];
    size_t& pos = cursor[shard];
    while (pos < items.size() && items[pos].hash_key == key) {
      out.push_back(items[pos++]);
    }
  }
  return out;
}

Status ShardedKvStore::Scan(SimAgent& agent, const std::string& logical,
                            const ScanVisitor& visit) {
  const int shards = deployment_.spec().shards;
  MeteredSpan span(tracer_, meter_, agent, "shard.fanout");
  span.AddAttr("shards", shards);
  fanout_metric_.Add(1);
  // Every shard is billed before anything is visited.  Reads never
  // invalidate views, so each shard's run stays valid through the merge.
  std::vector<std::vector<ItemView>> runs(static_cast<size_t>(shards));
  for (int shard = 0; shard < shards; ++shard) {
    CountOp("scan", shard);
    auto& run = runs[static_cast<size_t>(shard)];
    const Status status =
        base_->Scan(agent, deployment_.PhysicalName(logical, shard),
                    [&run](const ItemView& item) { run.push_back(item); });
    if (!status.ok()) {
      span.AddAttr("error", 1);
      return status;
    }
  }
  MergeRuns(runs, visit);
  return Status::OK();
}

Status ShardedKvStore::DeleteItem(SimAgent& agent, const std::string& logical,
                                  const std::string& hash_key,
                                  const std::string& range_key) {
  const int shard = deployment_.ShardFor(hash_key);
  CountOp("delete_item", shard);
  route_metric_.Add(1);
  return base_->DeleteItem(agent, deployment_.PhysicalName(logical, shard),
                           hash_key, range_key);
}

uint64_t ShardedKvStore::SumOverShards(
    const std::string& logical,
    uint64_t (KvStore::*stat)(const std::string&) const) const {
  uint64_t total = 0;
  for (const std::string& physical : deployment_.PhysicalTables(logical)) {
    total += (base_->*stat)(physical);
  }
  return total;
}

uint64_t ShardedKvStore::StoredBytes(const std::string& logical) const {
  return SumOverShards(logical, &KvStore::StoredBytes);
}

uint64_t ShardedKvStore::OverheadBytes(const std::string& logical) const {
  return SumOverShards(logical, &KvStore::OverheadBytes);
}

uint64_t ShardedKvStore::ItemCount(const std::string& logical) const {
  return SumOverShards(logical, &KvStore::ItemCount);
}

std::vector<std::string> ShardedKvStore::TableNames() const {
  std::set<std::string> logical;
  for (const std::string& physical : base_->TableNames()) {
    logical.insert(deployment_.LogicalName(physical));
  }
  return {logical.begin(), logical.end()};
}

void ShardedKvStore::ForEachItem(const std::string& logical,
                                 const ScanVisitor& visit) const {
  std::vector<std::vector<ItemView>> runs;
  for (const std::string& physical : deployment_.PhysicalTables(logical)) {
    auto& run = runs.emplace_back();
    base_->ForEachItem(physical,
                       [&run](const ItemView& item) { run.push_back(item); });
  }
  MergeRuns(runs, visit);
}

void ShardedKvStore::RestoreItem(const std::string& logical,
                                 const Item& item) {
  base_->RestoreItem(
      deployment_.PhysicalName(logical, deployment_.ShardFor(item.hash_key)),
      item);
}

Status ShardedKvStore::RestoreTable(const std::string& logical) {
  for (int shard = 0; shard < deployment_.spec().shards; ++shard) {
    Status status =
        base_->RestoreTable(deployment_.PhysicalName(logical, shard));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace webdex::cloud
