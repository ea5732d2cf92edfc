#include "cloud/sharded_kv_store.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace webdex::cloud {

ShardedKvStore::ShardedKvStore(KvStore* base, Deployment* deployment,
                               UsageMeter* meter,
                               common::MetricRegistry* metrics,
                               common::Tracer* tracer)
    : ForwardingKvStore(base),
      deployment_(deployment),
      meter_(meter),
      metrics_(metrics),
      tracer_(tracer),
      route_metric_(metrics == nullptr
                        ? nullptr
                        : metrics->GetCounter("shard.route.count")),
      fanout_metric_(metrics == nullptr
                         ? nullptr
                         : metrics->GetCounter("shard.fanout.count")) {
  for (const char* p = base_->Name(); *p != '\0'; ++p) {
    service_.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
}

void ShardedKvStore::CountOp(const char* op, int shard) {
  if (metrics_ == nullptr) return;
  std::string key = std::string(op) + ".s" + std::to_string(shard);
  auto it = op_counters_.find(key);
  if (it == op_counters_.end()) {
    common::Counter* counter =
        metrics_->GetCounter("service." + service_ + "." + key + ".count");
    it = op_counters_.emplace(std::move(key), counter).first;
  }
  it->second->Add(1);
}

Status ShardedKvStore::CreateTable(SimAgent& agent,
                                   const std::string& logical) {
  for (int shard = 0; shard < deployment_->spec().shards; ++shard) {
    CountOp("create_table", shard);
    Status status =
        base_->CreateTable(agent, deployment_->PhysicalName(logical, shard));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

bool ShardedKvStore::HasTable(const std::string& logical) const {
  // Shards are created together, so shard 0 witnesses the logical table.
  return base_->HasTable(deployment_->PhysicalName(logical, 0));
}

Status ShardedKvStore::BatchPut(SimAgent& agent, const std::string& logical,
                                std::span<const Item> items,
                                std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  const int shards = deployment_->spec().shards;
  std::vector<std::vector<Item>> per_shard(static_cast<size_t>(shards));
  for (const Item& item : items) {
    per_shard[static_cast<size_t>(deployment_->ShardFor(item.hash_key))]
        .push_back(item);
  }
  if (route_metric_ != nullptr) route_metric_->Add(items.size());
  int touched = 0;
  for (const auto& group : per_shard) {
    if (!group.empty()) ++touched;
  }
  if (touched > 1 && fanout_metric_ != nullptr) fanout_metric_->Add(1);
  std::vector<Item> bounced;
  for (int shard = 0; shard < shards; ++shard) {
    auto& group = per_shard[static_cast<size_t>(shard)];
    if (group.empty()) continue;
    CountOp("batch_put", shard);
    bounced.clear();
    Status status =
        base_->BatchPut(agent, deployment_->PhysicalName(logical, shard),
                        group, unprocessed == nullptr ? nullptr : &bounced);
    if (unprocessed != nullptr) {
      unprocessed->insert(unprocessed->end(),
                          std::make_move_iterator(bounced.begin()),
                          std::make_move_iterator(bounced.end()));
    }
    if (!status.ok()) {
      // "Everything not stored" contract: the failed shard reported its
      // own survivors above; the shards never attempted contribute all
      // of their items.
      if (unprocessed != nullptr) {
        for (int rest = shard + 1; rest < shards; ++rest) {
          auto& pending = per_shard[static_cast<size_t>(rest)];
          unprocessed->insert(unprocessed->end(),
                              std::make_move_iterator(pending.begin()),
                              std::make_move_iterator(pending.end()));
        }
      }
      return status;
    }
  }
  return Status::OK();
}

Result<std::vector<Item>> ShardedKvStore::BatchGet(
    SimAgent& agent, const std::string& logical,
    const std::vector<std::string>& hash_keys) {
  const int shards = deployment_->spec().shards;
  std::vector<std::vector<std::string>> per_shard(
      static_cast<size_t>(shards));
  for (const std::string& key : hash_keys) {
    per_shard[static_cast<size_t>(deployment_->ShardFor(key))].push_back(key);
  }
  if (route_metric_ != nullptr) route_metric_->Add(hash_keys.size());
  std::vector<std::vector<Item>> shard_results(static_cast<size_t>(shards));
  int touched = 0;
  for (int shard = 0; shard < shards; ++shard) {
    auto& keys = per_shard[static_cast<size_t>(shard)];
    if (keys.empty()) continue;
    ++touched;
    CountOp("batch_get", shard);
    auto result =
        base_->BatchGet(agent, deployment_->PhysicalName(logical, shard), keys);
    if (!result.status().ok()) return result.status();
    shard_results[static_cast<size_t>(shard)] = std::move(result).value();
  }
  if (touched > 1 && fanout_metric_ != nullptr) fanout_metric_->Add(1);
  // Reassemble the unsharded store's documented order — each requested
  // key's items in request order — by consuming, per shard, the
  // consecutive run of items matching the next requested key.  (Assumes
  // a key is not requested twice, which holds for the planner's deduped
  // lookup sets; duplicates would merely merge their runs.)
  std::vector<Item> out;
  std::vector<size_t> cursor(static_cast<size_t>(shards), 0);
  for (const std::string& key : hash_keys) {
    const auto shard = static_cast<size_t>(deployment_->ShardFor(key));
    auto& items = shard_results[shard];
    size_t& pos = cursor[shard];
    while (pos < items.size() && items[pos].hash_key == key) {
      out.push_back(std::move(items[pos]));
      ++pos;
    }
  }
  return out;
}

Result<std::vector<Item>> ShardedKvStore::Scan(SimAgent& agent,
                                               const std::string& logical) {
  const int shards = deployment_->spec().shards;
  MeteredSpan span(tracer_, meter_, agent, "shard.fanout");
  span.AddAttr("shards", shards);
  if (fanout_metric_ != nullptr) fanout_metric_->Add(1);
  std::vector<Item> out;
  for (int shard = 0; shard < shards; ++shard) {
    CountOp("scan", shard);
    auto result =
        base_->Scan(agent, deployment_->PhysicalName(logical, shard));
    if (!result.status().ok()) {
      span.AddAttr("error", 1);
      return result.status();
    }
    auto items = std::move(result).value();
    out.insert(out.end(), std::make_move_iterator(items.begin()),
               std::make_move_iterator(items.end()));
  }
  // Restore the unsharded store's deterministic (hash, range) key order.
  std::sort(out.begin(), out.end(), [](const Item& a, const Item& b) {
    if (a.hash_key != b.hash_key) return a.hash_key < b.hash_key;
    return a.range_key < b.range_key;
  });
  return out;
}

Status ShardedKvStore::DeleteItem(SimAgent& agent, const std::string& logical,
                                  const std::string& hash_key,
                                  const std::string& range_key) {
  const int shard = deployment_->ShardFor(hash_key);
  CountOp("delete_item", shard);
  if (route_metric_ != nullptr) route_metric_->Add(1);
  return base_->DeleteItem(agent, deployment_->PhysicalName(logical, shard),
                           hash_key, range_key);
}

uint64_t ShardedKvStore::SumOverShards(
    const std::string& logical,
    uint64_t (KvStore::*stat)(const std::string&) const) const {
  uint64_t total = 0;
  for (const std::string& physical : deployment_->PhysicalTables(logical)) {
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
    logical.insert(deployment_->LogicalName(physical));
  }
  return {logical.begin(), logical.end()};
}

void ShardedKvStore::ForEachItem(
    const std::function<void(const std::string&, const Item&)>& fn) const {
  // Fold physical tables back to logical ones and restore the unsharded
  // store's per-table (hash, range) iteration order, so logical dumps —
  // and FingerprintStore() over them — are identical across shard counts.
  std::map<std::string, std::vector<Item>> logical_tables;
  base_->ForEachItem([&](const std::string& physical, const Item& item) {
    logical_tables[deployment_->LogicalName(physical)].push_back(item);
  });
  for (auto& [logical, items] : logical_tables) {
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.hash_key != b.hash_key) return a.hash_key < b.hash_key;
      return a.range_key < b.range_key;
    });
    for (const Item& item : items) fn(logical, item);
  }
}

void ShardedKvStore::RestoreItem(const std::string& logical,
                                 const Item& item) {
  base_->RestoreItem(
      deployment_->PhysicalName(logical, deployment_->ShardFor(item.hash_key)),
      item);
}

Status ShardedKvStore::RestoreTable(const std::string& logical) {
  for (int shard = 0; shard < deployment_->spec().shards; ++shard) {
    Status status =
        base_->RestoreTable(deployment_->PhysicalName(logical, shard));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace webdex::cloud
