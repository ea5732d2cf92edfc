#include "cloud/kv_store.h"

#include "common/rng.h"

namespace webdex::cloud {

Result<std::vector<Item>> KvStore::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  WEBDEX_ASSIGN_OR_RETURN(std::vector<ItemView> views,
                          BatchGetViews(agent, table, hash_keys));
  return std::vector<Item>(views.begin(), views.end());
}

Status KvStore::BatchPut(SimAgent& agent, const std::string& table,
                         std::span<const Item> items,
                         std::vector<Item>* unprocessed) {
  const std::vector<ItemView> views(items.begin(), items.end());
  if (unprocessed == nullptr) return BatchPutViews(agent, table, views);
  std::vector<ItemView> bounced;
  const Status status = BatchPutViews(agent, table, views, &bounced);
  *unprocessed = std::vector<Item>(bounced.begin(), bounced.end());
  return status;
}

uint64_t FingerprintStore(const KvStore& store) {
  // Hashes each item's dump in turn rather than one dump of the store,
  // which would hold a copy of every item at once.
  uint64_t hash = Fnv1a64({});
  std::string dump;
  const auto append = [&dump](std::string_view field) {
    dump += std::to_string(field.size());
    dump += ':';
    dump += field;
  };
  for (const std::string& table : store.TableNames()) {
    store.ForEachItem(table, [&](const ItemView& item) {
      dump.clear();
      append(table);
      append(item.hash_key);
      append(item.range_key());
      dump += std::to_string(item.attrs().size());
      dump += ';';
      for (const auto& [name, values] : item.attrs()) {
        append(name);
        dump += std::to_string(values.size());
        dump += ';';
        for (const auto& value : values) append(value);
      }
      hash = Fnv1a64(dump, hash);
    });
  }
  return hash;
}

}  // namespace webdex::cloud
