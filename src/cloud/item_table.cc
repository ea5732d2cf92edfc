#include "cloud/item_table.h"

namespace webdex::cloud {
namespace {

/// Adds one item's size, count and values to `table`'s accounting (or
/// takes them out); returns its billable size, as Item::SizeBytes.
uint64_t Tally(ItemTable::Table& table, const std::string& hash_key,
               const std::string& range_key, const Attributes& attrs,
               bool add) {
  uint64_t bytes = hash_key.size() + range_key.size();
  uint64_t values = 0;
  for (const auto& [name, attr_values] : attrs) {
    bytes += name.size();
    for (const auto& v : attr_values) bytes += v.size();
    values += attr_values.size();
  }
  if (add) {
    table.stored_bytes += bytes;
    table.item_count += 1;
    table.value_count += values;
  } else {
    table.stored_bytes -= bytes;
    table.item_count -= 1;
    table.value_count -= values;
  }
  return bytes;
}

}  // namespace

void ItemTable::Table::Put(const Item& item) {
  auto [slot, inserted] =
      items[item.hash_key].try_emplace(item.range_key, item.attrs);
  if (!inserted) {
    Tally(*this, item.hash_key, item.range_key, slot->second, /*add=*/false);
    slot->second = item.attrs;
  }
  Tally(*this, item.hash_key, item.range_key, item.attrs, /*add=*/true);
}

std::optional<uint64_t> ItemTable::Table::Erase(const std::string& hash_key,
                                                const std::string& range_key) {
  auto hit = items.find(hash_key);
  if (hit == items.end()) return std::nullopt;
  auto slot = hit->second.find(range_key);
  if (slot == hit->second.end()) return std::nullopt;
  const uint64_t bytes =
      Tally(*this, hash_key, range_key, slot->second, /*add=*/false);
  hit->second.erase(slot);
  if (hit->second.empty()) items.erase(hit);
  return bytes;
}

uint64_t ItemTable::CountValues(const Attributes& attrs) {
  uint64_t n = 0;
  for (const auto& [name, values] : attrs) {
    (void)name;
    n += values.size();
  }
  return n;
}

bool ItemTable::Create(const std::string& name) {
  return tables_.try_emplace(name).second;
}

ItemTable::Table* ItemTable::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const ItemTable::Table& ItemTable::Lookup(const std::string& name) const {
  static const Table kEmpty;
  auto it = tables_.find(name);
  return it == tables_.end() ? kEmpty : it->second;
}

void ItemTable::Restore(const std::string& name, const Item& item) {
  tables_[name].Put(item);
}

std::vector<std::string> ItemTable::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

void ItemTable::ForEachItem(
    const std::function<void(const std::string&, const Item&)>& fn) const {
  for (const auto& [name, table] : tables_) {
    for (const auto& [hash_key, ranges] : table.items) {
      for (const auto& [range_key, attrs] : ranges) {
        fn(name, Item{hash_key, range_key, attrs});
      }
    }
  }
}

}  // namespace webdex::cloud
