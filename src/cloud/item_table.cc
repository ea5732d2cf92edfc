#include "cloud/item_table.h"

#include <algorithm>
#include <cstring>

namespace webdex::cloud {

ItemTable::Slots::iterator ItemTable::Seek(
    Slots& slots, std::string_view range_key) {
  return std::lower_bound(slots.begin(), slots.end(), range_key,
                          [](const Slot& slot, std::string_view range) {
                            return slot.range_key() < range;
                          });
}

uint64_t ItemTable::Forget(std::string_view hash_key, const Slot& slot) {
  const uint64_t bytes = hash_key.size() + slot.payload_bytes;
  stored_bytes_ -= bytes;
  item_count_ -= 1;
  value_count_ -= slot.value_count;
  return bytes;
}

Item ItemTable::Copy(const std::string& hash_key, const Slot& slot) {
  Item item;
  item.hash_key = hash_key;
  item.record_.assign(slot.record.get(), slot.size);
  item.range_size_ = slot.range_size;
  item.value_count_ = slot.value_count;
  item.payload_bytes_ = slot.payload_bytes;
  return item;
}

void ItemTable::Put(const Item& item) {
  const std::string& record = item.record();
  Slot slot{std::make_unique_for_overwrite<char[]>(record.size()),
            static_cast<uint32_t>(record.size()), item.range_size_,
            item.value_count_, static_cast<uint32_t>(item.payload_bytes_)};
  std::memcpy(slot.record.get(), record.data(), record.size());
  Slots& slots = index_.try_emplace(item.hash_key).first->second;
  auto pos = Seek(slots, item.range_key());
  if (pos != slots.end() && pos->range_key() == item.range_key()) {
    Forget(item.hash_key, *pos);
    *pos = std::move(slot);
  } else {
    slots.insert(pos, std::move(slot));
  }
  stored_bytes_ += item.SizeBytes();
  item_count_ += 1;
  value_count_ += item.ValueCount();
}

std::optional<uint64_t> ItemTable::Erase(std::string_view hash_key,
                                         std::string_view range_key) {
  auto hit = index_.find(hash_key);
  if (hit == index_.end()) return std::nullopt;
  Slots& slots = hit->second;
  auto pos = Seek(slots, range_key);
  if (pos == slots.end() || pos->range_key() != range_key) {
    return std::nullopt;
  }
  const uint64_t bytes = Forget(hash_key, *pos);
  slots.erase(pos);
  if (slots.empty()) index_.erase(hit);
  return bytes;
}

void ItemTable::AppendItems(std::string_view hash_key,
                            std::vector<Item>* out) const {
  auto hit = index_.find(hash_key);
  if (hit == index_.end()) return;
  for (const Slot& slot : hit->second) {
    out->push_back(Copy(hit->first, slot));
  }
}

void ItemTable::AppendAll(std::vector<Item>* out) const {
  out->reserve(out->size() + item_count_);
  for (const auto& [hash_key, slots] : index_) {
    for (const Slot& slot : slots) out->push_back(Copy(hash_key, slot));
  }
}

ItemStore::ItemStore(const char* name, const char* noun,
                     const StoreLimits& limits, uint64_t item_overhead_bytes,
                     uint64_t value_overhead_bytes)
    : name_(name),
      noun_(noun),
      limits_(limits),
      item_overhead_bytes_(item_overhead_bytes),
      value_overhead_bytes_(value_overhead_bytes) {}

Status ItemStore::Create(const std::string& table) {
  if (!tables_.try_emplace(table).second) {
    return Status::AlreadyExists(std::string(noun_) + " exists: " + table);
  }
  return Status::OK();
}

Result<ItemTable*> ItemStore::Open(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such " + std::string(noun_) + ": " + table);
  }
  return &it->second;
}

const ItemTable& ItemStore::Lookup(const std::string& table) const {
  static const ItemTable kEmpty;
  auto it = tables_.find(table);
  return it == tables_.end() ? kEmpty : it->second;
}

uint64_t ItemStore::OverheadBytes(const std::string& table) const {
  const ItemTable& t = Lookup(table);
  return t.item_count() * item_overhead_bytes_ +
         t.value_count() * value_overhead_bytes_;
}

std::vector<std::string> ItemStore::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

void ItemStore::ForEachItem(
    const std::function<void(const std::string&, const Item&)>& fn) const {
  for (const auto& [name, table] : tables_) {
    for (const auto& [hash_key, slots] : table.index_) {
      for (const ItemTable::Slot& slot : slots) {
        fn(name, ItemTable::Copy(hash_key, slot));
      }
    }
  }
}

void ItemStore::RestoreItem(const std::string& table, const Item& item) {
  tables_[table].Put(item);
}

}  // namespace webdex::cloud
