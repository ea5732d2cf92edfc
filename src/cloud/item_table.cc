#include "cloud/item_table.h"

#include <algorithm>
#include <cstring>

#include "common/varint.h"

namespace webdex::cloud {
namespace {

// Records are written and read only by this file, so the decoder trusts
// its input: lengths and counts are common/varint.h's LEB128 varints.
uint64_t ReadVarint(const char** p) {
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<uint8_t>(*(*p)++);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return value;
  }
}

char* WriteBytes(char* p, std::string_view bytes) {
  p = EncodeVarint64(p, bytes.size());
  if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
  return p + bytes.size();
}

std::string_view ReadBytes(const char** p) {
  const uint64_t size = ReadVarint(p);
  const std::string_view bytes(*p, size);
  *p += size;
  return bytes;
}

/// An item's billable size (Item::SizeBytes) and value count.
struct Tally {
  uint64_t bytes = 0;
  uint64_t values = 0;
};

/// Walks a record's attributes without materializing them.
Tally MeasureRecord(size_t hash_size, std::string_view record,
                    size_t range_size) {
  Tally tally{hash_size + range_size, 0};
  const char* p = record.data() + range_size;
  for (uint64_t attrs = ReadVarint(&p); attrs > 0; --attrs) {
    tally.bytes += ReadBytes(&p).size();
    const uint64_t values = ReadVarint(&p);
    tally.values += values;
    for (uint64_t i = 0; i < values; ++i) tally.bytes += ReadBytes(&p).size();
  }
  return tally;
}

}  // namespace

ItemTable::Slot ItemTable::Encode(const Item& item) {
  uint64_t size = item.range_key.size() + VarintLength(item.attrs.size());
  for (const auto& [name, values] : item.attrs) {
    size += VarintLength(name.size()) + name.size() +
            VarintLength(values.size());
    for (const auto& v : values) size += VarintLength(v.size()) + v.size();
  }
  Slot slot{item.range_key.size(), std::string(size, '\0')};
  char* p = slot.record.data();
  if (!item.range_key.empty()) {
    std::memcpy(p, item.range_key.data(), item.range_key.size());
    p += item.range_key.size();
  }
  p = EncodeVarint64(p, item.attrs.size());
  for (const auto& [name, values] : item.attrs) {
    p = WriteBytes(p, name);
    p = EncodeVarint64(p, values.size());
    for (const auto& v : values) p = WriteBytes(p, v);
  }
  return slot;
}

ItemTable::Slots::iterator ItemTable::Seek(
    Slots& slots, std::string_view range_key) {
  return std::lower_bound(slots.begin(), slots.end(), range_key,
                          [](const Slot& slot, std::string_view range) {
                            return slot.range_key() < range;
                          });
}

uint64_t ItemTable::Forget(std::string_view hash_key, const Slot& slot) {
  const Tally tally =
      MeasureRecord(hash_key.size(), slot.record, slot.range_size);
  stored_bytes_ -= tally.bytes;
  item_count_ -= 1;
  value_count_ -= tally.values;
  return tally.bytes;
}

Item ItemTable::Decode(std::string_view hash_key, const Slot& slot) {
  Item item{std::string(hash_key), std::string(slot.range_key()), {}};
  const char* p = slot.record.data() + slot.range_size;
  for (uint64_t attrs = ReadVarint(&p); attrs > 0; --attrs) {
    const std::string_view name = ReadBytes(&p);
    // Records hold attributes in map order, so each lands at the end.
    AttributeValues& values =
        item.attrs.emplace_hint(item.attrs.end(), name, AttributeValues{})
            ->second;
    const uint64_t count = ReadVarint(&p);
    values.reserve(count);
    for (uint64_t i = 0; i < count; ++i) values.emplace_back(ReadBytes(&p));
  }
  return item;
}

void ItemTable::Put(const Item& item) {
  Slot slot = Encode(item);
  Slots& slots = index_.try_emplace(item.hash_key).first->second;
  auto pos = Seek(slots, item.range_key);
  if (pos != slots.end() && pos->range_key() == item.range_key) {
    Forget(item.hash_key, *pos);
    *pos = std::move(slot);
  } else {
    slots.insert(pos, std::move(slot));
  }
  stored_bytes_ += item.SizeBytes();
  item_count_ += 1;
  value_count_ += CountValues(item.attrs);
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

template <typename Fn>
void ItemTable::ForEach(const Fn& fn) const {
  for (const auto& [hash_key, slots] : index_) {
    for (const Slot& slot : slots) fn(Decode(hash_key, slot));
  }
}

void ItemTable::AppendItems(std::string_view hash_key,
                            std::vector<Item>* out) const {
  auto hit = index_.find(hash_key);
  if (hit == index_.end()) return;
  for (const Slot& slot : hit->second) {
    out->push_back(Decode(hit->first, slot));
  }
}

void ItemTable::AppendAll(std::vector<Item>* out) const {
  out->reserve(out->size() + item_count_);
  ForEach([out](Item&& item) { out->push_back(std::move(item)); });
}

uint64_t ItemTable::CountValues(const Attributes& attrs) {
  uint64_t n = 0;
  for (const auto& [name, values] : attrs) {
    (void)name;
    n += values.size();
  }
  return n;
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
    table.ForEach([&](const Item& item) { fn(name, item); });
  }
}

void ItemStore::RestoreItem(const std::string& table, const Item& item) {
  tables_[table].Put(item);
}

}  // namespace webdex::cloud
