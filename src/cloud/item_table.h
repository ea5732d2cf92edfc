#ifndef WEBDEX_CLOUD_ITEM_TABLE_H_
#define WEBDEX_CLOUD_ITEM_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/kv_store.h"

namespace webdex::cloud {

/// One table of a simulated key-value store: items keyed (hash key,
/// range key), plus the size accounting the stores bill storage from.
/// Host-side only — nothing here is billed or advances virtual time.
///
/// The table keeps every item once: its encoded record (cloud/item.h) in
/// an exactly sized buffer, with the tallies the item was built with.  A
/// hash-key index maps each hash key to its records, sorted by range
/// key, so the hash key is stored once per key.  Replacing or erasing an
/// item frees its record, so upserts, deletes and compaction hold no dead
/// bytes.  Puts copy the record and reads hand out copies of it; neither
/// walks the attributes.
class ItemTable {
 public:
  /// Stores a copy of `item`.  An item with the same (hash, range) key
  /// is completely replaced (Section 6): its size, count and values
  /// leave the accounting before the new item's enter it.
  void Put(const Item& item);
  /// Erases the item keyed (hash_key, range_key); returns its billable
  /// size, or nullopt when no such item exists.
  std::optional<uint64_t> Erase(std::string_view hash_key,
                                std::string_view range_key);

  /// Appends the items of `hash_key` to `*out` in range-key order.
  void AppendItems(std::string_view hash_key, std::vector<Item>* out) const;
  /// Appends every item to `*out` in (hash, range) key order.
  void AppendAll(std::vector<Item>* out) const;

  uint64_t stored_bytes() const { return stored_bytes_; }  // Σ SizeBytes
  uint64_t item_count() const { return item_count_; }
  /// Attribute values, summed over items.
  uint64_t value_count() const { return value_count_; }

 private:
  /// One stored item: its record and tallies (Item's, which the stores'
  /// item limits keep far below 4 GB).
  struct Slot {
    std::unique_ptr<char[]> record;
    uint32_t size = 0;
    uint32_t range_size = 0;
    uint32_t value_count = 0;
    uint32_t payload_bytes = 0;
    std::string_view range_key() const { return {record.get(), range_size}; }
  };
  using Slots = std::vector<Slot>;

  /// The first slot whose range key is not below `range_key`.
  static Slots::iterator Seek(Slots& slots, std::string_view range_key);
  /// Takes the record at `slot` out of the accounting; returns its
  /// billable size.
  uint64_t Forget(std::string_view hash_key, const Slot& slot);
  static Item Copy(const std::string& hash_key, const Slot& slot);

  friend class ItemStore;

  std::map<std::string, Slots, std::less<>> index_;  // hash key -> slots
  uint64_t stored_bytes_ = 0;
  uint64_t item_count_ = 0;
  uint64_t value_count_ = 0;
};

/// The base of the simulated key-value stores (DynamoDb, SimpleDb):
/// named ItemTables, their storage accounting and the unbilled host-side
/// tooling.  The store's name, limits and storage overhead are
/// constructor data; a backend adds its billed verbs, item validation,
/// pricing and latency.
class ItemStore : public KvStore {
 public:
  ItemStore(const ItemStore&) = delete;
  ItemStore& operator=(const ItemStore&) = delete;

  bool HasTable(const std::string& table) const override {
    return tables_.count(table) > 0;
  }
  const char* Name() const override { return name_; }
  const StoreLimits& Limits() const override { return limits_; }

  uint64_t StoredBytes(const std::string& table) const override {
    return Lookup(table).stored_bytes();
  }
  /// Per-item plus per-value overhead bytes.
  uint64_t OverheadBytes(const std::string& table) const override;
  uint64_t ItemCount(const std::string& table) const override {
    return Lookup(table).item_count();
  }
  /// All table names (including empty tables), sorted.
  std::vector<std::string> TableNames() const override;

  /// Every item in (table, hash key, range key) order.
  void ForEachItem(
      const std::function<void(const std::string&, const Item&)>& fn)
      const override;
  void RestoreItem(const std::string& table, const Item& item) override;
  Status RestoreTable(const std::string& table) override {
    return Create(table);
  }
  /// True while no table exists (snapshot restore needs a fresh store).
  bool Empty() const { return tables_.empty(); }

 protected:
  /// `noun` names a table in error messages ("table", "domain"); the
  /// overheads are the storage bytes billed per item and per attribute
  /// value, ovh(D, I) in Section 7.1.
  ItemStore(const char* name, const char* noun, const StoreLimits& limits,
            uint64_t item_overhead_bytes, uint64_t value_overhead_bytes);

  /// Creates an empty table; AlreadyExists ("<noun> exists: ") when it
  /// exists.
  Status Create(const std::string& table);
  /// The named table; NotFound ("no such <noun>: ") when absent.  Every
  /// billed verb opens its table before it bills anything.
  Result<ItemTable*> Open(const std::string& table);

 private:
  /// The named table, or an empty one when absent (accounting queries).
  const ItemTable& Lookup(const std::string& table) const;

  const char* name_;
  const char* noun_;
  StoreLimits limits_;
  uint64_t item_overhead_bytes_;
  uint64_t value_overhead_bytes_;
  std::map<std::string, ItemTable> tables_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_ITEM_TABLE_H_
