#ifndef WEBDEX_CLOUD_ITEM_TABLE_H_
#define WEBDEX_CLOUD_ITEM_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/kv_store.h"

namespace webdex::cloud {

/// The item storage of a simulated key-value store (DynamoDb, SimpleDb):
/// named tables of items keyed (hash key, range key), plus the size
/// accounting the stores bill storage from.  Host-side only — nothing
/// here is billed or advances virtual time.
class ItemTable {
 public:
  /// range key -> attributes.
  using Ranges = std::map<std::string, Attributes>;

  /// One named table.
  struct Table {
    std::map<std::string, Ranges> items;  // hash key -> ranges
    uint64_t stored_bytes = 0;            // sum of Item::SizeBytes
    uint64_t item_count = 0;
    uint64_t value_count = 0;  // attribute values, summed over items

    /// Stores `item`.  An item with the same (hash, range) key is
    /// completely replaced (Section 6): its size, count and values leave
    /// the accounting before the new item's enter it.
    void Put(const Item& item);
    /// Erases the item keyed (hash_key, range_key); returns its billable
    /// size, or nullopt when no such item exists.
    std::optional<uint64_t> Erase(const std::string& hash_key,
                                  const std::string& range_key);
  };

  /// Number of attribute values in `attrs` (a multi-valued attribute
  /// counts once per value).
  static uint64_t CountValues(const Attributes& attrs);

  /// Creates an empty table; false when it already exists.
  bool Create(const std::string& name);
  bool Has(const std::string& name) const { return tables_.count(name) > 0; }
  bool Empty() const { return tables_.empty(); }
  /// The named table, or nullptr when absent.
  Table* Find(const std::string& name);
  /// The named table, or an empty one when absent (accounting queries).
  const Table& Lookup(const std::string& name) const;

  /// Snapshot restore: stores `item`, creating its table if needed.
  void Restore(const std::string& name, const Item& item);

  /// All table names (including empty tables), sorted.
  std::vector<std::string> TableNames() const;
  /// Every item in (table, hash key, range key) order.
  void ForEachItem(
      const std::function<void(const std::string&, const Item&)>& fn) const;

 private:
  std::map<std::string, Table> tables_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_ITEM_TABLE_H_
