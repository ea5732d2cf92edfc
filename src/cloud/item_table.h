#ifndef WEBDEX_CLOUD_ITEM_TABLE_H_
#define WEBDEX_CLOUD_ITEM_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/kv_store.h"

namespace webdex::cloud {

/// One table of a simulated key-value store: items keyed (hash key,
/// range key), plus the size accounting the stores bill storage from.
/// Host-side only — nothing here is billed or advances virtual time.
///
/// The table is an append log over one sorted run (the LSM memtable /
/// sorted-run idiom).  Put copies the hash key and the encoded record
/// (cloud/item.h) into a chunked byte arena and appends one fixed-size
/// entry: no lookup, no allocation per item.  Seal, which every read and
/// accounting call runs first, sorts the pending tail, keeps the last put
/// of each key (Section 6's complete replacement), merges it into the run
/// and updates the accounting.  Erase marks its entry dead, and so does a
/// replacement; the arena and run are repacked once dead bytes pass a
/// quarter of the arena.  AppendItems and ForEachLive hand out views
/// into the arena, valid until the next Put or Erase (either may
/// repack); sealing moves entries, never arena bytes.  Neither puts nor
/// reads walk the attributes.
///
/// Seal mutates the table from const reads, so a table is read and
/// written by one thread at a time (the stores' event-loop thread).
class ItemTable {
 public:
  /// Stores a copy of `item`'s bytes.  An item with the same (hash,
  /// range) key is completely replaced (Section 6): once sealed, its
  /// size, count and values leave the accounting and the new item's
  /// enter it.
  void Put(const ItemView& item);
  /// Erases the item keyed (hash_key, range_key); returns its billable
  /// size, or nullopt when no such item exists.
  std::optional<uint64_t> Erase(std::string_view hash_key,
                                std::string_view range_key);

  /// Appends views of the items of `hash_key` to `*out` in range-key
  /// order, valid until the next Put or Erase on this table.
  void AppendItems(std::string_view hash_key,
                   std::vector<ItemView>* out) const;
  /// Calls `fn` with a view of every item in (hash, range) key order,
  /// valid until the next Put or Erase; `fn` must not write to the table.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const Entry& e : Seal().entries_) {
      if (!e.dead) fn(View(e));
    }
  }

  /// Σ SizeBytes over the items.
  uint64_t stored_bytes() const { return Seal().stored_bytes_; }
  uint64_t item_count() const { return Seal().item_count_; }
  /// Attribute values, summed over items.
  uint64_t value_count() const { return Seal().value_count_; }
  /// Heap bytes held: the arena chunks, less the unwritten end of the
  /// last one (pages nothing has touched), plus the entry vector.
  size_t heap_bytes() const {
    return arena_bytes_ - chunk_left_ + entries_.capacity() * sizeof(Entry);
  }

  /// Merges the pending puts into the sorted run; returns this table.
  const ItemTable& Seal() const;

 private:
  /// A (hash, range) key with the first 8 bytes of each part,
  /// big-endian and zero padded.  Comparing those prefixes and the sizes
  /// first keeps nearly every comparison off the arena.
  struct Key {
    uint64_t hash_prefix;
    uint64_t range_prefix;
    std::string_view hash;
    std::string_view range;
  };
  /// One put: its hash key and record, contiguous in the arena, and the
  /// tallies the item was built with (Item's, which the stores' item
  /// limits keep far below 4 GB).
  struct Entry {
    uint64_t hash_prefix;
    uint64_t range_prefix;
    const char* data;
    uint32_t hash_size;
    uint32_t record_size;
    uint32_t range_size;
    uint32_t value_count;
    uint32_t payload_bytes;
    bool dead = false;  // erased, or replaced in place by a later put

    Key key() const {
      return {hash_prefix, range_prefix, {data, hash_size},
              {data + hash_size, range_size}};
    }
    uint64_t size_bytes() const { return uint64_t{hash_size} + payload_bytes; }
    uint64_t arena_size() const { return uint64_t{hash_size} + record_size; }
  };
  /// 1 MB chunks are big enough for glibc to map them apart from its
  /// heap, so a freed table returns them instead of leaving holes among
  /// smaller blocks (64 KB chunks cost `query` 6 MB of peak RSS).
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  static Key KeyOf(std::string_view hash, std::string_view range);
  static int Compare(const Key& a, const Key& b);
  static bool Less(const Entry& a, const Entry& b);
  /// The first run entry not below `key`, after sealing.
  std::vector<Entry>::iterator LowerBound(const Key& key) const;
  /// The first entry of the sorted [first, last) not below `e`, searched
  /// outward from `first`: cheap when it is near.
  static std::vector<Entry>::iterator Gallop(
      std::vector<Entry>::iterator first, std::vector<Entry>::iterator last,
      const Entry& e);
  /// Adds `e` to the accounting.
  void Count(const Entry& e) const;
  /// Takes `e` out of the accounting and marks it dead (if it is live).
  void Forget(Entry& e) const;
  /// `size` bytes at the end of the last chunk (a fresh one if full).
  char* Allocate(size_t size);
  /// Once dead bytes pass a quarter of the arena (and one chunk, so a
  /// small table does not repack every few replacements): seals, drops
  /// the dead entries and copies the live records into fresh chunks.
  /// Repacking only once dead bytes pass live bytes raised `mutate`'s
  /// peak RSS from 177 to 196 MB.
  void MaybeRepack();
  static ItemView View(const Entry& e);

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* next_ = nullptr;  // the free bytes of the last chunk
  size_t chunk_left_ = 0;
  size_t arena_bytes_ = 0;   // Σ chunk sizes
  uint64_t arena_used_ = 0;  // Σ arena_size over every entry in the arena
  /// The sorted run, then the tail of puts not yet sealed.
  mutable std::vector<Entry> entries_;
  mutable size_t run_size_ = 0;
  mutable uint64_t dead_bytes_ = 0;  // Σ arena_size of dead entries
  mutable uint64_t stored_bytes_ = 0;
  mutable uint64_t item_count_ = 0;
  mutable uint64_t value_count_ = 0;
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

  void ForEachItem(const std::string& table,
                   const ScanVisitor& visit) const override {
    Lookup(table).ForEachLive(visit);
  }
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
