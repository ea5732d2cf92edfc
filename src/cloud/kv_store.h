#ifndef WEBDEX_CLOUD_KV_STORE_H_
#define WEBDEX_CLOUD_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cloud/item.h"
#include "cloud/sim.h"
#include "common/result.h"
#include "common/status.h"

namespace webdex::cloud {

/// What a key-value store accepts, as data: the Section 8.4 store
/// comparison is mostly these limits (plus pricing and latency).
struct StoreLimits {
  uint64_t max_item_bytes = 0;
  uint64_t max_value_bytes = 0;
  /// False means values must be printable text (SimpleDB), so binary
  /// payloads like varint-encoded node-ID lists must be armoured (hex),
  /// doubling their size — the key difference behind Tables 7 and 8.
  bool binary_values = false;
  int batch_put = 0;  // items per BatchPut request
  int batch_get = 0;  // keys per BatchGet request
  /// Attribute values an index item build may pack into one item.
  /// SimpleDB's 255 is one below its 256-attribute bound: an upsert
  /// stamps each item with one more value (index/generation.h kGenAttr),
  /// and the stamped item must still fit.
  uint64_t max_values_per_item = 0;

  bool operator==(const StoreLimits&) const = default;
};

/// Abstract key-value index store, implemented by the DynamoDB and
/// SimpleDB simulations.  The indexing strategies are written against this
/// interface so the paper's Section 8.4 store comparison swaps backends
/// without touching index code.
class KvStore {
 public:
  /// What Scan and ForEachItem call with each item.
  using ScanVisitor = std::function<void(const ItemView&)>;

  virtual ~KvStore() = default;

  /// Creates `table`.  A billed control-plane call: fault-injectable and
  /// routed through retries/breakers by the RetryingKvStore decorator; a
  /// faulted attempt bills its API round trip (successful creates are
  /// free and instantaneous, matching AWS and keeping pre-existing runs
  /// bit-identical).
  virtual Status CreateTable(SimAgent& agent, const std::string& table) = 0;
  virtual bool HasTable(const std::string& table) const = 0;

  /// Inserts `items` (any count; internally issued as batched API calls
  /// of at most Limits().batch_put items).  An item with an existing
  /// (hash, range) key is completely replaced, as in DynamoDB.
  /// `items` is borrowed for the call only, and so are the bytes its
  /// views borrow: a caller may pass any sub-span of its own views (the
  /// engine pages uploads that way), and a store copies what it keeps.
  /// `items` must not view `*unprocessed`.  Validation errors (oversized
  /// item/value, binary data in a text-only store) fail the whole call
  /// without partial effects.
  ///
  /// Partial-failure contract (docs/FAULTS.md): when `unprocessed` is
  /// non-null, a store under fault injection may return OK having stored
  /// only a prefix, with the bounced items appended to `*unprocessed` for
  /// the caller to re-batch (DynamoDB's UnprocessedItems).  On a transient
  /// error status, `*unprocessed` holds every item not yet stored.  The
  /// bounced items are views of the caller's bytes, copies of elements of
  /// `items`, so they live as long as those bytes do.  When `unprocessed`
  /// is null the caller cannot observe partial success, so stores must
  /// not inject it.  `*unprocessed` is cleared on entry.
  virtual Status BatchPutViews(
      SimAgent& agent, const std::string& table,
      std::span<const ItemView> items,
      std::vector<ItemView>* unprocessed = nullptr) = 0;
  /// BatchPutViews over Items, with the bounced items copied out into
  /// `*unprocessed` (a convenience for tests and benches).
  Status BatchPut(SimAgent& agent, const std::string& table,
                  std::span<const Item> items,
                  std::vector<Item>* unprocessed = nullptr);

  /// Returns all items whose hash key is one of `hash_keys` (the get(T,k)
  /// operation of Section 6, batched): up to Limits().batch_get keys per
  /// API request, results concatenated in key order, nothing for a key
  /// with no items.
  ///
  /// View lifetime: each view borrows its hash key and record from the
  /// table that holds the item.  It stays valid until the next write to
  /// that table — a BatchPut, DeleteItem or RestoreItem reaching it, any
  /// of which may repack the table — or until the store is destroyed.
  /// Reads (BatchGetViews, Scan, accounting) never invalidate a view, so
  /// a look-up may hold the views of several BatchGets at once.  Copy an
  /// item (Item(view)) to keep it past a write.
  virtual Result<std::vector<ItemView>> BatchGetViews(
      SimAgent& agent, const std::string& table,
      const std::vector<std::string>& hash_keys) = 0;
  /// BatchGetViews, with the items copied out so they outlive writes.
  Result<std::vector<Item>> BatchGet(SimAgent& agent,
                                     const std::string& table,
                                     const std::vector<std::string>& hash_keys);

  /// Calls `visit` with every item of `table` in deterministic (hash,
  /// range) key order — the *billed* full-table walk (DynamoDB's Scan,
  /// SimpleDB's paginated select) that index maintenance uses; ForEachItem
  /// below is its unbilled twin.  Paginated internally; each
  /// page costs a request, its latency, and data-proportional read
  /// capacity.  Nothing is copied: the visitor runs only once every page
  /// has been billed, so a scan that fails visits nothing and a retried
  /// one visits each item once.  Each view is valid for the visit (the
  /// BatchGetViews lifetime rule); the visitor must not write to the
  /// store.  Copy an item (Item(view)) to keep it.
  virtual Status Scan(SimAgent& agent, const std::string& table,
                      const ScanVisitor& visit) = 0;

  /// Deletes the item with the given composite key.  Deleting an absent
  /// item succeeds (as in DynamoDB) but still bills the request.
  virtual Status DeleteItem(SimAgent& agent, const std::string& table,
                            const std::string& hash_key,
                            const std::string& range_key) = 0;

  // --- Store capability model -------------------------------------------
  // Thread-safety contract: Name() and Limits() are consulted by
  // IndexingStrategy::ExtractBatches while sizing items, which the
  // engine's host-parallel extraction pipeline runs on pooled threads
  // concurrently with simulated traffic on the event-loop thread.
  // Implementations must therefore answer them from immutable
  // configuration only — no billing, no virtual latency, no mutable
  // state (the DynamoDB and SimpleDB simulations return constructor
  // data, and every decorator inherits ForwardingKvStore's pass-through
  // answers).
  virtual const char* Name() const = 0;
  virtual const StoreLimits& Limits() const = 0;
  int BatchGetLimit() const { return Limits().batch_get; }

  // --- Storage accounting (for Figure 8 and st$m) ------------------------
  /// Raw user bytes stored in `table` — sr(D, I) in Section 7.1.
  virtual uint64_t StoredBytes(const std::string& table) const = 0;
  /// Store-internal overhead for `table` — ovh(D, I) in Section 7.1.
  virtual uint64_t OverheadBytes(const std::string& table) const = 0;
  virtual uint64_t ItemCount(const std::string& table) const = 0;
  virtual std::vector<std::string> TableNames() const = 0;

  // --- Host-side tooling (snapshots; not billed, no virtual latency) ----
  /// Scan without the bill: calls `visit` with every item of `table` in
  /// (hash, range) key order, with the same view lifetime, but fault-free
  /// and without billing or virtual time.  Nothing for an absent table.
  virtual void ForEachItem(const std::string& table,
                           const ScanVisitor& visit) const = 0;
  /// Restores one item, creating its table if needed (accounting
  /// updated, nothing billed).
  virtual void RestoreItem(const std::string& table, const Item& item) = 0;
  /// Recreates a table host-side — the unbilled, fault-free counterpart
  /// of CreateTable that snapshot restore uses (cloud/snapshot.cc).
  virtual Status RestoreTable(const std::string& table) = 0;
};

/// Pass-through base of the KvStore decorators (LevelDB's EnvWrapper
/// idiom): forwards every method to the wrapped store, so the retrying,
/// replicated and sharded decorators declare only the methods they
/// change.  `base` must outlive the decorator.
class ForwardingKvStore : public KvStore {
 public:
  explicit ForwardingKvStore(KvStore* base) : base_(base) {}

  ForwardingKvStore(const ForwardingKvStore&) = delete;
  ForwardingKvStore& operator=(const ForwardingKvStore&) = delete;

  Status CreateTable(SimAgent& agent, const std::string& table) override {
    return base_->CreateTable(agent, table);
  }
  bool HasTable(const std::string& table) const override {
    return base_->HasTable(table);
  }
  Status BatchPutViews(SimAgent& agent, const std::string& table,
                       std::span<const ItemView> items,
                       std::vector<ItemView>* unprocessed = nullptr) override {
    return base_->BatchPutViews(agent, table, items, unprocessed);
  }
  Result<std::vector<ItemView>> BatchGetViews(
      SimAgent& agent, const std::string& table,
      const std::vector<std::string>& hash_keys) override {
    return base_->BatchGetViews(agent, table, hash_keys);
  }
  Status Scan(SimAgent& agent, const std::string& table,
              const ScanVisitor& visit) override {
    return base_->Scan(agent, table, visit);
  }
  Status DeleteItem(SimAgent& agent, const std::string& table,
                    const std::string& hash_key,
                    const std::string& range_key) override {
    return base_->DeleteItem(agent, table, hash_key, range_key);
  }

  const char* Name() const override { return base_->Name(); }
  const StoreLimits& Limits() const override { return base_->Limits(); }

  uint64_t StoredBytes(const std::string& table) const override {
    return base_->StoredBytes(table);
  }
  uint64_t OverheadBytes(const std::string& table) const override {
    return base_->OverheadBytes(table);
  }
  uint64_t ItemCount(const std::string& table) const override {
    return base_->ItemCount(table);
  }
  std::vector<std::string> TableNames() const override {
    return base_->TableNames();
  }

  void ForEachItem(const std::string& table,
                   const ScanVisitor& visit) const override {
    base_->ForEachItem(table, visit);
  }
  void RestoreItem(const std::string& table, const Item& item) override {
    base_->RestoreItem(table, item);
  }
  Status RestoreTable(const std::string& table) override {
    return base_->RestoreTable(table);
  }

 protected:
  KvStore* base_;
};

/// FNV-1a 64 fingerprint of a canonical length-prefixed dump of every
/// (table, item), walking TableNames() in order and each table's items
/// with ForEachItem.  Two stores fingerprint equal iff they hold the same
/// logical contents; the sharded decorator names and walks logical
/// tables, so fingerprints are comparable across architectures
/// (docs/ARCHITECTURES.md, architecture_test.cc).
uint64_t FingerprintStore(const KvStore& store);

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_KV_STORE_H_
