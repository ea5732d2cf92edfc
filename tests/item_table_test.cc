// Tests of the flat item (cloud/item.h) and of the item table that keeps
// its records (cloud/item_table.h).  Items built from seeded random
// attribute maps read back the same attributes, values and order, with
// the billable size and value count of the map.  Seeded random Put /
// replace / Erase sequences run against a plain nested-map reference
// model, which must agree on every item, in order, on the accounting,
// and on every Erase result — across replace and erase churn, empty
// attribute sets and values, binary values and 64 KB items, and with a
// read after every op.  Focused cases pin the append log's sealing: a
// put after a read, two puts of a key in one tail, views that outlive
// later puts and re-seals, an erase with a tail pending, erased items in
// every read, repacks under erase-heavy churn, and the heap footprint on
// benchmark-shaped items.  The named tables above it are exercised
// through a real DynamoDb: multi-table restores, deletes, iteration
// order and the storage accounting the store bills from.  Last, the
// items every strategy extracts round-trip through both stores byte for
// byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/dynamodb.h"
#include "cloud/item_table.h"
#include "cloud/kv_store.h"
#include "cloud/simpledb.h"
#include "common/rng.h"
#include "common/strings.h"
#include "index/strategy.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"
#include "store_dump.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

/// The reference of one table: hash key -> range key -> attributes.
using TableModel = std::map<std::string, std::map<std::string, Attributes>>;
/// The reference of a store: table -> its model.
using Model = std::map<std::string, TableModel>;

/// The billable size of a map-form item: keys plus attribute names and
/// values.
uint64_t ModelBytes(std::string_view hash_key, std::string_view range_key,
                    const Attributes& attrs) {
  uint64_t size = hash_key.size() + range_key.size();
  for (const auto& [name, values] : attrs) {
    size += name.size();
    for (const auto& v : values) size += v.size();
  }
  return size;
}

uint64_t ModelValues(const Attributes& attrs) {
  uint64_t n = 0;
  for (const auto& [name, values] : attrs) n += values.size();
  return n;
}

std::vector<Item> Contents(const TableModel& model) {
  std::vector<Item> out;
  for (const auto& [hash_key, ranges] : model) {
    for (const auto& [range_key, attrs] : ranges) {
      out.push_back(Item{hash_key, range_key, attrs});
    }
  }
  return out;
}

std::vector<std::pair<std::string, Item>> Contents(const Model& model) {
  std::vector<std::pair<std::string, Item>> out;
  for (const auto& [name, table] : model) {
    for (Item& item : Contents(table)) out.emplace_back(name, std::move(item));
  }
  return out;
}

std::vector<std::pair<std::string, Item>> Contents(const KvStore& store) {
  std::vector<std::pair<std::string, Item>> out;
  ForEachStoredItem(store, [&](const std::string& name, const ItemView& item) {
    out.emplace_back(name, Item(item));
  });
  return out;
}

bool SameItem(const Item& a, const Item& b) {
  return a == b && a.range_key() == b.range_key() &&
         a.ToAttributes() == b.ToAttributes() &&
         a.SizeBytes() == b.SizeBytes() && a.ValueCount() == b.ValueCount();
}

/// Everything the table exposes equals the model's view of it, with the
/// accounting summed over the model's maps.
void ExpectMatches(const ItemTable& t, const TableModel& model) {
  uint64_t bytes = 0;
  uint64_t values = 0;
  for (const auto& [hash_key, ranges] : model) {
    for (const auto& [range_key, attrs] : ranges) {
      bytes += ModelBytes(hash_key, range_key, attrs);
      values += ModelValues(attrs);
    }
  }
  const std::vector<Item> all = Contents(model);
  for (const auto& [hash_key, ranges] : model) {
    std::vector<ItemView> appended;
    t.AppendItems(hash_key, &appended);
    ASSERT_EQ(appended.size(), ranges.size()) << hash_key;
    auto range = ranges.begin();
    for (size_t i = 0; i < appended.size(); ++i, ++range) {
      ASSERT_TRUE(SameItem(Item(appended[i]),
                           Item{hash_key, range->first, range->second}));
    }
  }
  EXPECT_EQ(t.stored_bytes(), bytes);
  EXPECT_EQ(t.item_count(), all.size());
  EXPECT_EQ(t.value_count(), values);
  std::vector<Item> visited;
  t.ForEachLive(
      [&visited](const ItemView& item) { visited.emplace_back(item); });
  ASSERT_EQ(visited.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE(SameItem(visited[i], all[i])) << "item " << i;
  }
}

/// Everything the store exposes equals the model's view of it: the items
/// in (table, hash, range) order, the table names, and each table's
/// accounting.
void ExpectMatches(const DynamoDb& store, const Model& model) {
  const auto got = Contents(store);
  const auto want = Contents(model);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "item " << i;
    ASSERT_TRUE(SameItem(got[i].second, want[i].second)) << "item " << i;
  }
  std::vector<std::string> names;
  for (const auto& [name, table] : model) {
    names.push_back(name);
    uint64_t bytes = 0;
    uint64_t items = 0;
    for (const auto& [hash_key, ranges] : table) {
      for (const auto& [range_key, attrs] : ranges) {
        bytes += ModelBytes(hash_key, range_key, attrs);
        items += 1;
      }
    }
    EXPECT_EQ(store.StoredBytes(name), bytes) << name;
    EXPECT_EQ(store.ItemCount(name), items) << name;
    EXPECT_EQ(store.OverheadBytes(name), items * DynamoDb::kItemOverheadBytes)
        << name;
  }
  EXPECT_EQ(store.TableNames(), names);
}

/// Random bytes of `size`, NUL and high bytes included.
std::string RandomBytes(Rng& rng, size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBelow(256));
  return bytes;
}

/// Attributes with 0-3 names, each holding 0-4 values of 0-40 bytes; one
/// value in 50 is a 2-6 KB blob.
Attributes RandomAttrs(Rng& rng) {
  static const char* kNames[] = {"", "d", "a.xml", "doc-with-a-long-uri.xml"};
  Attributes attrs;
  const uint64_t names = rng.NextBelow(4);
  for (uint64_t n = 0; n < names; ++n) {
    AttributeValues& values = attrs[kNames[rng.NextBelow(4)]];
    const uint64_t count = rng.NextBelow(5);
    for (uint64_t v = 0; v < count; ++v) {
      const size_t size = rng.NextBelow(50) == 0
                              ? 2048 + rng.NextBelow(4096)
                              : rng.NextBelow(41);
      values.push_back(RandomBytes(rng, size));
    }
  }
  return attrs;
}

/// A model item picked uniformly, or nullopt when the model is empty.
std::optional<Item> PickExisting(const TableModel& model, Rng& rng) {
  const auto all = Contents(model);
  if (all.empty()) return std::nullopt;
  return all[rng.NextBelow(all.size())];
}

const std::vector<std::string> kHashKeys = {"", "k", "key-1",
                                            "a-much-longer-hash-key"};

/// Seeded random puts, replacements and erases against the model,
/// compared with it every `check_every` ops and at the end.
void RunRandomOps(uint64_t seed, int ops, int check_every = 97) {
  Rng rng(seed);
  ItemTable table;
  TableModel model;
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {  // put a new (or, by chance, an existing) key
      const std::string& hash_key = kHashKeys[rng.NextBelow(kHashKeys.size())];
      const std::string range_key =
          rng.NextBelow(20) == 0 ? "" : rng.NextUuid().substr(0, 8);
      const Attributes attrs = RandomAttrs(rng);
      model[hash_key][range_key] = attrs;
      table.Put(Item{hash_key, range_key, attrs});
    } else if (kind < 7) {  // replace an existing item
      auto hit = PickExisting(model, rng);
      if (!hit) continue;
      const Attributes attrs = RandomAttrs(rng);
      model[hit->hash_key][std::string(hit->range_key())] = attrs;
      table.Put(Item{hit->hash_key, hit->range_key(), attrs});
    } else {  // erase, mostly an existing item
      std::optional<uint64_t> want;
      Item key{kHashKeys[rng.NextBelow(kHashKeys.size())], "absent", {}};
      if (rng.NextBelow(4) != 0) {
        if (auto hit = PickExisting(model, rng)) {
          key = *hit;
          want = key.SizeBytes();
          auto& ranges = model[key.hash_key];
          ranges.erase(std::string(key.range_key()));
          if (ranges.empty()) model.erase(key.hash_key);
        }
      }
      EXPECT_EQ(table.Erase(key.hash_key, key.range_key()), want)
          << "op " << op;
    }
    if (op % check_every == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
}

TEST(ItemTableTest, RandomOpsMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomOps(seed, 1500);
  }
}

// Reading after every op seals a tail of one put each time: the sorted
// run then takes every put and erase one at a time.
TEST(ItemTableTest, RandomOpsReadAfterEveryOpMatchReferenceModel) {
  for (uint64_t seed = 7; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomOps(seed, 1500, /*check_every=*/1);
  }
}

// A put after a read lands in a fresh tail, which the next read merges
// into the sorted run, replacing the equal key there.
TEST(ItemTableTest, PutAfterReadIsMergedIntoTheRun) {
  ItemTable t;
  TableModel model;
  const auto put = [&](const Item& item) {
    t.Put(item);
    model[item.hash_key][std::string(item.range_key())] = item.ToAttributes();
  };
  put(Item{"k", "b", {{"d", {"first"}}}});
  put(Item{"m", "a", {}});
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  put(Item{"k", "a", {{"d", {"before-b"}}}});
  put(Item{"k", "b", {{"d", {"second", "value"}}}});
  put(Item{"a", "z", {}});
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  EXPECT_EQ(t.item_count(), 4u);
}

// Two puts of one key in one unsealed tail: the last wins, with its
// size and value count.
TEST(ItemTableTest, LastPutOfAKeyInOneTailWins) {
  ItemTable t;
  const Item first{"k", "r", {{"d", {"a-long-first-value", "x"}}}};
  const Item last{"k", "r", {{"e", {"v"}}}};
  t.Put(Item{"k", "q", {}});
  t.Put(first);
  t.Put(last);
  std::vector<ItemView> got;
  t.AppendItems("k", &got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(SameItem(Item(got[1]), last));
  EXPECT_EQ(t.item_count(), 2u);
  EXPECT_EQ(t.stored_bytes(), Item("k", "q").SizeBytes() + last.SizeBytes());
  EXPECT_EQ(t.value_count(), last.ValueCount());
}

// A view handed out by a read borrows the arena: later puts append
// without moving earlier bytes (past the end of a 1 MB chunk, into new
// chunks), and a re-seal moves entries, never records.  So the view
// keeps its bytes — even across a replacement of its own item, until a
// repack.  Under ASan a freed or moved record fails here.
TEST(ItemTableTest, ViewsKeepTheirBytesAcrossPutsAndReseals) {
  ItemTable t;
  t.Put(Item{"k", "a", {{"d", {"first", "view"}}}});
  t.Put(Item{"k", "b", {{"e", {std::string(300, 'x')}}}});
  std::vector<ItemView> views;
  t.AppendItems("k", &views);
  ASSERT_EQ(views.size(), 2u);
  std::vector<Item> copies(views.begin(), views.end());
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    // Keys sorting before and after "k", so every seal merges around it.
    t.Put(Item{StrFormat("%s%d", i % 2 == 0 ? "a" : "z", i), "r",
               {{"d", {RandomBytes(rng, 600)}}}});
    if (i % 500 == 0) {
      EXPECT_EQ(t.item_count(), 3u + i);  // a re-seal
    }
  }
  t.Put(Item{"k", "a", {{"d", {"replaced"}}}});
  EXPECT_EQ(t.item_count(), 4002u);
  EXPECT_GT(t.heap_bytes(), size_t{2} << 20);  // the arena grew new chunks
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_TRUE(SameItem(Item(views[i]), copies[i])) << i;
  }
}

// Erase seals first, so with a replacement still pending it erases (and
// returns the size of) the latest put of the key.
TEST(ItemTableTest, EraseWithAPendingTailReturnsTheLatestSize) {
  const Item old_item{"k", "r", {{"d", {"old"}}}};
  const Item new_item{"k", "r", {{"d", {"a-much-longer-new-value"}}}};
  for (const bool sealed_first : {false, true}) {
    SCOPED_TRACE(sealed_first);
    ItemTable t;
    t.Put(old_item);
    if (sealed_first) {
      EXPECT_EQ(t.item_count(), 1u);
    }
    t.Put(new_item);
    EXPECT_EQ(t.Erase("k", "r"), new_item.SizeBytes());
    EXPECT_EQ(t.Erase("k", "r"), std::nullopt);
    EXPECT_EQ(t.item_count(), 0u);
    EXPECT_EQ(t.stored_bytes(), 0u);
    EXPECT_EQ(t.value_count(), 0u);
  }
}

// Erased items are gone from every read: AppendItems, ForEachLive and the
// store's ForEachItem; a re-put of an erased key brings it back.
TEST(ItemTableTest, ErasedItemsAreInvisibleToEveryRead) {
  CloudEnv env;
  DynamoDb& store = env.dynamodb();
  TestAgent agent;
  ASSERT_TRUE(store.CreateTable(agent, "t").ok());
  ItemTable t;
  TableModel model;
  for (int i = 0; i < 30; ++i) {
    const Item item{StrFormat("k%d", i % 3), StrFormat("r%d", i),
                    {{"d", {std::to_string(i)}}}};
    t.Put(item);
    store.RestoreItem("t", item);
    model[item.hash_key][std::string(item.range_key())] = item.ToAttributes();
  }
  for (int i = 0; i < 30; i += 2) {
    const std::string hash_key = StrFormat("k%d", i % 3);
    const std::string range_key = StrFormat("r%d", i);
    EXPECT_TRUE(t.Erase(hash_key, range_key).has_value());
    ASSERT_TRUE(store.DeleteItem(agent, "t", hash_key, range_key).ok());
    model[hash_key].erase(range_key);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  Model stored;
  stored["t"] = model;
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(store, stored));
  const Item back{"k0", "r0", {{"d", {"back"}}}};
  t.Put(back);
  model["k0"]["r0"] = back.ToAttributes();
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
}

// Erasing most of a table, with puts in between, repacks the arena: the
// contents stay the model's and the heap shrinks with the live bytes.
TEST(ItemTableTest, EraseHeavyChurnRepacksAndKeepsContents) {
  Rng rng(13);
  ItemTable t;
  TableModel model;
  const auto put = [&](int i) {
    const Item item{StrFormat("k%d", i % 17), StrFormat("r%d", i),
                    {{"d", {RandomBytes(rng, 1000)}}}};
    t.Put(item);
    model[item.hash_key][std::string(item.range_key())] = item.ToAttributes();
  };
  for (int i = 0; i < 2000; ++i) put(i);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  const size_t full_heap = t.heap_bytes();
  int next = 2000;
  for (int round = 0; round < 9; ++round) {
    // Erase every item but one in ten, then put a few new ones.
    for (const Item& item : Contents(model)) {
      if (rng.NextBelow(10) == 0) continue;
      EXPECT_EQ(t.Erase(item.hash_key, item.range_key()), item.SizeBytes());
      auto& ranges = model[item.hash_key];
      ranges.erase(std::string(item.range_key()));
      if (ranges.empty()) model.erase(item.hash_key);
    }
    for (int i = 0; i < 20; ++i) put(next++);
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  }
  EXPECT_LT(t.heap_bytes(), full_heap / 4);
}

// Snapshot restores into created and not-yet-created tables, replaced by
// later restores and removed by billed deletes: the store iterates, names
// and accounts for exactly the model's tables and items.
TEST(ItemStoreTest, RestoresAndDeletesAcrossTablesMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    CloudEnv env;
    DynamoDb& store = env.dynamodb();
    TestAgent agent;
    Model model;
    for (const char* name : {"idx-b", "idx-a"}) {
      ASSERT_TRUE(store.RestoreTable(name).ok());
      model[name];
    }
    EXPECT_TRUE(store.RestoreTable("idx-a").IsAlreadyExists());
    const std::vector<std::string> names = {"idx-a", "idx-b", "idx-restored"};
    for (int op = 0; op < 600; ++op) {
      const std::string& name = names[rng.NextBelow(names.size())];
      auto hit = rng.NextBool(0.5) && model.count(name) > 0
                     ? PickExisting(model[name], rng)
                     : std::nullopt;
      if (hit && rng.NextBool(0.3)) {  // delete an existing item
        const std::string range_key(hit->range_key());
        ASSERT_TRUE(
            store.DeleteItem(agent, name, hit->hash_key, range_key).ok());
        auto& ranges = model[name][hit->hash_key];
        ranges.erase(range_key);
        if (ranges.empty()) model[name].erase(hit->hash_key);
        continue;
      }
      // Restore a new item, or a replacement of an existing one.
      const std::string hash_key =
          hit ? hit->hash_key : kHashKeys[rng.NextBelow(kHashKeys.size())];
      const std::string range_key = hit ? std::string(hit->range_key())
                                        : rng.NextUuid().substr(0, 8);
      const Attributes attrs = RandomAttrs(rng);
      store.RestoreItem(name, Item{hash_key, range_key, attrs});
      model[name][hash_key][range_key] = attrs;
      if (op % 61 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(store, model));
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(store, model));
    EXPECT_EQ(store.StoredBytes("absent"), 0u);
    EXPECT_EQ(store.ItemCount("absent"), 0u);
    EXPECT_EQ(store.OverheadBytes("absent"), 0u);
  }
}

// Replacing every item over and over, then erasing them all, changes
// nothing a reader can tell from the model; the emptied table still works.
TEST(ItemTableTest, ReplaceAndEraseChurnKeepsContents) {
  Rng rng(7);
  ItemTable t;
  TableModel model;
  for (int i = 0; i < 200; ++i) {
    const std::string hash_key = StrFormat("k%d", i % 13);
    const std::string range_key = StrFormat("r%d", i);
    const Attributes attrs = RandomAttrs(rng);
    model[hash_key][range_key] = attrs;
    t.Put(Item{hash_key, range_key, attrs});
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  for (int round = 0; round < 5; ++round) {
    for (const Item& replaced : Contents(model)) {
      const Attributes attrs = RandomAttrs(rng);
      model[replaced.hash_key][std::string(replaced.range_key())] = attrs;
      t.Put(Item{replaced.hash_key, replaced.range_key(), attrs});
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  }
  for (const Item& item : Contents(model)) {
    EXPECT_EQ(t.Erase(item.hash_key, item.range_key()), item.SizeBytes());
  }
  model.clear();
  EXPECT_EQ(t.item_count(), 0u);
  EXPECT_EQ(t.stored_bytes(), 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  const Item again{"k", "r", {{"d", {"v"}}}};
  t.Put(again);
  model["k"]["r"] = again.ToAttributes();
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
}

TEST(ItemTableTest, EmptyAttributeSetsAndValuesRoundTrip) {
  ItemTable t;
  TableModel model;
  const std::vector<Item> items = {
      Item{"k", "no-attrs", {}},
      Item{"k", "empty-value", {{"d", {""}}}},
      Item{"k", "no-values", {{"d", {}}}},
      Item{"k", "empty-name", {{"", {"", "x", ""}}}},
      Item{"", "", {}},
  };
  for (const Item& item : items) {
    t.Put(item);
    model[item.hash_key][std::string(item.range_key())] = item.ToAttributes();
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  EXPECT_EQ(t.value_count(), 4u);
  EXPECT_EQ(t.Erase("", ""), 0u);
  EXPECT_EQ(t.Erase("", ""), std::nullopt);
}

TEST(ItemTableTest, BinaryValuesWithNulBytesRoundTrip) {
  ItemTable t;
  const std::string binary("\x00\x01\xff\x00\x80\x7f", 6);
  const Item item{std::string("h\0sh", 4), std::string("r\0", 2),
                  {{std::string("n\0m", 3), {binary, std::string(1, '\0')}}}};
  t.Put(item);
  TableModel model;
  model[item.hash_key][std::string(item.range_key())] = item.ToAttributes();
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  EXPECT_EQ(t.stored_bytes(), item.SizeBytes());
}

TEST(ItemTableTest, LargeItemRoundTrips) {
  ItemTable t;
  TableModel model;
  Rng rng(11);
  const Item small_before{"k", "a", {{"d", {"before"}}}};
  const Item big{"k", "b", {{"d", {RandomBytes(rng, 64 * 1024)}}}};
  const Item small_after{"k", "c", {{"d", {"after"}}}};
  for (const Item* item : {&small_before, &big, &small_after}) {
    t.Put(*item);
    model[item->hash_key][std::string(item->range_key())] =
        item->ToAttributes();
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  EXPECT_EQ(t.Erase("k", "b"), big.SizeBytes());
  model["k"].erase("b");
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
}

// The table's heap is its arena, which holds every item's hash key and
// record, plus its entry vector, whose capacity may run up to twice its
// entries.  On full-site XMark documents under 2LUPI (the build
// benchmark's shape) that stays within twice the stored bytes plus the
// hash-key bytes, sealed or not (1.3-1.4x when written).
TEST(ItemTableTest, HeapBytesStayNearTheStoredBytes) {
  xmark::GeneratorConfig config;
  config.num_documents = 3;
  config.entities_per_document = 600;
  CloudEnv env;
  const auto strategy =
      index::IndexingStrategy::Create(index::StrategyKind::k2LUPI);
  std::map<std::string, ItemTable> tables;
  std::map<std::string, uint64_t> hash_bytes;
  for (const auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    auto parsed = xml::ParseDocument(doc.uri, doc.text);
    ASSERT_TRUE(parsed.ok());
    index::ExtractStats stats;
    auto items = strategy->ExtractItems(parsed.value(), index::ExtractOptions{},
                                        env.dynamodb(), env.rng(), &stats);
    ASSERT_TRUE(items.ok());
    for (const auto& table : items.value()) {
      for (const Item& item : table.items) {
        tables[table.table].Put(item);
        hash_bytes[table.table] += item.hash_key.size();
      }
    }
  }
  ASSERT_FALSE(tables.empty());
  for (auto& [name, t] : tables) {
    SCOPED_TRACE(name);
    const double unsealed = static_cast<double>(t.heap_bytes());
    t.Seal();
    const double bound =
        2.0 * static_cast<double>(t.stored_bytes() + hash_bytes[name]);
    EXPECT_LE(unsealed, bound);
    EXPECT_LE(static_cast<double>(t.heap_bytes()), bound);
  }
}

// Seeded random attribute maps build items that read back the same
// attributes, values and order, in place and copied out, with the
// billable size and value count of the map.
TEST(ItemTest, BuiltItemsReadBackTheirAttributes) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::string hash_key = kHashKeys[rng.NextBelow(kHashKeys.size())];
    const std::string range_key = RandomBytes(rng, rng.NextBelow(40));
    const Attributes attrs = RandomAttrs(rng);
    const Item item{hash_key, range_key, attrs};
    EXPECT_EQ(item.hash_key, hash_key);
    EXPECT_EQ(item.range_key(), range_key);
    EXPECT_EQ(item.SizeBytes(), ModelBytes(hash_key, range_key, attrs));
    EXPECT_EQ(item.ValueCount(), ModelValues(attrs));
    EXPECT_EQ(item.ToAttributes(), attrs);
    ASSERT_EQ(item.attrs().size(), attrs.size());
    auto want = attrs.begin();
    for (const auto& [name, values] : item.attrs()) {
      ASSERT_NE(want, attrs.end());
      EXPECT_EQ(name, want->first);
      ASSERT_EQ(values.size(), want->second.size());
      size_t i = 0;
      for (const std::string_view value : values) {
        EXPECT_EQ(value, want->second[i++]);
      }
      const auto found = item.attrs().Find(want->first);
      ASSERT_TRUE(found.has_value());
      EXPECT_TRUE(std::equal(found->begin(), found->end(),
                             want->second.begin(), want->second.end()));
      ++want;
    }
    EXPECT_FALSE(item.attrs().Find("no-such-attribute").has_value());
    // The builder writes the same record as the map constructor.
    ItemBuilder builder(hash_key, range_key, attrs.size());
    for (const auto& [name, values] : attrs) {
      builder.AddAttribute(name, values.size());
      for (const auto& value : values) builder.AddValue(value);
    }
    const Item built = std::move(builder).Build();
    EXPECT_TRUE(SameItem(built, item));
    EXPECT_EQ(built.record(), item.record());
  }
  const Item empty;
  EXPECT_EQ(empty.SizeBytes(), 0u);
  EXPECT_EQ(empty.ValueCount(), 0u);
  EXPECT_EQ(empty.attrs().size(), 0u);
  EXPECT_EQ(empty.attrs().begin(), empty.attrs().end());
}

// The table's accounting is the sum over its live items, recomputed
// from their maps, after every put, replace, erase and restore.
// SimpleDB bills overhead per value, so its overhead shows the value
// count too.
TEST(ItemStoreTest, AccountingIsTheSumOverLiveItems) {
  CloudEnv env;
  SimpleDb& store = env.simpledb();
  TestAgent agent;
  ASSERT_TRUE(store.CreateTable(agent, "t").ok());
  const auto expect_sums = [&store] {
    uint64_t bytes = 0;
    uint64_t items = 0;
    uint64_t values = 0;
    store.ForEachItem("t", [&](const ItemView& view) {
      const Item item(view);
      const Attributes attrs = item.ToAttributes();
      bytes += ModelBytes(item.hash_key, item.range_key(), attrs);
      items += 1;
      values += ModelValues(attrs);
    });
    EXPECT_EQ(store.StoredBytes("t"), bytes);
    EXPECT_EQ(store.ItemCount("t"), items);
    EXPECT_EQ(store.OverheadBytes("t"),
              items * SimpleDb::kPerItemOverheadBytes +
                  values * SimpleDb::kPerAttributeOverheadBytes);
  };
  const std::vector<Item> first = {
      Item{"k", "r1", {{"a.xml", {"x", "yy"}}, {"~g", {"3"}}}},
      Item{"k", "r2", {{"b.xml", {""}}}},
      Item{"other-longer-hash-key", "r1", {{"c.xml", {"zzz"}}}}};
  ASSERT_TRUE(store.BatchPut(agent, "t", first).ok());
  expect_sums();
  const Item replaced{"k", "r1", {{"a.xml", {"a-much-longer-value"}}}};
  ASSERT_TRUE(store.BatchPut(agent, "t", {&replaced, 1}).ok());
  expect_sums();
  ASSERT_TRUE(store.DeleteItem(agent, "t", "k", "r2").ok());
  expect_sums();
  store.RestoreItem("t", Item{"k", "r3", {{"d.xml", {"1", "2", "3"}}}});
  store.RestoreItem("t", Item{"k", "r1", {}});
  expect_sums();
  ASSERT_TRUE(store.DeleteItem(agent, "t", "k", "r1").ok());
  ASSERT_TRUE(store.DeleteItem(agent, "t", "k", "r3").ok());
  ASSERT_TRUE(
      store.DeleteItem(agent, "t", "other-longer-hash-key", "r1").ok());
  expect_sums();
  EXPECT_EQ(store.StoredBytes("t"), 0u);
  EXPECT_EQ(store.OverheadBytes("t"), 0u);
}

// The items every strategy extracts — plain and front-coded paths, ID
// chunks, hex-armoured SimpleDB values, generation stamps — round-trip
// through BatchPut and Scan byte for byte on both stores.
TEST(ItemRoundTripTest, ExtractedItemsRoundTripThroughBothStores) {
  std::vector<xmark::GeneratedDocument> docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 2;
  config.entities_per_document = 20;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  TestAgent agent;
  for (const index::StrategyKind kind : index::AllStrategyKinds()) {
    for (const bool simpledb : {false, true}) {
      for (const bool compress : {false, true}) {
        SCOPED_TRACE(std::string(index::StrategyKindName(kind)) +
                     (simpledb ? " SimpleDB" : " DynamoDB") +
                     (compress ? " compressed" : ""));
        CloudEnv env;
        KvStore& store = simpledb ? static_cast<KvStore&>(env.simpledb())
                                  : static_cast<KvStore&>(env.dynamodb());
        const auto strategy = index::IndexingStrategy::Create(kind);
        for (const auto& table : strategy->TableNames()) {
          ASSERT_TRUE(store.CreateTable(agent, table).ok());
        }
        std::map<std::string, std::vector<Item>> built;
        for (size_t d = 0; d < docs.size(); ++d) {
          auto parsed = xml::ParseDocument(docs[d].uri, docs[d].text);
          ASSERT_TRUE(parsed.ok());
          index::ExtractOptions options;
          options.compress_paths = compress;
          options.generation = d % 2;  // every other document stamped
          index::ExtractStats stats;
          auto items = strategy->ExtractItems(parsed.value(), options, store,
                                              env.rng(), &stats);
          ASSERT_TRUE(items.ok()) << items.status().ToString();
          for (const auto& table : items.value()) {
            ASSERT_TRUE(store.BatchPut(agent, table.table, table.items).ok());
            auto& all = built[table.table];
            all.insert(all.end(), table.items.begin(), table.items.end());
          }
        }
        for (auto& [table, items] : built) {
          std::sort(items.begin(), items.end(),
                    [](const Item& a, const Item& b) {
                      if (a.hash_key != b.hash_key) {
                        return a.hash_key < b.hash_key;
                      }
                      return a.range_key() < b.range_key();
                    });
          std::vector<Item> scanned;
          ASSERT_TRUE(store
                          .Scan(agent, table,
                                [&scanned](const ItemView& item) {
                                  scanned.emplace_back(item);
                                })
                          .ok());
          ASSERT_EQ(scanned.size(), items.size()) << table;
          ASSERT_FALSE(items.empty()) << table;
          for (size_t i = 0; i < items.size(); ++i) {
            ASSERT_TRUE(SameItem(scanned[i], items[i])) << i;
            ASSERT_EQ(scanned[i].record(), items[i].record()) << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace webdex::cloud
