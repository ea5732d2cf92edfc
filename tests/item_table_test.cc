// Differential test of the encoded item table (cloud/item_table.h):
// seeded random Put / replace / Erase sequences run against a plain
// nested-map reference model, which must agree on every item, in order,
// on the accounting, and on every Erase result — across replace and
// erase churn, empty attribute sets and values, binary values and 64 KB
// items.  The named tables above it are exercised through a real
// DynamoDb: multi-table restores, deletes, iteration order and the
// storage accounting the store bills from.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/dynamodb.h"
#include "cloud/item_table.h"
#include "cloud/kv_store.h"
#include "common/rng.h"

namespace webdex::cloud {
namespace {

class TestAgent : public SimAgent {};

/// The reference of one table: hash key -> range key -> attributes.
using TableModel = std::map<std::string, std::map<std::string, Attributes>>;
/// The reference of a store: table -> its model.
using Model = std::map<std::string, TableModel>;

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
  store.ForEachItem([&](const std::string& name, const Item& item) {
    out.emplace_back(name, item);
  });
  return out;
}

bool SameItem(const Item& a, const Item& b) {
  return a.hash_key == b.hash_key && a.range_key == b.range_key &&
         a.attrs == b.attrs;
}

/// Everything the table exposes equals the model's view of it.
void ExpectMatches(const ItemTable& t, const TableModel& model) {
  uint64_t bytes = 0;
  uint64_t values = 0;
  const std::vector<Item> all = Contents(model);
  for (const Item& item : all) {
    bytes += item.SizeBytes();
    values += ItemTable::CountValues(item.attrs);
  }
  for (const auto& [hash_key, ranges] : model) {
    std::vector<Item> appended;
    t.AppendItems(hash_key, &appended);
    ASSERT_EQ(appended.size(), ranges.size()) << hash_key;
    auto range = ranges.begin();
    for (size_t i = 0; i < appended.size(); ++i, ++range) {
      ASSERT_TRUE(
          SameItem(appended[i], Item{hash_key, range->first, range->second}));
    }
  }
  EXPECT_EQ(t.stored_bytes(), bytes);
  EXPECT_EQ(t.item_count(), all.size());
  EXPECT_EQ(t.value_count(), values);
  std::vector<Item> appended{Item{"sentinel", "kept", {}}};
  t.AppendAll(&appended);
  ASSERT_EQ(appended.size(), all.size() + 1);
  EXPECT_EQ(appended.front().hash_key, "sentinel");
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE(SameItem(appended[i + 1], all[i])) << "item " << i;
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
    for (const Item& item : Contents(table)) {
      bytes += item.SizeBytes();
      items += 1;
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

void RunRandomOps(uint64_t seed, int ops) {
  Rng rng(seed);
  ItemTable table;
  TableModel model;
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {  // put a new (or, by chance, an existing) key
      Item item{kHashKeys[rng.NextBelow(kHashKeys.size())],
                rng.NextBelow(20) == 0 ? "" : rng.NextUuid().substr(0, 8),
                RandomAttrs(rng)};
      model[item.hash_key][item.range_key] = item.attrs;
      table.Put(item);
    } else if (kind < 7) {  // replace an existing item
      auto hit = PickExisting(model, rng);
      if (!hit) continue;
      hit->attrs = RandomAttrs(rng);
      model[hit->hash_key][hit->range_key] = hit->attrs;
      table.Put(*hit);
    } else {  // erase, mostly an existing item
      std::optional<uint64_t> want;
      Item key{kHashKeys[rng.NextBelow(kHashKeys.size())], "absent", {}};
      if (rng.NextBelow(4) != 0) {
        if (auto hit = PickExisting(model, rng)) {
          key = *hit;
          want = key.SizeBytes();
          auto& ranges = model[key.hash_key];
          ranges.erase(key.range_key);
          if (ranges.empty()) model.erase(key.hash_key);
        }
      }
      EXPECT_EQ(table.Erase(key.hash_key, key.range_key), want)
          << "op " << op;
    }
    if (op % 97 == 0) {
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

// Snapshot restores into created and not-yet-created tables, replaced by
// later restores and removed by billed deletes: the store iterates, names
// and accounts for exactly the model's tables and items.
TEST(ItemStoreTest, RestoresAndDeletesAcrossTablesMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    UsageMeter meter{Pricing()};
    DynamoDb store(DynamoDbConfig(), &meter);
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
        ASSERT_TRUE(
            store.DeleteItem(agent, name, hit->hash_key, hit->range_key).ok());
        auto& ranges = model[name][hit->hash_key];
        ranges.erase(hit->range_key);
        if (ranges.empty()) model[name].erase(hit->hash_key);
        continue;
      }
      // Restore a new item, or a replacement of an existing one.
      Item item = hit ? *hit
                      : Item{kHashKeys[rng.NextBelow(kHashKeys.size())],
                             rng.NextUuid().substr(0, 8), {}};
      item.attrs = RandomAttrs(rng);
      store.RestoreItem(name, item);
      model[name][item.hash_key][item.range_key] = item.attrs;
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
    Item item{"k" + std::to_string(i % 13), "r" + std::to_string(i),
              RandomAttrs(rng)};
    model[item.hash_key][item.range_key] = item.attrs;
    t.Put(item);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  for (int round = 0; round < 5; ++round) {
    for (Item replaced : Contents(model)) {
      replaced.attrs = RandomAttrs(rng);
      model[replaced.hash_key][replaced.range_key] = replaced.attrs;
      t.Put(replaced);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  }
  for (const Item& item : Contents(model)) {
    EXPECT_EQ(t.Erase(item.hash_key, item.range_key), item.SizeBytes());
  }
  model.clear();
  EXPECT_EQ(t.item_count(), 0u);
  EXPECT_EQ(t.stored_bytes(), 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  const Item again{"k", "r", {{"d", {"v"}}}};
  t.Put(again);
  model["k"]["r"] = again.attrs;
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
    model[item.hash_key][item.range_key] = item.attrs;
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
  model[item.hash_key][item.range_key] = item.attrs;
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
    model[item->hash_key][item->range_key] = item->attrs;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
  EXPECT_EQ(t.Erase("k", "b"), big.SizeBytes());
  model["k"].erase("b");
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(t, model));
}

}  // namespace
}  // namespace webdex::cloud
