// Differential test of the encoded item table (cloud/item_table.h):
// seeded random Put / replace / Erase / Restore sequences run against a
// plain nested-map reference model, which must agree on every item, in
// order, on the accounting, and on every Erase result — across replace
// and erase churn, empty attribute sets and values, binary values and
// 64 KB items.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/item_table.h"
#include "cloud/kv_store.h"
#include "common/rng.h"

namespace webdex::cloud {
namespace {

/// The reference: table -> hash key -> range key -> attributes.
using Model =
    std::map<std::string,
             std::map<std::string, std::map<std::string, Attributes>>>;

std::vector<std::pair<std::string, Item>> Contents(const ItemTable& table) {
  std::vector<std::pair<std::string, Item>> out;
  table.ForEachItem([&](const std::string& name, const Item& item) {
    out.emplace_back(name, item);
  });
  return out;
}

std::vector<std::pair<std::string, Item>> Contents(const Model& model) {
  std::vector<std::pair<std::string, Item>> out;
  for (const auto& [name, hashes] : model) {
    for (const auto& [hash_key, ranges] : hashes) {
      for (const auto& [range_key, attrs] : ranges) {
        out.emplace_back(name, Item{hash_key, range_key, attrs});
      }
    }
  }
  return out;
}

bool SameItem(const Item& a, const Item& b) {
  return a.hash_key == b.hash_key && a.range_key == b.range_key &&
         a.attrs == b.attrs;
}

/// Everything the table exposes equals the model's view of it.
void ExpectMatches(const ItemTable& table, const Model& model) {
  const auto got = Contents(table);
  const auto want = Contents(model);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "item " << i;
    ASSERT_TRUE(SameItem(got[i].second, want[i].second)) << "item " << i;
  }
  for (const auto& [name, hashes] : model) {
    const ItemTable::Table& t = table.Lookup(name);
    uint64_t bytes = 0;
    uint64_t items = 0;
    uint64_t values = 0;
    std::vector<Item> all;
    for (const auto& [hash_key, ranges] : hashes) {
      std::vector<Item> by_hash;
      for (const auto& [range_key, attrs] : ranges) {
        const Item item{hash_key, range_key, attrs};
        bytes += item.SizeBytes();
        items += 1;
        values += ItemTable::CountValues(attrs);
        by_hash.push_back(item);
        all.push_back(item);
      }
      std::vector<Item> appended;
      t.AppendItems(hash_key, &appended);
      ASSERT_EQ(appended.size(), by_hash.size()) << name << "/" << hash_key;
      for (size_t i = 0; i < appended.size(); ++i) {
        ASSERT_TRUE(SameItem(appended[i], by_hash[i]));
      }
    }
    EXPECT_EQ(t.stored_bytes(), bytes) << name;
    EXPECT_EQ(t.item_count(), items) << name;
    EXPECT_EQ(t.value_count(), values) << name;
    std::vector<Item> appended{Item{"sentinel", "kept", {}}};
    t.AppendAll(&appended);
    ASSERT_EQ(appended.size(), all.size() + 1) << name;
    EXPECT_EQ(appended.front().hash_key, "sentinel");
    for (size_t i = 0; i < all.size(); ++i) {
      ASSERT_TRUE(SameItem(appended[i + 1], all[i]));
    }
  }
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
std::optional<std::pair<std::string, Item>> PickExisting(const Model& model,
                                                         Rng& rng) {
  const auto all = Contents(model);
  if (all.empty()) return std::nullopt;
  return all[rng.NextBelow(all.size())];
}

void RunRandomOps(uint64_t seed, int ops) {
  Rng rng(seed);
  ItemTable table;
  Model model;
  const std::vector<std::string> names = {"idx-a", "idx-b"};
  for (const auto& name : names) {
    ASSERT_TRUE(table.Create(name));
    model[name];
  }
  const std::vector<std::string> hash_keys = {"", "k", "key-1",
                                              "a-much-longer-hash-key"};
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {  // put a new (or, by chance, an existing) key
      const std::string& name = names[rng.NextBelow(names.size())];
      Item item{hash_keys[rng.NextBelow(hash_keys.size())],
                rng.NextBelow(20) == 0 ? "" : rng.NextUuid().substr(0, 8),
                RandomAttrs(rng)};
      model[name][item.hash_key][item.range_key] = item.attrs;
      table.Find(name)->Put(item);
    } else if (kind < 7) {  // replace an existing item
      auto hit = PickExisting(model, rng);
      if (!hit) continue;
      Item item = hit->second;
      item.attrs = RandomAttrs(rng);
      model[hit->first][item.hash_key][item.range_key] = item.attrs;
      table.Find(hit->first)->Put(item);
    } else if (kind < 9) {  // erase, mostly an existing item
      const std::string& name = names[rng.NextBelow(names.size())];
      std::optional<uint64_t> want;
      Item key{hash_keys[rng.NextBelow(hash_keys.size())], "absent", {}};
      if (rng.NextBelow(4) != 0) {
        if (auto hit = PickExisting(model, rng)) {
          key = hit->second;
          want = key.SizeBytes();
          auto& ranges = model[hit->first][key.hash_key];
          ranges.erase(key.range_key);
          if (ranges.empty()) model[hit->first].erase(key.hash_key);
          EXPECT_EQ(table.Find(hit->first)->Erase(key.hash_key, key.range_key),
                    want)
              << "op " << op;
          continue;
        }
      }
      EXPECT_EQ(table.Find(name)->Erase(key.hash_key, key.range_key),
                std::nullopt)
          << "op " << op;
    } else {  // snapshot restore, sometimes into a table not yet created
      const std::string name = rng.NextBool(0.5) ? "idx-a" : "idx-restored";
      Item item{hash_keys[rng.NextBelow(hash_keys.size())],
                rng.NextUuid().substr(0, 8), RandomAttrs(rng)};
      model[name][item.hash_key][item.range_key] = item.attrs;
      table.Restore(name, item);
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

// Replacing every item over and over, then erasing them all, changes
// nothing a reader can tell from the model; the emptied table still works.
TEST(ItemTableTest, ReplaceAndEraseChurnKeepsContents) {
  Rng rng(7);
  ItemTable table;
  ASSERT_TRUE(table.Create("t"));
  ItemTable::Table& t = *table.Find("t");
  Model model;
  for (int i = 0; i < 200; ++i) {
    Item item{"k" + std::to_string(i % 13), "r" + std::to_string(i),
              RandomAttrs(rng)};
    model["t"][item.hash_key][item.range_key] = item.attrs;
    t.Put(item);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
  for (int round = 0; round < 5; ++round) {
    for (const auto& [name, item] : Contents(model)) {
      Item replaced = item;
      replaced.attrs = RandomAttrs(rng);
      model[name][replaced.hash_key][replaced.range_key] = replaced.attrs;
      t.Put(replaced);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
  }
  for (const auto& [name, item] : Contents(model)) {
    EXPECT_EQ(t.Erase(item.hash_key, item.range_key), item.SizeBytes());
  }
  model["t"].clear();
  EXPECT_EQ(t.item_count(), 0u);
  EXPECT_EQ(t.stored_bytes(), 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
  const Item again{"k", "r", {{"d", {"v"}}}};
  t.Put(again);
  model["t"]["k"]["r"] = again.attrs;
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
}

TEST(ItemTableTest, EmptyAttributeSetsAndValuesRoundTrip) {
  ItemTable table;
  ASSERT_TRUE(table.Create("t"));
  ItemTable::Table& t = *table.Find("t");
  Model model;
  const std::vector<Item> items = {
      Item{"k", "no-attrs", {}},
      Item{"k", "empty-value", {{"d", {""}}}},
      Item{"k", "no-values", {{"d", {}}}},
      Item{"k", "empty-name", {{"", {"", "x", ""}}}},
      Item{"", "", {}},
  };
  for (const Item& item : items) {
    t.Put(item);
    model["t"][item.hash_key][item.range_key] = item.attrs;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
  EXPECT_EQ(t.value_count(), 4u);
  EXPECT_EQ(t.Erase("", ""), 0u);
  EXPECT_EQ(t.Erase("", ""), std::nullopt);
}

TEST(ItemTableTest, BinaryValuesWithNulBytesRoundTrip) {
  ItemTable table;
  ASSERT_TRUE(table.Create("t"));
  const std::string binary("\x00\x01\xff\x00\x80\x7f", 6);
  const Item item{std::string("h\0sh", 4), std::string("r\0", 2),
                  {{std::string("n\0m", 3), {binary, std::string(1, '\0')}}}};
  table.Find("t")->Put(item);
  Model model;
  model["t"][item.hash_key][item.range_key] = item.attrs;
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
  EXPECT_EQ(table.Lookup("t").stored_bytes(), item.SizeBytes());
}

TEST(ItemTableTest, LargeItemRoundTrips) {
  ItemTable table;
  ASSERT_TRUE(table.Create("t"));
  ItemTable::Table& t = *table.Find("t");
  Model model;
  Rng rng(11);
  const Item small_before{"k", "a", {{"d", {"before"}}}};
  const Item big{"k", "b", {{"d", {RandomBytes(rng, 64 * 1024)}}}};
  const Item small_after{"k", "c", {{"d", {"after"}}}};
  for (const Item* item : {&small_before, &big, &small_after}) {
    t.Put(*item);
    model["t"][item->hash_key][item->range_key] = item->attrs;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
  EXPECT_EQ(t.Erase("k", "b"), big.SizeBytes());
  model["t"]["k"].erase("b");
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model));
}

}  // namespace
}  // namespace webdex::cloud
