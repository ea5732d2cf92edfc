#ifndef WEBDEX_TESTS_STORE_DUMP_H_
#define WEBDEX_TESTS_STORE_DUMP_H_

// The tests' reads of a whole KvStore, all on its unbilled
// KvStore::ForEachItem walk: tables in TableNames() order, each table's
// items in (hash, range) key order, as views valid for the visit.

#include <string>
#include <string_view>
#include <vector>

#include "cloud/kv_store.h"

namespace webdex::cloud {

/// Calls `visit(table, item)` with every item of every table of `store`.
/// `visit` must not write to the store; copy (Item(view)) what it keeps.
template <typename Fn>
void ForEachStoredItem(const KvStore& store, Fn&& visit) {
  for (const std::string& table : store.TableNames()) {
    store.ForEachItem(table,
                      [&](const ItemView& item) { visit(table, item); });
  }
}

/// One item as a line, "table|hash|range|name=v1,v2,|name=...", with
/// attributes in name order and values in stored order.
inline std::string DumpLine(std::string_view table, const ItemView& item) {
  std::string line(table);
  line += '|';
  line += item.hash_key;
  line += '|';
  line += item.range_key();
  for (const auto& [name, values] : item.attrs()) {
    line += '|';
    line += name;
    line += '=';
    for (const std::string_view value : values) {
      line += value;
      line += ',';
    }
  }
  return line;
}

/// Every item of `store` as its DumpLine.
inline std::vector<std::string> DumpStore(const KvStore& store) {
  std::vector<std::string> dump;
  ForEachStoredItem(store, [&dump](std::string_view table,
                                   const ItemView& item) {
    dump.push_back(DumpLine(table, item));
  });
  return dump;
}

}  // namespace webdex::cloud

#endif  // WEBDEX_TESTS_STORE_DUMP_H_
