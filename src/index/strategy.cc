#include "index/strategy.h"

#include <set>

#include "common/strings.h"
#include "index/generation.h"
#include "index/key_twig.h"
#include "index/lookup_paths.h"
#include "index/keys.h"

namespace webdex::index {

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kLU:
      return "LU";
    case StrategyKind::kLUP:
      return "LUP";
    case StrategyKind::kLUI:
      return "LUI";
    case StrategyKind::k2LUPI:
      return "2LUPI";
  }
  return "?";
}

const std::vector<StrategyKind>& AllStrategyKinds() {
  static const std::vector<StrategyKind>* kinds =
      new std::vector<StrategyKind>{StrategyKind::kLU, StrategyKind::kLUP,
                                    StrategyKind::kLUI,
                                    StrategyKind::k2LUPI};
  return *kinds;
}

LookupStats& LookupStats::operator+=(const LookupStats& o) {
  keys_looked_up += o.keys_looked_up;
  items_fetched += o.items_fetched;
  bytes_fetched += o.bytes_fetched;
  uri_merge_ops += o.uri_merge_ops;
  paths_tested += o.paths_tested;
  twig_id_ops += o.twig_id_ops;
  return *this;
}

namespace {

using cloud::Item;
using cloud::KvStore;

// ---------------------------------------------------------------------------
// Item building (shared by all strategies)
// ---------------------------------------------------------------------------

/// Packs the (key, URI, values) entry into as few items as the store's
/// limits allow.  Every item gets a fresh client-side UUID range key so
/// concurrent loaders can write the same hash key without clobbering each
/// other (Section 6).  `key` and `values` are views into the DocIndex
/// slabs / intern arenas; bytes are copied only once, into the items.
///
/// A generation > 0 (an upsert — index/generation.h) stamps every built
/// item with a kGenAttr attribute; its bytes are part of `fixed` so the
/// packing respects Limits().max_item_bytes with the stamp included.
/// Generation 0 emits exactly the pre-mutability item layout.
Result<std::vector<Item>> BuildEntryItems(
    const KvStore& store, Rng& rng, std::string_view key,
    const std::string& uri, uint64_t generation,
    const std::vector<std::string_view>& values) {
  std::vector<Item> items;
  const std::string stamp =
      generation > 0
          ? StrFormat("%llu", static_cast<unsigned long long>(generation))
          : std::string();
  const uint64_t stamp_bytes =
      generation > 0 ? sizeof(kGenAttr) - 1 + stamp.size() : 0;
  const uint64_t fixed = key.size() + 36 /*uuid*/ + uri.size() + stamp_bytes;
  const cloud::StoreLimits& limits = store.Limits();
  if (fixed + 64 > limits.max_item_bytes) {
    return Status::InvalidArgument("index key too large for store: " +
                                   std::string(key));
  }
  for (size_t begin = 0; begin < values.size();) {
    // Values [begin, end) fill one item; its first value always fits.
    size_t end = begin;
    uint64_t bytes = fixed;
    do {
      const std::string_view value = values[end];
      if (value.size() > limits.max_value_bytes) {
        return Status::InvalidArgument(
            StrFormat("value of %zu bytes exceeds the store's %llu-byte "
                      "value limit (key %s)",
                      value.size(),
                      static_cast<unsigned long long>(limits.max_value_bytes),
                      std::string(key).c_str()));
      }
      bytes += value.size();
      ++end;
    } while (end < values.size() && end - begin < limits.max_values_per_item &&
             bytes + values[end].size() <= limits.max_item_bytes);
    Item& item =
        items.emplace_back(Item{std::string(key), rng.NextUuid(), {}});
    if (generation > 0) item.attrs[kGenAttr] = {stamp};
    item.attrs[uri].assign(values.begin() + begin, values.begin() + end);
    begin = end;
  }
  // An entry consumes one UUID more than it has items: every stored
  // range key (and every golden) was drawn with this stream layout.
  rng.Next();
  rng.Next();
  return items;
}

/// Splits a document's sorted ID list into encoded blobs that respect the
/// store's value-size limit (with hex armouring for text-only stores).
std::vector<std::string> EncodeIdChunks(const KvStore& store,
                                        const xml::NodeId* ids,
                                        uint32_t count) {
  const cloud::StoreLimits& limits = store.Limits();
  const bool binary = limits.binary_values;
  // Hex armouring doubles the encoded size.
  const uint64_t limit =
      binary ? limits.max_value_bytes : limits.max_value_bytes / 2;
  std::vector<std::string> chunks;
  std::string blob;
  std::string one;
  for (uint32_t i = 0; i < count; ++i) {
    one.clear();
    AppendEncodedId(&one, ids[i]);
    if (!blob.empty() && blob.size() + one.size() > limit) {
      chunks.push_back(binary ? std::move(blob) : HexArmour(blob));
      blob.clear();
    }
    blob += one;
  }
  if (!blob.empty()) {
    chunks.push_back(binary ? std::move(blob) : HexArmour(blob));
  }
  return chunks;
}

/// Front-codes a sorted path list into blobs that respect the store's
/// value-size limit (Section 8.5 extension).  Each chunk restarts the
/// front coding so chunks decode independently.
std::vector<std::string> EncodePathChunks(
    const KvStore& store, const std::vector<std::string_view>& paths) {
  const cloud::StoreLimits& limits = store.Limits();
  const bool binary = limits.binary_values;
  const uint64_t limit =
      binary ? limits.max_value_bytes : limits.max_value_bytes / 2;
  std::vector<std::string> chunks;
  std::vector<std::string_view> group;
  uint64_t group_bytes = 0;
  auto flush = [&]() {
    if (group.empty()) return;
    std::string blob = EncodePathViews(group);
    chunks.push_back(binary ? std::move(blob) : HexArmour(blob));
    group.clear();
    group_bytes = 0;
  };
  for (const std::string_view path : paths) {
    // Worst case the path is stored in full plus two varints.
    if (!group.empty() && group_bytes + path.size() + 10 > limit) flush();
    group_bytes += path.size() + 10;
    group.push_back(path);
  }
  flush();
  return chunks;
}

/// Resolves one entry's path handles into views (reusing `*out`).
void EntryPathViews(const DocIndex& index, const DocIndex::Entry& entry,
                    std::vector<std::string_view>* out) {
  out->clear();
  out->reserve(entry.path_count);
  const PathHandle* handles = index.paths(entry);
  for (uint32_t i = 0; i < entry.path_count; ++i) {
    out->push_back(index.path(handles[i]));
  }
}

}  // namespace

const std::vector<TableLayout>& StrategyLayout(StrategyKind kind) {
  // Indexed by StrategyKind.
  static const std::vector<TableLayout>* layouts =
      new std::vector<TableLayout>[4]{
          {{"idx-lu", Payload::kNone}},
          {{"idx-lup", Payload::kPaths}},
          {{"idx-lui", Payload::kIds}},
          {{"idx-2lupi-paths", Payload::kPaths},
           {"idx-2lupi-ids", Payload::kIds}},
      };
  return layouts[static_cast<int>(kind)];
}

std::vector<std::string> StrategyTableNames(StrategyKind kind) {
  std::vector<std::string> names;
  for (const TableLayout& table : StrategyLayout(kind)) {
    names.emplace_back(table.table);
  }
  return names;
}

Result<std::vector<TableItems>> IndexingStrategy::ExtractItems(
    const xml::Document& doc, const DocIndex& index,
    const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
    ExtractStats* stats) const {
  const std::vector<TableLayout>& layout = StrategyLayout(kind_);
  std::vector<TableItems> result;
  result.reserve(layout.size());
  for (const TableLayout& table : layout) result.push_back({table.table, {}});
  // Per-entry scratch, reused across entries.
  const std::vector<std::string_view> empty_value{""};
  std::vector<std::string_view> path_views;
  std::vector<std::string> encoded;
  std::vector<std::string_view> encoded_views;
  // Entries outside, tables inside: one entry's items for every table
  // draw their UUIDs before the next entry's.
  for (const auto& entry : index.entries()) {
    for (size_t t = 0; t < layout.size(); ++t) {
      const std::vector<std::string_view>* values = &empty_value;
      switch (layout[t].payload) {
        case Payload::kNone:
          // I_LU(d) = {(key(n), (URI(d), epsilon))} — Table 2.
          break;
        case Payload::kPaths:
          // I_LUP(d) = {(key(n), (URI(d), {inPath_1(n) ... inPath_y(n)}))};
          // optionally front-coded (Section 8.5 extension).
          EntryPathViews(index, entry, &path_views);
          values = &path_views;
          if (options.compress_paths) {
            encoded = EncodePathChunks(store, path_views);
            encoded_views.assign(encoded.begin(), encoded.end());
            values = &encoded_views;
          }
          break;
        case Payload::kIds:
          // I_LUI(d) = {(key(n), (URI(d), id_1(n)‖id_2(n)‖...‖id_z(n)))}
          // with IDs pre-sorted so the twig join needs no sort (Section
          // 5.3).
          encoded = EncodeIdChunks(store, index.ids(entry), entry.id_count);
          encoded_views.assign(encoded.begin(), encoded.end());
          values = &encoded_views;
          break;
      }
      WEBDEX_ASSIGN_OR_RETURN(
          std::vector<Item> items,
          BuildEntryItems(store, uuid_rng, index.key(entry), doc.uri(),
                          options.generation, *values));
      for (auto& item : items) {
        stats->payload_bytes += item.SizeBytes();
        result[t].items.push_back(std::move(item));
      }
    }
    stats->entries += 1;
  }
  for (const TableItems& table : result) stats->items += table.items.size();
  return result;
}

Result<std::vector<std::string>> IndexingStrategy::LookupPattern(
    cloud::SimAgent& agent, cloud::KvStore& store,
    const query::TreePattern& pattern, const ExtractOptions& options,
    LookupStats* stats, const GenerationMap* view) const {
  const KeyTwig twig = BuildKeyTwig(pattern, options.include_words);
  WEBDEX_ASSIGN_OR_RETURN(std::set<std::string> uris,
                          LookupByKind(kind_, agent, store, TableNames(),
                                       twig, options, stats, view));
  return SortedUris(uris);
}

std::unique_ptr<IndexingStrategy> IndexingStrategy::Create(
    StrategyKind kind) {
  return std::make_unique<IndexingStrategy>(kind);
}

}  // namespace webdex::index
