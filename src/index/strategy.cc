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
/// packing respects MaxItemBytes with the stamp included.  Generation 0
/// emits exactly the pre-mutability item layout.
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
  const uint64_t max_item = store.MaxItemBytes();
  if (fixed + 64 > max_item) {
    return Status::InvalidArgument("index key too large for store: " +
                                   std::string(key));
  }
  auto fresh = [&]() {
    Item item{std::string(key), rng.NextUuid(), {}};
    if (generation > 0) item.attrs[kGenAttr] = {stamp};
    return item;
  };
  Item current = fresh();
  uint64_t current_bytes = fixed;
  uint64_t current_values = 0;
  auto flush = [&]() {
    if (current_values > 0) {
      items.push_back(std::move(current));
      current = fresh();
      current_bytes = fixed;
      current_values = 0;
    }
  };
  for (const std::string_view value : values) {
    if (value.size() > store.MaxValueBytes()) {
      return Status::InvalidArgument(
          StrFormat("value of %zu bytes exceeds the store's %llu-byte "
                    "value limit (key %s)",
                    value.size(),
                    static_cast<unsigned long long>(store.MaxValueBytes()),
                    std::string(key).c_str()));
    }
    if (current_values + 1 > store.MaxValuesPerItem() ||
        current_bytes + value.size() > max_item) {
      flush();
    }
    current.attrs[uri].emplace_back(value);
    current_bytes += value.size();
    current_values += 1;
  }
  flush();
  return items;
}

/// Splits a document's sorted ID list into encoded blobs that respect the
/// store's value-size limit (with hex armouring for text-only stores).
std::vector<std::string> EncodeIdChunks(const KvStore& store,
                                        const xml::NodeId* ids,
                                        uint32_t count) {
  const bool binary = store.SupportsBinaryValues();
  // Hex armouring doubles the encoded size.
  const uint64_t limit =
      binary ? store.MaxValueBytes() : store.MaxValueBytes() / 2;
  std::vector<std::string> chunks;
  std::string blob;
  std::string one;
  for (uint32_t i = 0; i < count; ++i) {
    one.clear();
    AppendEncodedId(&one, ids[i]);
    if (!blob.empty() && blob.size() + one.size() > limit) {
      chunks.push_back(binary ? blob : HexArmour(blob));
      blob.clear();
    }
    blob += one;
  }
  if (!blob.empty()) chunks.push_back(binary ? blob : HexArmour(blob));
  return chunks;
}

/// Front-codes a sorted path list into blobs that respect the store's
/// value-size limit (Section 8.5 extension).  Each chunk restarts the
/// front coding so chunks decode independently.
std::vector<std::string> EncodePathChunks(
    const KvStore& store, const std::vector<std::string_view>& paths) {
  const bool binary = store.SupportsBinaryValues();
  const uint64_t limit =
      binary ? store.MaxValueBytes() : store.MaxValueBytes() / 2;
  std::vector<std::string> chunks;
  std::vector<std::string_view> group;
  uint64_t group_bytes = 0;
  auto flush = [&]() {
    if (group.empty()) return;
    const std::string blob = EncodePathViews(group);
    chunks.push_back(binary ? blob : HexArmour(blob));
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

// ---------------------------------------------------------------------------
// The four strategies
// ---------------------------------------------------------------------------

class LuStrategy final : public IndexingStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::kLU; }
  std::vector<std::string> TableNames() const override { return {"idx-lu"}; }

  Result<std::vector<TableItems>> ExtractItems(
      const xml::Document& doc, const DocIndex& index,
      const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
      ExtractStats* stats) const override {
    TableItems out{"idx-lu", {}};
    const std::vector<std::string_view> empty_value{""};
    for (const auto& entry : index.entries()) {
      // I_LU(d) = {(key(n), (URI(d), epsilon))} — Table 2.
      WEBDEX_ASSIGN_OR_RETURN(
          std::vector<Item> items,
          BuildEntryItems(store, uuid_rng, index.key(entry), doc.uri(),
                          options.generation, empty_value));
      for (auto& item : items) {
        stats->payload_bytes += item.SizeBytes();
        out.items.push_back(std::move(item));
      }
      stats->entries += 1;
    }
    stats->items += out.items.size();
    std::vector<TableItems> result;
    result.push_back(std::move(out));
    return result;
  }
};

class LupStrategy final : public IndexingStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::kLUP; }
  std::vector<std::string> TableNames() const override {
    return {"idx-lup"};
  }

  Result<std::vector<TableItems>> ExtractItems(
      const xml::Document& doc, const DocIndex& index,
      const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
      ExtractStats* stats) const override {
    TableItems out{"idx-lup", {}};
    std::vector<std::string_view> path_views;
    std::vector<std::string> encoded;
    std::vector<std::string_view> encoded_views;
    for (const auto& entry : index.entries()) {
      // I_LUP(d) = {(key(n), (URI(d), {inPath_1(n) ... inPath_y(n)}))};
      // optionally front-coded (Section 8.5 extension).
      EntryPathViews(index, entry, &path_views);
      if (options.compress_paths) {
        encoded = EncodePathChunks(store, path_views);
        encoded_views.assign(encoded.begin(), encoded.end());
      }
      WEBDEX_ASSIGN_OR_RETURN(
          std::vector<Item> items,
          BuildEntryItems(store, uuid_rng, index.key(entry), doc.uri(),
                          options.generation,
                          options.compress_paths ? encoded_views
                                                 : path_views));
      for (auto& item : items) {
        stats->payload_bytes += item.SizeBytes();
        out.items.push_back(std::move(item));
      }
      stats->entries += 1;
    }
    stats->items += out.items.size();
    std::vector<TableItems> result;
    result.push_back(std::move(out));
    return result;
  }
};

class LuiStrategy final : public IndexingStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::kLUI; }
  std::vector<std::string> TableNames() const override {
    return {"idx-lui"};
  }

  Result<std::vector<TableItems>> ExtractItems(
      const xml::Document& doc, const DocIndex& index,
      const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
      ExtractStats* stats) const override {
    TableItems out{"idx-lui", {}};
    std::vector<std::string> encoded;
    std::vector<std::string_view> encoded_views;
    for (const auto& entry : index.entries()) {
      // I_LUI(d) = {(key(n), (URI(d), id_1(n)‖id_2(n)‖...‖id_z(n)))} with
      // IDs pre-sorted so the twig join needs no sort (Section 5.3).
      encoded = EncodeIdChunks(store, index.ids(entry), entry.id_count);
      encoded_views.assign(encoded.begin(), encoded.end());
      WEBDEX_ASSIGN_OR_RETURN(
          std::vector<Item> items,
          BuildEntryItems(store, uuid_rng, index.key(entry), doc.uri(),
                          options.generation, encoded_views));
      for (auto& item : items) {
        stats->payload_bytes += item.SizeBytes();
        out.items.push_back(std::move(item));
      }
      stats->entries += 1;
    }
    stats->items += out.items.size();
    std::vector<TableItems> result;
    result.push_back(std::move(out));
    return result;
  }
};

class TwoLupiStrategy final : public IndexingStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::k2LUPI; }
  std::vector<std::string> TableNames() const override {
    return {"idx-2lupi-paths", "idx-2lupi-ids"};
  }

  Result<std::vector<TableItems>> ExtractItems(
      const xml::Document& doc, const DocIndex& index,
      const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
      ExtractStats* stats) const override {
    TableItems paths_out{"idx-2lupi-paths", {}};
    TableItems ids_out{"idx-2lupi-ids", {}};
    std::vector<std::string_view> path_views;
    std::vector<std::string> encoded;
    std::vector<std::string_view> encoded_views;
    for (const auto& entry : index.entries()) {
      EntryPathViews(index, entry, &path_views);
      if (options.compress_paths) {
        encoded = EncodePathChunks(store, path_views);
        encoded_views.assign(encoded.begin(), encoded.end());
      }
      WEBDEX_ASSIGN_OR_RETURN(
          std::vector<Item> path_items,
          BuildEntryItems(store, uuid_rng, index.key(entry), doc.uri(),
                          options.generation,
                          options.compress_paths ? encoded_views
                                                 : path_views));
      for (auto& item : path_items) {
        stats->payload_bytes += item.SizeBytes();
        paths_out.items.push_back(std::move(item));
      }
      encoded = EncodeIdChunks(store, index.ids(entry), entry.id_count);
      encoded_views.assign(encoded.begin(), encoded.end());
      WEBDEX_ASSIGN_OR_RETURN(
          std::vector<Item> id_items,
          BuildEntryItems(store, uuid_rng, index.key(entry), doc.uri(),
                          options.generation, encoded_views));
      for (auto& item : id_items) {
        stats->payload_bytes += item.SizeBytes();
        ids_out.items.push_back(std::move(item));
      }
      stats->entries += 1;
    }
    stats->items += paths_out.items.size() + ids_out.items.size();
    std::vector<TableItems> result;
    result.push_back(std::move(paths_out));
    result.push_back(std::move(ids_out));
    return result;
  }
};

}  // namespace

Result<std::vector<std::string>> IndexingStrategy::LookupPattern(
    cloud::SimAgent& agent, cloud::KvStore& store,
    const query::TreePattern& pattern, const ExtractOptions& options,
    LookupStats* stats, const GenerationMap* view) const {
  const KeyTwig twig = BuildKeyTwig(pattern, options.include_words);
  WEBDEX_ASSIGN_OR_RETURN(std::set<std::string> uris,
                          LookupByKind(kind(), agent, store, TableNames(),
                                       twig, options, stats, view));
  return SortedUris(uris);
}

std::unique_ptr<IndexingStrategy> IndexingStrategy::Create(
    StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kLU:
      return std::make_unique<LuStrategy>();
    case StrategyKind::kLUP:
      return std::make_unique<LupStrategy>();
    case StrategyKind::kLUI:
      return std::make_unique<LuiStrategy>();
    case StrategyKind::k2LUPI:
      return std::make_unique<TwoLupiStrategy>();
  }
  return nullptr;
}

}  // namespace webdex::index
