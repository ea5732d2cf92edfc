#include "index/strategy.h"

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

using cloud::KvStore;

// ---------------------------------------------------------------------------
// Item building (shared by all strategies)
// ---------------------------------------------------------------------------

/// What every item of one document shares: the URI attribute and, for
/// an upsert (generation > 0, index/generation.h), a kGenAttr stamp.
/// Generation 0 emits exactly the pre-mutability item layout.
struct DocFrame {
  std::string_view uri;
  std::string stamp;  // empty at generation 0

  /// Item bytes besides the values: the key, the UUID range key, the URI
  /// name and the stamp.
  uint64_t FixedBytes(std::string_view key) const {
    return key.size() + Rng::kUuidSize + uri.size() +
           (stamp.empty() ? 0 : sizeof(kGenAttr) - 1 + stamp.size());
  }
};

/// Packs the (key, URI, values) entry into as few items as the store's
/// limits allow, appends them to `*buffer` and records where each lies
/// in `*out`.  Every item gets a fresh client-side UUID range key so
/// concurrent loaders can write the same hash key without clobbering
/// each other (Section 6).  `key` and `values` are views into the
/// DocIndex slabs, intern arenas or chunk buffer.
Status BuildEntryItems(const cloud::StoreLimits& limits, Rng& rng,
                       std::string_view key, const DocFrame& frame,
                       const std::vector<std::string_view>& values,
                       std::string* buffer,
                       std::vector<cloud::PackedItem>* out) {
  const uint64_t fixed = frame.FixedBytes(key);
  if (fixed + 64 > limits.max_item_bytes) {
    return Status::InvalidArgument("index key too large for store: " +
                                   std::string(key));
  }
  using cloud::ItemBuilder;
  // A URI equal to the stamp's name would shadow it, as a map did.
  const bool stamped = !frame.stamp.empty() && frame.uri != kGenAttr;
  const bool stamp_first = stamped && frame.uri > kGenAttr;
  const auto add_stamp = [&frame](ItemBuilder& builder) {
    builder.AddAttribute(kGenAttr, 1);
    builder.AddValue(frame.stamp);
  };
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
    char uuid[Rng::kUuidSize];
    rng.WriteUuid(uuid);
    ItemBuilder builder(buffer, key, {uuid, Rng::kUuidSize}, stamped ? 2 : 1);
    if (stamp_first) add_stamp(builder);
    builder.AddAttribute(frame.uri, end - begin);
    for (size_t i = begin; i < end; ++i) builder.AddValue(values[i]);
    if (stamped && !stamp_first) add_stamp(builder);
    out->push_back(std::move(builder).Pack());
    begin = end;
  }
  // An entry consumes one UUID more than it has items: every stored
  // range key (and every golden) was drawn with this stream layout.
  rng.Next();
  rng.Next();
  return Status::OK();
}

/// One entry's encoded payload chunks, back to back in one buffer that
/// is reused across entries, so chunking allocates nothing once warm.
class ChunkBuffer {
 public:
  /// Sizes chunks for an entry whose items carry `fixed` bytes besides
  /// their values.  A chunk must fit both the store's value limit and,
  /// with those bytes, its item limit; hex armouring for text-only
  /// stores doubles a chunk's size.
  void Start(const cloud::StoreLimits& limits, uint64_t fixed) {
    binary_ = limits.binary_values;
    const uint64_t room =
        fixed < limits.max_item_bytes ? limits.max_item_bytes - fixed : 0;
    value_limit_ =
        binary_ ? limits.max_value_bytes : limits.max_value_bytes / 2;
    item_limit_ = binary_ ? room : room / 2;
    bytes_.clear();
    ends_.clear();
  }

  /// Raw (unarmoured) bytes one chunk may hold.
  uint64_t value_limit() const { return value_limit_; }
  uint64_t item_limit() const { return item_limit_; }

  /// Closes `raw` as the next chunk.
  void Add(std::string_view raw) {
    if (binary_) {
      bytes_.append(raw);
    } else {
      AppendHexArmour(&bytes_, raw);
    }
    ends_.push_back(bytes_.size());
  }

  /// Views of the chunks, valid until the next Start.
  const std::vector<std::string_view>& Views() {
    views_.clear();
    size_t begin = 0;
    for (const size_t end : ends_) {
      views_.emplace_back(bytes_.data() + begin, end - begin);
      begin = end;
    }
    return views_;
  }

 private:
  bool binary_ = true;
  uint64_t value_limit_ = 0;
  uint64_t item_limit_ = 0;
  std::string bytes_;
  std::vector<size_t> ends_;
  std::vector<std::string_view> views_;
};

/// Splits a document's sorted ID list into encoded chunks (see
/// ChunkBuffer::Start for their size bound).  `blob` and `one` are
/// scratch.
void EncodeIdChunks(const xml::NodeId* ids, uint32_t count,
                    ChunkBuffer* chunks, std::string* blob,
                    std::string* one) {
  const uint64_t limit = std::min(chunks->value_limit(), chunks->item_limit());
  blob->clear();
  for (uint32_t i = 0; i < count; ++i) {
    one->clear();
    AppendEncodedId(one, ids[i]);
    if (!blob->empty() && blob->size() + one->size() > limit) {
      chunks->Add(*blob);
      blob->clear();
    }
    *blob += *one;
  }
  if (!blob->empty()) chunks->Add(*blob);
}

/// Front-codes a sorted path list into chunks (Section 8.5 extension).
/// Each chunk restarts the front coding so chunks decode independently.
/// A chunk closes when its worst-case size (each path in full plus two
/// varints) would pass the value limit, or its actual size the item
/// limit.  `blob` is scratch.
void EncodePathChunks(const std::vector<std::string_view>& paths,
                      ChunkBuffer* chunks, std::string* blob) {
  blob->clear();
  uint64_t worst_case = 0;
  std::string_view previous;
  const auto flush = [&]() {
    chunks->Add(*blob);
    blob->clear();
    worst_case = 0;
    previous = {};
  };
  for (const std::string_view path : paths) {
    if (!blob->empty() &&
        worst_case + path.size() + 10 > chunks->value_limit()) {
      flush();
    }
    const size_t before = blob->size();
    AppendFrontCodedPath(blob, previous, path);
    if (before > 0 && blob->size() > chunks->item_limit()) {
      blob->resize(before);
      flush();
      AppendFrontCodedPath(blob, previous, path);
    }
    worst_case += path.size() + 10;
    previous = path;
  }
  if (!blob->empty()) flush();
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

Result<std::vector<ItemBatch>> IndexingStrategy::ExtractBatches(
    const xml::Document& doc, const DocIndex& index,
    const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
    ExtractStats* stats) const {
  const std::vector<TableLayout>& layout = StrategyLayout(kind_);
  const cloud::StoreLimits& limits = store.Limits();
  const DocFrame frame{
      doc.uri(),
      options.generation > 0
          ? StrFormat("%llu",
                      static_cast<unsigned long long>(options.generation))
          : std::string()};
  // Every entry makes at least one item per table, and each item at
  // least its fixed bytes, so reserving those leaves each buffer only
  // the values to grow into.
  uint64_t fixed_bytes = 0;
  for (const auto& entry : index.entries()) {
    fixed_bytes += frame.FixedBytes(index.key(entry)) + 8;
  }
  std::vector<ItemBatch> result;
  result.reserve(layout.size());
  // Where each table's items lie in its batch's buffer, until the
  // buffers stop growing.
  std::vector<std::vector<cloud::PackedItem>> packed(layout.size());
  for (size_t t = 0; t < layout.size(); ++t) {
    result.emplace_back(layout[t].table).bytes_.reserve(fixed_bytes);
    packed[t].reserve(index.entries().size());
  }
  // Per-entry scratch, reused across entries.
  const std::vector<std::string_view> empty_value{""};
  std::vector<std::string_view> path_views;
  ChunkBuffer chunks;
  std::string blob;
  std::string one;
  // Entries outside, tables inside: one entry's items for every table
  // draw their UUIDs before the next entry's.
  for (const auto& entry : index.entries()) {
    const std::string_view key = index.key(entry);
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
            chunks.Start(limits, frame.FixedBytes(key));
            EncodePathChunks(path_views, &chunks, &blob);
            values = &chunks.Views();
          }
          break;
        case Payload::kIds:
          // I_LUI(d) = {(key(n), (URI(d), id_1(n)‖id_2(n)‖...‖id_z(n)))}
          // with IDs pre-sorted so the twig join needs no sort (Section
          // 5.3).
          chunks.Start(limits, frame.FixedBytes(key));
          EncodeIdChunks(index.ids(entry), entry.id_count, &chunks, &blob,
                         &one);
          values = &chunks.Views();
          break;
      }
      WEBDEX_RETURN_IF_ERROR(BuildEntryItems(limits, uuid_rng, key, frame,
                                             *values, &result[t].bytes_,
                                             &packed[t]));
    }
    stats->entries += 1;
  }
  for (size_t t = 0; t < layout.size(); ++t) {
    ItemBatch& batch = result[t];
    batch.items.reserve(packed[t].size());
    for (const cloud::PackedItem& item : packed[t]) {
      const cloud::ItemView& view =
          batch.items.emplace_back(item.View(batch.bytes_));
      stats->payload_bytes += view.SizeBytes();
    }
    stats->items += batch.items.size();
  }
  return result;
}

Result<std::vector<TableItems>> IndexingStrategy::ExtractItems(
    const xml::Document& doc, const DocIndex& index,
    const ExtractOptions& options, const KvStore& store, Rng& uuid_rng,
    ExtractStats* stats) const {
  WEBDEX_ASSIGN_OR_RETURN(
      std::vector<ItemBatch> batches,
      ExtractBatches(doc, index, options, store, uuid_rng, stats));
  std::vector<TableItems> result;
  result.reserve(batches.size());
  for (ItemBatch& batch : batches) {
    result.push_back({std::move(batch.table),
                      {batch.items.begin(), batch.items.end()}});
  }
  return result;
}

Result<std::vector<std::string>> IndexingStrategy::LookupPattern(
    cloud::SimAgent& agent, cloud::KvStore& store,
    const query::TreePattern& pattern, const ExtractOptions& options,
    LookupStats* stats, const GenerationMap* view) const {
  const KeyTwig twig = BuildKeyTwig(pattern, options.include_words);
  return LookupByKind(kind_, agent, store, TableNames(), twig, options,
                      stats, view);
}

std::unique_ptr<IndexingStrategy> IndexingStrategy::Create(
    StrategyKind kind) {
  return std::make_unique<IndexingStrategy>(kind);
}

}  // namespace webdex::index
