#include "index/lookup_paths.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <utility>

#include "index/keys.h"
#include "index/path_match.h"
#include "xml/structural_join.h"

namespace webdex::index {

using cloud::ItemView;
using cloud::KvStore;

namespace {

/// The index of `key` in `keys`, or keys.size().
uint32_t KeyOrdinal(const std::vector<std::string>& keys,
                    std::string_view key) {
  return static_cast<uint32_t>(std::find(keys.begin(), keys.end(), key) -
                               keys.begin());
}

/// Keeps the members of `*ids` that `other` also holds (both ascending):
/// one linear merge, written back into `*ids`.
void IntersectInPlace(std::vector<DocId>* ids,
                      const std::vector<DocId>& other) {
  auto kept = ids->begin();
  auto it = other.begin();
  for (const DocId id : *ids) {
    while (it != other.end() && *it < id) ++it;
    if (it == other.end()) break;
    if (*it == id) *kept++ = id;
  }
  ids->erase(kept, ids->end());
}

}  // namespace

DocId DocTable::Intern(std::string_view uri) {
  if (2 * (uris_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(uri) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == 0) {
      uris_.push_back(uri);
      slots_[i] = static_cast<DocId>(uris_.size());
      return slots_[i] - 1;
    }
    if (uris_[slots_[i] - 1] == uri) return slots_[i] - 1;
  }
}

void DocTable::Grow() {
  slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (DocId id = 0; id < uris_.size(); ++id) {
    size_t i = std::hash<std::string_view>{}(uris_[id]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }
}

std::vector<std::string> DocTable::SortedUris(
    std::span<const DocId> ids) const {
  std::vector<std::string_view> views;
  views.reserve(ids.size());
  for (const DocId id : ids) views.push_back(uris_[id]);
  std::sort(views.begin(), views.end());
  return {views.begin(), views.end()};
}

Status FetchEntries(cloud::SimAgent& agent, KvStore& store,
                    const std::string& table,
                    const std::vector<std::string>& keys, DocTable* docs,
                    LookupStats* stats, const GenerationMap* view,
                    FetchedEntries* out) {
  WEBDEX_ASSIGN_OR_RETURN(std::vector<ItemView> items,
                          store.BatchGetViews(agent, table, keys));
  stats->keys_looked_up += keys.size();
  out->postings.clear();
  out->postings.reserve(items.size());
  uint32_t key = 0;
  for (const ItemView& item : items) {
    // Fetched items are billed whether or not the generation filter
    // keeps them — superseded postings cost reads until compacted.
    stats->items_fetched += 1;
    stats->bytes_fetched += item.SizeBytes();
    // Items arrive grouped by key (BatchGetViews), so the key ordinal
    // is searched for only when the key changes.
    if (key == keys.size() || keys[key] != item.hash_key) {
      key = KeyOrdinal(keys, item.hash_key);
      if (key == keys.size()) continue;  // not a requested key
    }
    const uint64_t stamp = StampOf(item);
    for (const auto& [uri, values] : item.attrs()) {
      if (uri == kGenAttr) continue;  // reserved stamp, not an owner URI
      if (view != nullptr && !view->Visible(uri, stamp)) continue;
      out->postings.push_back({key, docs->Intern(uri), values});
    }
  }
  std::stable_sort(out->postings.begin(), out->postings.end(),
                   [](const FetchedEntries::Posting& a,
                      const FetchedEntries::Posting& b) {
                     return a.key != b.key ? a.key < b.key : a.doc < b.doc;
                   });
  out->key_begin.assign(keys.size() + 1, 0);
  for (const auto& posting : out->postings) ++out->key_begin[posting.key + 1];
  for (size_t k = 0; k < keys.size(); ++k) {
    out->key_begin[k + 1] += out->key_begin[k];
  }
  return Status::OK();
}

namespace {

/// Append-only bytes in blocks that never reallocate, so views into them
/// stay valid for the whole look-up.
class ByteArena {
 public:
  /// A buffer with room for `bytes` more bytes: appending at most that
  /// many leaves every earlier view valid.
  std::string* Reserve(size_t bytes) {
    if (blocks_.empty() ||
        blocks_.back().capacity() - blocks_.back().size() < bytes) {
      blocks_.emplace_back().reserve(std::max(bytes, kBlockBytes));
    }
    return &blocks_.back();
  }

 private:
  static constexpr size_t kBlockBytes = 16 * 1024;
  std::deque<std::string> blocks_;
};

/// One look-up: the fetched postings, the document ids and every buffer
/// the cores reuse.  It belongs to the call, so a look-up's allocations
/// do not depend on what ran before it.  Each core leaves its answer in
/// `*out` as DocIds in ascending order.
class Lookup {
 public:
  Lookup(cloud::SimAgent& agent, KvStore& store, const KeyTwig& twig,
         LookupStats* stats, const GenerationMap* view)
      : agent_(agent),
        store_(store),
        twig_(twig),
        stats_(stats),
        view_(view),
        binary_(store.Limits().binary_values) {}

  const DocTable& docs() const { return docs_; }

  /// LU (Section 5.1): fetch every twig key and intersect the URI sets.
  Status ByKeys(const std::string& table, std::vector<DocId>* out);
  /// LUP (Section 5.2; 2LUPI's first phase).
  Status ByPaths(const std::string& table, const ExtractOptions& options,
                 std::vector<DocId>* out);
  /// LUI (Section 5.3; 2LUPI's second phase).  With a non-null
  /// `restrict_to`, documents outside it are skipped — the semijoin
  /// reduction of Figure 5.
  Status ByIds(const std::string& table,
               const std::vector<DocId>* restrict_to,
               std::vector<DocId>* out);
  /// 2LUPI (Figure 5): ByPaths, then — unless empty — ByIds reduced by it.
  Status Semijoin(const std::string& paths_table,
                  const std::string& ids_table, const ExtractOptions& options,
                  std::vector<DocId>* out);

 private:
  using Posting = FetchedEntries::Posting;

  /// One stored value's data paths, split into components once even when
  /// several query paths share its key.  Filled lazily — a value the
  /// match never reaches (early match) is never decoded, so a corrupt
  /// trailing value fails exactly when the set-based core failed.
  struct SplitValue {
    bool ready = false;
    uint32_t first_path = 0;  // into paths_
    uint32_t path_count = 0;
  };

  Status Fetch(const std::string& table,
               const std::vector<std::string>& keys) {
    return FetchEntries(agent_, store_, table, keys, &docs_, stats_, view_,
                        &entries_);
  }
  std::span<const Posting> KeyPostings(uint32_t key) const {
    return std::span<const Posting>(entries_.postings)
        .subspan(entries_.key_begin[key],
                 entries_.key_begin[key + 1] - entries_.key_begin[key]);
  }
  /// Folds `set` (ascending DocIds) into the running intersection `*out`,
  /// taking the first set (`*first`) as it is.  `uri_merge_ops` grows by
  /// the size of every folded set.  Returns false once `*out` is empty.
  bool Narrow(const std::vector<DocId>& set, bool* first,
              std::vector<DocId>* out);
  /// Intersects the document sets of the twig's keys, the fetched keys
  /// (the LU merge).  Empty as soon as one key has no postings.
  void IntersectKeys(std::vector<DocId>* out);
  /// Splits one stored value's data paths into paths_ and components_.
  Status Split(std::string_view value, bool compressed, SplitValue* split);
  /// Appends the ID lists of `key`'s postings for each document of
  /// `candidates` to ids_, recording each in ranges_ (key-major).
  Status DecodeIds(uint32_t key, const std::vector<DocId>& candidates);

  cloud::SimAgent& agent_;
  KvStore& store_;
  const KeyTwig& twig_;
  LookupStats* stats_;
  const GenerationMap* view_;
  const bool binary_;

  DocTable docs_;
  FetchedEntries entries_;
  std::vector<DocId> set_;  // one key's or one query path's documents
  std::string dearmoured_;  // one hex-armoured value, dearmoured

  // ByPaths: the split values, each a run of paths_, each path a run of
  // components_ viewing the fetched values or bytes_.
  std::vector<SplitValue> splits_;
  std::vector<std::pair<uint32_t, uint32_t>> paths_;
  std::vector<std::string_view> components_;
  std::string decoded_;  // one front-coded value's paths, back to back
  std::vector<size_t> path_ends_;
  ByteArena bytes_;

  // ByIds: every decoded ID list, back to back, and each (key, candidate)
  // list's [begin, end) in ids_.
  std::vector<DocId> candidates_;
  std::vector<xml::NodeId> ids_;
  std::vector<std::pair<uint32_t, uint32_t>> ranges_;
};

bool Lookup::Narrow(const std::vector<DocId>& set, bool* first,
                    std::vector<DocId>* out) {
  stats_->uri_merge_ops += set.size();
  if (*first) {
    out->assign(set.begin(), set.end());
    *first = false;
  } else {
    IntersectInPlace(out, set);
  }
  return !out->empty();
}

void Lookup::IntersectKeys(std::vector<DocId>* out) {
  out->clear();
  bool first = true;
  for (uint32_t k = 0; k < twig_.keys.size(); ++k) {
    set_.clear();
    for (const Posting& posting : KeyPostings(k)) {
      if (set_.empty() || set_.back() != posting.doc) {
        set_.push_back(posting.doc);
      }
    }
    if (set_.empty() || !Narrow(set_, &first, out)) {
      out->clear();
      return;
    }
  }
}

Status Lookup::ByKeys(const std::string& table, std::vector<DocId>* out) {
  WEBDEX_RETURN_IF_ERROR(Fetch(table, twig_.keys));
  IntersectKeys(out);
  return Status::OK();
}

Status Lookup::Split(std::string_view value, bool compressed,
                     SplitValue* split) {
  split->ready = true;
  split->first_path = static_cast<uint32_t>(paths_.size());
  auto add = [this](std::string_view path, std::string* scratch) {
    const auto begin = static_cast<uint32_t>(components_.size());
    AppendSplitPath(path, scratch, &components_);
    paths_.emplace_back(begin,
                        static_cast<uint32_t>(components_.size()) - begin);
  };
  if (!compressed) {
    // Components view the stored value; only unescaped ones are copied.
    add(value, bytes_.Reserve(value.size()));
  } else {
    std::string_view raw = value;
    if (!binary_) {
      dearmoured_.clear();
      WEBDEX_RETURN_IF_ERROR(AppendHexDearmour(value, &dearmoured_));
      raw = dearmoured_;
    }
    decoded_.clear();
    path_ends_.clear();
    WEBDEX_RETURN_IF_ERROR(AppendDecodedPaths(raw, &decoded_, &path_ends_));
    // The decoded paths, then at most as many unescaped bytes.
    std::string* block = bytes_.Reserve(2 * decoded_.size());
    const size_t base = block->size();
    block->append(decoded_);
    size_t begin = 0;
    for (const size_t end : path_ends_) {
      add(std::string_view(*block).substr(base + begin, end - begin), block);
      begin = end;
    }
  }
  split->path_count = static_cast<uint32_t>(paths_.size()) - split->first_path;
  return Status::OK();
}

Status Lookup::ByPaths(const std::string& table,
                       const ExtractOptions& options,
                       std::vector<DocId>* out) {
  WEBDEX_RETURN_IF_ERROR(Fetch(table, twig_.lookup_keys));
  // Value v of posting p is split value first_value[p] + v.
  std::vector<uint32_t> first_value(entries_.postings.size());
  uint32_t values = 0;
  for (size_t p = 0; p < entries_.postings.size(); ++p) {
    first_value[p] = values;
    values += static_cast<uint32_t>(entries_.postings[p].values.size());
  }
  splits_.assign(values, SplitValue{});

  out->clear();
  bool first = true;
  for (size_t q = 0; q < twig_.query_paths.size(); ++q) {
    const QueryPath& query_path = twig_.query_paths[q];
    const std::span<const Posting> postings =
        KeyPostings(twig_.path_lookup[q]);
    if (postings.empty()) {
      out->clear();
      return Status::OK();
    }
    set_.clear();
    // Each document's postings are a run; its values are tested in fetch
    // order until one stored path matches.
    for (size_t begin = 0, end; begin < postings.size(); begin = end) {
      const DocId doc = postings[begin].doc;
      for (end = begin; end < postings.size() && postings[end].doc == doc;) {
        ++end;
      }
      bool matched = false;
      for (size_t p = begin; p < end && !matched; ++p) {
        const size_t index = static_cast<size_t>(&postings[p] -
                                                 entries_.postings.data());
        uint32_t v = first_value[index];
        for (const std::string_view value : postings[p].values) {
          SplitValue& split = splits_[v++];
          if (!split.ready) {
            WEBDEX_RETURN_IF_ERROR(
                Split(value, options.compress_paths, &split));
          }
          for (uint32_t i = 0; i < split.path_count && !matched; ++i) {
            const auto [path_begin, count] = paths_[split.first_path + i];
            stats_->paths_tested += 1;
            matched = PathMatches(query_path,
                                  components_.data() + path_begin, count);
          }
          if (matched) break;
        }
      }
      if (matched) set_.push_back(doc);
    }
    if (!Narrow(set_, &first, out)) {
      out->clear();
      return Status::OK();
    }
  }
  return Status::OK();
}

Status Lookup::DecodeIds(uint32_t key, const std::vector<DocId>& candidates) {
  const std::span<const Posting> postings = KeyPostings(key);
  size_t c = 0;
  for (size_t begin = 0, end; begin < postings.size(); begin = end) {
    const DocId doc = postings[begin].doc;
    for (end = begin; end < postings.size() && postings[end].doc == doc;) {
      ++end;
    }
    while (c < candidates.size() && candidates[c] < doc) ++c;
    if (c == candidates.size()) break;
    if (candidates[c] != doc) continue;
    const auto first = static_cast<uint32_t>(ids_.size());
    size_t blobs = 0;
    for (size_t p = begin; p < end; ++p) {
      for (const std::string_view blob : postings[p].values) {
        ++blobs;
        std::string_view raw = blob;
        if (!binary_) {
          dearmoured_.clear();
          WEBDEX_RETURN_IF_ERROR(AppendHexDearmour(blob, &dearmoured_));
          raw = dearmoured_;
        }
        WEBDEX_RETURN_IF_ERROR(AppendDecodedIds(raw, &ids_));
      }
    }
    // Single blobs are already sorted by pre (kept sorted at indexing
    // time, Section 5.3); chunked entries may arrive in any range-key
    // order, so restore the order chunk-wise.
    if (blobs > 1) {
      std::sort(ids_.begin() + first, ids_.end());
      stats_->twig_id_ops += ids_.size() - first;
    }
    ranges_[key * candidates.size() + c] = {
        first, static_cast<uint32_t>(ids_.size())};
  }
  return Status::OK();
}

Status Lookup::ByIds(const std::string& table,
                     const std::vector<DocId>* restrict_to,
                     std::vector<DocId>* out) {
  WEBDEX_RETURN_IF_ERROR(Fetch(table, twig_.keys));

  // Candidates: documents present for every key (any absent key ->
  // the document cannot embed the twig), further reduced by
  // `restrict_to`.
  IntersectKeys(&candidates_);
  if (restrict_to != nullptr) {
    stats_->uri_merge_ops += candidates_.size();
    IntersectInPlace(&candidates_, *restrict_to);
  }
  out->clear();
  if (candidates_.empty()) return Status::OK();

  // Decode every candidate's ID list per key into the one ids_ buffer.
  ids_.clear();
  ranges_.assign(twig_.keys.size() * candidates_.size(), {0, 0});
  for (uint32_t k = 0; k < twig_.keys.size(); ++k) {
    WEBDEX_RETURN_IF_ERROR(DecodeIds(k, candidates_));
  }

  // Holistic twig join per candidate document.  The inputs borrow their
  // spans from ids_, and one input and one satisfying-set buffer serve
  // every candidate.
  const size_t nodes = twig_.edges.size();
  std::vector<std::span<const xml::NodeId>> inputs(nodes);
  std::vector<std::vector<xml::NodeId>> sat;
  for (size_t c = 0; c < candidates_.size(); ++c) {
    bool complete = true;
    for (size_t n = 0; n < nodes && complete; ++n) {
      const auto [begin, end] =
          ranges_[twig_.node_keys[n] * candidates_.size() + c];
      inputs[n] = std::span<const xml::NodeId>(ids_).subspan(begin,
                                                             end - begin);
      complete = begin != end;
    }
    if (complete &&
        xml::SatisfyTwig<xml::NodeId>(
            twig_.edges, inputs,
            [](size_t, const xml::NodeId&) { return true; }, &sat,
            &stats_->twig_id_ops)) {
      out->push_back(candidates_[c]);
    }
  }
  return Status::OK();
}

Status Lookup::Semijoin(const std::string& paths_table,
                        const std::string& ids_table,
                        const ExtractOptions& options,
                        std::vector<DocId>* out) {
  // Phase 1 (Figure 5, left): path look-up -> R1(URI).
  std::vector<DocId> r1;
  WEBDEX_RETURN_IF_ERROR(ByPaths(paths_table, options, &r1));
  out->clear();
  if (r1.empty()) return Status::OK();
  // Phase 2: ID look-up semijoin-reduced by R1, then holistic twig join.
  // R1's views into the paths table stay valid: reads never move a
  // table's bytes.
  return ByIds(ids_table, &r1, out);
}

}  // namespace

Result<std::vector<std::string>> LookupByKind(
    StrategyKind kind, cloud::SimAgent& agent, KvStore& store,
    const std::vector<std::string>& tables, const KeyTwig& twig,
    const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view) {
  Lookup lookup(agent, store, twig, stats, view);
  std::vector<DocId> found;
  Status status = Status::InvalidArgument("unknown strategy");
  switch (kind) {
    case StrategyKind::kLU:
      status = lookup.ByKeys(tables[0], &found);
      break;
    case StrategyKind::kLUP:
      status = lookup.ByPaths(tables[0], options, &found);
      break;
    case StrategyKind::kLUI:
      status = lookup.ByIds(tables[0], nullptr, &found);
      break;
    case StrategyKind::k2LUPI:
      status = lookup.Semijoin(tables[0], tables[1], options, &found);
      break;
  }
  WEBDEX_RETURN_IF_ERROR(status);
  return lookup.docs().SortedUris(found);
}

}  // namespace webdex::index
