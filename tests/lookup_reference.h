#ifndef WEBDEX_TESTS_LOOKUP_REFERENCE_H_
#define WEBDEX_TESTS_LOOKUP_REFERENCE_H_

// A test oracle for the index look-up cores of index/lookup_paths.h: the
// set-based cores the look-up used before it moved onto borrowed item
// views and dense document ids.  They copy every fetched item, key, URI
// and value into string maps and intersect std::set<std::string>s, so
// the differential suite can compare the production cores' URI lists and
// LookupStats against the obvious implementation.

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cloud/kv_store.h"
#include "common/result.h"
#include "index/entry.h"
#include "index/generation.h"
#include "index/key_twig.h"
#include "index/keys.h"
#include "index/lookup_paths.h"
#include "index/path_match.h"
#include "index/strategy.h"
#include "xml/structural_join.h"

namespace webdex::index::reference {

using cloud::Item;
using cloud::KvStore;

/// Merged view of everything the index holds for a set of keys:
/// key -> URI -> concatenated attribute values.
using FetchedEntries = std::map<
    std::string,
    std::map<std::string, std::vector<std::string>, std::less<>>>;

inline Result<FetchedEntries> FetchEntries(
    cloud::SimAgent& agent, KvStore& store, const std::string& table,
    const std::vector<std::string>& keys, LookupStats* stats,
    const GenerationMap* view) {
  FetchedEntries merged;
  auto fetched = store.BatchGet(agent, table, keys);
  if (!fetched.ok()) return fetched.status();
  stats->keys_looked_up += keys.size();
  for (const Item& item : fetched.value()) {
    // Fetched items are billed whether or not the generation filter
    // keeps them — superseded postings cost reads until compacted.
    stats->items_fetched += 1;
    stats->bytes_fetched += item.SizeBytes();
    const uint64_t stamp = StampOf(item);
    for (const auto& [uri, values] : item.attrs()) {
      if (uri == kGenAttr) continue;  // reserved stamp, not an owner URI
      if (view != nullptr && !view->Visible(uri, stamp)) continue;
      auto& by_uri = merged[item.hash_key];
      auto dst = by_uri.find(uri);
      if (dst == by_uri.end()) dst = by_uri.try_emplace(std::string(uri)).first;
      dst->second.insert(dst->second.end(), values.begin(), values.end());
    }
  }
  return merged;
}

inline std::vector<std::string> SortedUris(
    const std::set<std::string>& uris) {
  return {uris.begin(), uris.end()};
}

/// Folds one key's (or one query path's) URI set into the running
/// intersection `*result`, taking the first set (`*first`) as it is.
/// Returns false once the intersection is empty.
inline bool NarrowUris(std::set<std::string> uris, bool* first,
                       std::set<std::string>* result, LookupStats* stats) {
  stats->uri_merge_ops += uris.size();
  if (*first) {
    *result = std::move(uris);
    *first = false;
  } else {
    std::set<std::string> next;
    std::set_intersection(result->begin(), result->end(), uris.begin(),
                          uris.end(), std::inserter(next, next.begin()));
    *result = std::move(next);
  }
  return !result->empty();
}

inline std::set<std::string> IntersectUris(
    const FetchedEntries& entries, const std::vector<std::string>& keys,
    LookupStats* stats) {
  std::set<std::string> result;
  bool first = true;
  for (const std::string& key : keys) {
    auto it = entries.find(key);
    if (it == entries.end()) return {};
    std::set<std::string> uris;
    for (const auto& [uri, values] : it->second) {
      (void)values;
      uris.insert(uri);
    }
    if (!NarrowUris(std::move(uris), &first, &result, stats)) return {};
  }
  return result;
}

inline Result<std::set<std::string>> LookupByKeys(
    cloud::SimAgent& agent, KvStore& store, const std::string& table,
    const KeyTwig& twig, LookupStats* stats, const GenerationMap* view) {
  const std::vector<std::string>& keys = twig.keys;
  WEBDEX_ASSIGN_OR_RETURN(
      FetchedEntries entries,
      FetchEntries(agent, store, table, keys, stats, view));
  return IntersectUris(entries, keys, stats);
}

/// One stored attribute value, decoded and split at most once even when
/// several query paths share the same lookup key.  Decoding stays lazy —
/// a value the legacy loop never reached (early match) is still never
/// decoded, so error behavior on corrupt trailing values is unchanged.
struct SplitValue {
  bool ready = false;
  std::vector<std::string> owned;  // decoded paths (front-coded values)
  std::string component_storage;   // unescaped component bytes
  std::vector<std::string_view> components;  // all paths' components, flat
  /// Each data path as [begin, count) into `components`.
  std::vector<std::pair<uint32_t, uint32_t>> paths;

  Status Decode(const std::string& value, bool compressed, bool binary) {
    ready = true;
    std::string_view raw = value;
    std::string dearmoured;
    if (compressed) {
      if (!binary) {
        WEBDEX_ASSIGN_OR_RETURN(dearmoured, HexDearmour(value));
        raw = dearmoured;
      }
      WEBDEX_ASSIGN_OR_RETURN(owned, DecodePaths(raw));
    }
    size_t total_bytes = 0;
    if (compressed) {
      for (const std::string& p : owned) total_bytes += p.size();
    } else {
      total_bytes = value.size();
    }
    component_storage.reserve(total_bytes);
    auto add = [this](std::string_view path) {
      const uint32_t begin = static_cast<uint32_t>(components.size());
      AppendSplitPath(path, &component_storage, &components);
      paths.emplace_back(begin,
                         static_cast<uint32_t>(components.size()) - begin);
    };
    if (compressed) {
      for (const std::string& p : owned) add(p);
    } else {
      add(value);
    }
    return Status::OK();
  }
};

inline Result<std::set<std::string>> LookupByPaths(
    cloud::SimAgent& agent, KvStore& store, const std::string& table,
    const KeyTwig& twig, const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view) {
  const std::vector<QueryPath>& query_paths = twig.query_paths;
  const std::vector<std::string>& lookup_keys = twig.lookup_keys;
  WEBDEX_ASSIGN_OR_RETURN(
      FetchedEntries entries,
      FetchEntries(agent, store, table, lookup_keys, stats, view));

  // Decode-and-split cache, keyed by each (key, URI)'s stable value
  // vector.  Distinct query paths sharing a lookup key re-test the same
  // stored paths; pre-splitting each value once replaces the legacy
  // re-split-per-test inner loop.
  const bool binary = store.Limits().binary_values;
  std::map<const std::vector<std::string>*, std::vector<SplitValue>> cache;

  std::set<std::string> result;
  bool first = true;
  for (const QueryPath& query_path : query_paths) {
    auto it = entries.find(query_path.LookupKey());
    if (it == entries.end()) return std::set<std::string>{};
    std::set<std::string> uris;
    for (const auto& [uri, values] : it->second) {
      // Values are either plain paths or front-coded path blobs,
      // depending on how the index was built.
      std::vector<SplitValue>& split_values = cache[&values];
      if (split_values.empty()) split_values.resize(values.size());
      bool matched = false;
      for (size_t v = 0; v < values.size(); ++v) {
        if (matched) break;
        SplitValue& split = split_values[v];
        if (!split.ready) {
          WEBDEX_RETURN_IF_ERROR(
              split.Decode(values[v], options.compress_paths, binary));
        }
        for (const auto& [begin, count] : split.paths) {
          stats->paths_tested += 1;
          if (PathMatches(query_path, split.components.data() + begin,
                          count)) {
            matched = true;
            break;
          }
        }
      }
      if (matched) uris.insert(uri);
    }
    if (!NarrowUris(std::move(uris), &first, &result, stats)) {
      return std::set<std::string>{};
    }
  }
  return result;
}

inline Result<std::set<std::string>> LookupByIds(
    cloud::SimAgent& agent, KvStore& store, const std::string& table,
    const KeyTwig& twig, const std::set<std::string>* restrict_to,
    LookupStats* stats, const GenerationMap* view) {
  const std::vector<std::string>& keys = twig.keys;
  WEBDEX_ASSIGN_OR_RETURN(
      FetchedEntries entries,
      FetchEntries(agent, store, table, keys, stats, view));

  // Candidate URIs: those present for every key (any absent key ->
  // document cannot embed the twig), further reduced by `restrict_to`.
  std::set<std::string> candidates = IntersectUris(entries, keys, stats);
  if (restrict_to != nullptr) {
    std::set<std::string> reduced;
    std::set_intersection(candidates.begin(), candidates.end(),
                          restrict_to->begin(), restrict_to->end(),
                          std::inserter(reduced, reduced.begin()));
    stats->uri_merge_ops += candidates.size();
    candidates = std::move(reduced);
  }

  // Decode ID lists per (key, URI).  Keys and URIs are borrowed as views
  // into `keys` / the fetched entries (both outlive the join), so this
  // stage allocates only the decoded ID vectors themselves.
  const bool binary = store.Limits().binary_values;
  std::map<std::string_view,
           std::map<std::string_view, std::vector<xml::NodeId>>>
      ids_by_key_uri;
  for (const std::string& key : keys) {
    auto entry_it = entries.find(key);
    if (entry_it == entries.end()) return std::set<std::string>{};
    for (const auto& [uri, blobs] : entry_it->second) {
      if (candidates.count(uri) == 0) continue;
      std::vector<xml::NodeId> ids;
      for (const std::string& blob : blobs) {
        std::string raw = blob;
        if (!binary) {
          WEBDEX_ASSIGN_OR_RETURN(raw, HexDearmour(blob));
        }
        WEBDEX_ASSIGN_OR_RETURN(std::vector<xml::NodeId> chunk,
                                DecodeIds(raw));
        ids.insert(ids.end(), chunk.begin(), chunk.end());
      }
      // Single blobs are already sorted by pre (kept sorted at indexing
      // time, Section 5.3); chunked entries may arrive in any range-key
      // order, so restore the order chunk-wise.
      if (blobs.size() > 1) {
        std::sort(ids.begin(), ids.end());
        stats->twig_id_ops += ids.size();
      }
      ids_by_key_uri[key][uri] = std::move(ids);
    }
  }

  // Holistic twig join per candidate document.  Inputs borrow the decoded
  // vectors, and one input and one satisfying-set buffer serve every
  // candidate: no per-candidate ID copies.
  const std::vector<xml::TwigEdge>& edges = twig.edges;
  std::vector<std::span<const xml::NodeId>> inputs(edges.size());
  std::vector<std::vector<xml::NodeId>> sat;
  std::set<std::string> result;
  for (const std::string& uri : candidates) {
    bool complete = true;
    for (size_t n = 0; n < edges.size(); ++n) {
      auto key_it = ids_by_key_uri.find(
          std::string_view(twig.keys[twig.node_keys[n]]));
      if (key_it == ids_by_key_uri.end()) {
        complete = false;
        break;
      }
      auto uri_it = key_it->second.find(std::string_view(uri));
      if (uri_it == key_it->second.end() || uri_it->second.empty()) {
        complete = false;
        break;
      }
      inputs[n] = uri_it->second;
    }
    if (complete &&
        xml::SatisfyTwig<xml::NodeId>(
            edges, inputs, [](size_t, const xml::NodeId&) { return true; },
            &sat, &stats->twig_id_ops)) {
      result.insert(uri);
    }
  }
  return result;
}

inline Result<std::set<std::string>> LookupSemijoin(
    cloud::SimAgent& agent, KvStore& store, const std::string& paths_table,
    const std::string& ids_table, const KeyTwig& twig,
    const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view) {
  // Phase 1 (Figure 5, left): path look-up -> R1(URI).
  WEBDEX_ASSIGN_OR_RETURN(
      std::set<std::string> r1,
      LookupByPaths(agent, store, paths_table, twig, options, stats, view));
  if (r1.empty()) return r1;
  // Phase 2: ID look-up semijoin-reduced by R1, then holistic twig join.
  return LookupByIds(agent, store, ids_table, twig, &r1, stats, view);
}

inline Result<std::set<std::string>> LookupByKind(
    StrategyKind kind, cloud::SimAgent& agent, KvStore& store,
    const std::vector<std::string>& tables, const KeyTwig& twig,
    const ExtractOptions& options, LookupStats* stats,
    const GenerationMap* view) {
  switch (kind) {
    case StrategyKind::kLU:
      return LookupByKeys(agent, store, tables[0], twig, stats, view);
    case StrategyKind::kLUP:
      return LookupByPaths(agent, store, tables[0], twig, options, stats,
                           view);
    case StrategyKind::kLUI:
      return LookupByIds(agent, store, tables[0], twig, nullptr, stats, view);
    case StrategyKind::k2LUPI:
      return LookupSemijoin(agent, store, tables[0], tables[1], twig,
                            options, stats, view);
  }
  return Status::InvalidArgument("unknown strategy");
}

}  // namespace webdex::index::reference

#endif  // WEBDEX_TESTS_LOOKUP_REFERENCE_H_
