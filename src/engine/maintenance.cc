#include "engine/maintenance.h"

#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/strings.h"

namespace webdex::engine {
namespace {

/// The document URI a stored posting belongs to (a view into its
/// record), or nullopt when the posting violates the layout.  Layout
/// contract (index/strategy.cc BuildEntryItems): every posting carries
/// exactly one attribute beyond the reserved generation stamp, and its
/// *name* is the source document's URI ('~' cannot begin a URI,
/// index/generation.h).
std::optional<std::string_view> OwnerUri(const cloud::Item& item) {
  std::optional<std::string_view> owner;
  for (const auto& [name, values] : item.attrs()) {
    if (name == index::kGenAttr) continue;
    if (owner.has_value()) return std::nullopt;
    owner = name;
  }
  return owner;
}

}  // namespace

std::string ScrubReport::ToString() const {
  std::string out = StrFormat(
      "scrub: %llu documents, %llu postings scanned\n"
      "  missing: %zu   partial: %zu   orphaned: %zu\n",
      static_cast<unsigned long long>(documents_checked),
      static_cast<unsigned long long>(items_scanned), missing_uris.size(),
      partial_uris.size(), orphaned_uris.size());
  for (const auto& uri : missing_uris) out += "  missing  " + uri + "\n";
  for (const auto& uri : partial_uris) out += "  partial  " + uri + "\n";
  for (const auto& uri : orphaned_uris) out += "  orphaned " + uri + "\n";
  if (repaired_uris > 0 || items_put > 0 || items_deleted > 0) {
    out += StrFormat(
        "  repaired %llu URIs (%llu items put, %llu deleted)\n",
        static_cast<unsigned long long>(repaired_uris),
        static_cast<unsigned long long>(items_put),
        static_cast<unsigned long long>(items_deleted));
  } else if (Clean()) {
    out += "  index is clean\n";
  }
  return out;
}

std::string CompactReport::ToString() const {
  std::string out = StrFormat(
      "compact: %llu mutated documents, %llu postings scanned\n"
      "  canonicalized: %zu   collected: %zu   (%llu items put, %llu "
      "deleted)\n",
      static_cast<unsigned long long>(documents_checked),
      static_cast<unsigned long long>(items_scanned),
      canonicalized_uris.size(), collected_uris.size(),
      static_cast<unsigned long long>(items_put),
      static_cast<unsigned long long>(items_deleted));
  for (const auto& uri : canonicalized_uris) {
    out += "  canonical " + uri + "\n";
  }
  for (const auto& uri : collected_uris) out += "  collected " + uri + "\n";
  if (crashed) {
    out += "  crashed mid-pass; resume cursor '" + resume_cursor + "'\n";
  }
  if (faulted) {
    out += "  faulted mid-pass (" + fault.ToString() + "); resume cursor '" +
           resume_cursor + "'\n";
  }
  return out;
}

IndexMaintainer::IndexMaintainer(cloud::CloudEnv* env, cloud::KvStore* store,
                                 const index::IndexingStrategy* strategy,
                                 const index::ExtractOptions& options,
                                 std::string data_bucket)
    : env_(env),
      store_(store),
      strategy_(strategy),
      options_(options),
      data_bucket_(std::move(data_bucket)) {}

Result<IndexMaintainer::PostingsByOwner> IndexMaintainer::Inventory(
    cloud::SimAgent& agent,
    const std::function<bool(std::string_view, const cloud::Item&)>& keep,
    uint64_t* items_scanned) {
  PostingsByOwner by_owner;
  for (const auto& table : strategy_->TableNames()) {
    WEBDEX_ASSIGN_OR_RETURN(std::vector<cloud::Item> items,
                            store_->Scan(agent, table));
    *items_scanned += items.size();
    for (auto& item : items) {
      const std::string_view owner = OwnerUri(item).value_or("");
      if (keep && !keep(owner, item)) continue;
      // `owner` views the item's record: look the group up and key the
      // posting before the item moves.
      auto group = by_owner.find(owner);
      if (group == by_owner.end()) {
        group = by_owner.try_emplace(std::string(owner)).first;
      }
      ItemKey key{table, item.hash_key, std::string(item.range_key())};
      group->second.insert_or_assign(std::move(key), std::move(item));
    }
  }
  return by_owner;
}

Result<ExtractionResult> IndexMaintainer::Extract(cloud::SimAgent& agent,
                                                  const std::string& uri,
                                                  uint64_t generation) {
  WEBDEX_ASSIGN_OR_RETURN(std::string text,
                          env_->s3().Get(agent, data_bucket_, uri));
  // The generation's own UUID stream, so the extraction and the postings
  // committed at that generation agree byte for byte.
  index::ExtractOptions options = options_;
  options.generation = generation;
  return ExtractionPipeline::ExtractNow(uri, text, *strategy_, options,
                                        *store_, env_->config().seed);
}

Status IndexMaintainer::Converge(cloud::SimAgent& agent,
                                 const std::vector<index::TableItems>& items,
                                 const Postings& candidates,
                                 uint64_t* items_put,
                                 uint64_t* items_deleted) {
  std::set<ItemKey> produced;
  for (const auto& table_items : items) {
    WEBDEX_RETURN_IF_ERROR(
        store_->BatchPut(agent, table_items.table, table_items.items));
    *items_put += table_items.items.size();
    for (const auto& item : table_items.items) {
      produced.insert(ItemKey{table_items.table, item.hash_key,
                              std::string(item.range_key())});
    }
  }
  for (const auto& [key, posting] : candidates) {
    if (produced.count(key) > 0) continue;
    WEBDEX_RETURN_IF_ERROR(
        store_->DeleteItem(agent, key.table, key.hash, key.range));
    *items_deleted += 1;
  }
  return Status::OK();
}

Result<ScrubReport> IndexMaintainer::Scrub(cloud::SimAgent& agent,
                                           bool repair,
                                           const index::GenerationMap& view) {
  ScrubReport report;
  // Every owner is kept; postings that violate the layout belong to no
  // document and surface as orphaned garbage under "".
  WEBDEX_ASSIGN_OR_RETURN(auto stored_by_uri,
                          Inventory(agent, nullptr, &report.items_scanned));

  // Re-extract every document in the bucket (billed fetches) and compare
  // with what the index actually holds.
  WEBDEX_ASSIGN_OR_RETURN(std::vector<std::string> uris,
                          env_->s3().List(agent, data_bucket_, ""));
  for (const auto& uri : uris) {
    report.documents_checked += 1;
    // Whatever this loop leaves in `stored_by_uri` has no document.
    auto owned = stored_by_uri.extract(uri);
    const index::GenerationInfo* info = view.Find(uri);
    // A tombstoned document must never be repaired back into the index —
    // its object always lingers until compaction reclaims it.
    if (info != nullptr && info->tombstoned) continue;
    const uint64_t live_gen = info != nullptr ? info->generation : 0;
    WEBDEX_ASSIGN_OR_RETURN(ExtractionResult extraction,
                            Extract(agent, uri, live_gen));
    // Unparseable (poison) documents expect no postings at all.
    if (!extraction.status.ok()) extraction.items.clear();
    Postings expected;
    for (const auto& table_items : extraction.items) {
      for (const auto& item : table_items.items) {
        expected[ItemKey{table_items.table, item.hash_key,
                         std::string(item.range_key())}] = item;
      }
    }
    // Only postings stamped at the live generation are compared:
    // superseded generations are pending history for compaction, not
    // damage.
    Postings stored = owned.empty() ? Postings() : std::move(owned.mapped());
    std::erase_if(stored, [live_gen](const auto& posting) {
      return index::StampOf(posting.second) != live_gen;
    });
    if (stored == expected) continue;
    (stored.empty() ? report.missing_uris : report.partial_uris).push_back(uri);
    if (!repair) continue;
    WEBDEX_RETURN_IF_ERROR(Converge(agent, extraction.items, stored,
                                    &report.items_put, &report.items_deleted));
    report.repaired_uris += 1;
  }

  // Postings whose document is gone from the bucket.  Tombstoned
  // documents are expected to be gone — their postings await compaction,
  // so a scrub neither flags nor deletes them.
  for (const auto& [uri, postings] : stored_by_uri) {
    const index::GenerationInfo* info = view.Find(uri);
    if (info != nullptr && info->tombstoned) continue;
    report.orphaned_uris.push_back(uri);
    if (!repair) continue;
    WEBDEX_RETURN_IF_ERROR(Converge(agent, {}, postings, &report.items_put,
                                    &report.items_deleted));
    report.repaired_uris += 1;
  }

  env_->meter().mutable_usage().scrub_repaired += report.repaired_uris;
  return report;
}

Result<CompactReport> IndexMaintainer::Compact(
    cloud::SimAgent& agent, bool full, const std::string& start_cursor,
    const std::function<bool(const std::string&)>& should_crash) {
  CompactReport report;

  // Billed walk of the meta table: every row is one mutation layer, the
  // highest generation per URI wins (max-wins fold, same as readers).
  // Per URI, its meta range keys (sorted = generation order).
  std::map<std::string, std::vector<std::string>, std::less<>> mutated;
  index::GenerationMap folded;
  {
    WEBDEX_ASSIGN_OR_RETURN(std::vector<cloud::Item> rows,
                            store_->Scan(agent, index::kMetaTable));
    for (auto& row : rows) {
      index::ApplyMetaItem(row, &folded);
      mutated[row.hash_key].emplace_back(row.range_key());
    }
  }
  if (mutated.empty()) return report;  // nothing mutable to fold

  // Only postings the fold rewrites or deletes are kept: those of
  // mutated URIs — untouched static documents are never rewritten, and
  // layout violations are scrub territory, not history — less, on a
  // GC-only pass, the live generation's, which stay stamped.
  const auto foldable = [&](std::string_view owner, const cloud::Item& item) {
    return mutated.count(owner) > 0 &&
           (full || !folded.Visible(owner, index::StampOf(item)));
  };
  WEBDEX_ASSIGN_OR_RETURN(auto postings,
                          Inventory(agent, foldable, &report.items_scanned));

  // Per-URI fold, in sorted URI order so the resume cursor is a total
  // order over the work.  Crashes only fire at URI boundaries; per URI
  // the meta rows are deleted last, so re-doing a URI after a crash is
  // idempotent.
  const auto fold_uri = [&](const std::string& uri,
                            const std::vector<std::string>& ranges) -> Status {
    const index::GenerationInfo* found = folded.Find(uri);
    const index::GenerationInfo info =
        found != nullptr ? *found : index::GenerationInfo();
    ExtractionResult canonical;  // a full pass's rewrite of the URI
    std::string live_row;        // meta row kept; empty = none
    if (!info.tombstoned && full) {
      // Alive upserted document: rewrite to the canonical generation-0
      // postings a from-scratch build of the current corpus would
      // produce, dropping every other posting of the URI.
      WEBDEX_ASSIGN_OR_RETURN(canonical, Extract(agent, uri, /*generation=*/0));
      WEBDEX_RETURN_IF_ERROR(canonical.status);
    } else if (!info.tombstoned) {
      // GC-only pass: superseded postings and meta rows go.
      live_row = index::GenerationRangeKey(info.generation);
    }
    // A dead document loses every posting, then its stored object.
    WEBDEX_RETURN_IF_ERROR(Converge(agent, canonical.items, postings[uri],
                                    &report.items_put, &report.items_deleted));
    if (info.tombstoned) {
      WEBDEX_RETURN_IF_ERROR(env_->s3().Delete(agent, data_bucket_, uri));
    }
    for (const auto& range : ranges) {
      if (range == live_row) continue;
      WEBDEX_RETURN_IF_ERROR(
          store_->DeleteItem(agent, index::kMetaTable, uri, range));
      report.items_deleted += 1;
    }
    if (info.tombstoned) {
      report.collected_uris.push_back(uri);
    } else if (full) {
      report.canonicalized_uris.push_back(uri);
    }
    return Status::OK();
  };

  std::string completed = start_cursor;
  for (const auto& [uri, ranges] : mutated) {
    if (!start_cursor.empty() && uri <= start_cursor) continue;
    report.documents_checked += 1;
    if (should_crash && should_crash(uri)) {
      report.crashed = true;
      report.resume_cursor = completed;
      break;
    }
    const Status step = fold_uri(uri, ranges);
    if (!step.ok()) {
      // Transient exhaustion (the retry decorator gave up) cuts the
      // pass short like a crash does — the caller backs off and resumes
      // from `completed`; redoing the in-flight URI is idempotent.
      if (!step.IsRetriable()) return step;
      report.faulted = true;
      report.fault = step;
      report.resume_cursor = completed;
      break;
    }
    completed = uri;
  }

  cloud::Usage& usage = env_->meter().mutable_usage();
  usage.compact_gc_items += report.items_deleted;
  usage.compact_uris +=
      report.canonicalized_uris.size() + report.collected_uris.size();
  return report;
}

}  // namespace webdex::engine
