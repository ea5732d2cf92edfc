#include "engine/maintenance.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "common/strings.h"

namespace webdex::engine {
namespace {

/// The document URI a stored posting belongs to (a view into its
/// record), or nullopt when the posting violates the layout, read in one
/// walk with its generation stamp (`*stamp`, as index::StampOf reads
/// it).  Layout contract (index/strategy.cc BuildEntryItems): every
/// posting carries exactly one attribute beyond the reserved generation
/// stamp, and its *name* is the source document's URI ('~' cannot begin
/// a URI, index/generation.h).
std::optional<std::string_view> ReadOwner(const cloud::ItemView& item,
                                          uint64_t* stamp) {
  const cloud::Item::AttributeList attrs = item.attrs();
  std::string_view owner;
  uint64_t owners = 0;
  *stamp = 0;
  auto attr = attrs.begin();
  for (uint64_t i = 0; i < attrs.size(); ++i) {
    // Steps over the previous attribute's values only when another
    // attribute follows: the values are most of a posting's bytes.
    if (i > 0) ++attr;
    const auto [name, values] = *attr;
    if (name == index::kGenAttr) {
      *stamp = index::StampValue(values);
    } else {
      owner = name;
      ++owners;
    }
  }
  if (owners != 1) return std::nullopt;
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
      tables_(strategy->TableNames()),
      options_(options),
      data_bucket_(std::move(data_bucket)) {}

Result<std::vector<IndexMaintainer::Posting>> IndexMaintainer::Inventory(
    cloud::SimAgent& agent,
    const std::function<bool(std::string_view, uint64_t)>& keep,
    uint64_t* items_scanned) {
  std::vector<Posting> kept;
  for (const std::string& table : tables_) {
    WEBDEX_RETURN_IF_ERROR(
        store_->Scan(agent, table, [&](const cloud::ItemView& item) {
          *items_scanned += 1;
          uint64_t stamp = 0;
          const std::optional<std::string_view> owner = ReadOwner(item, &stamp);
          if (keep && !keep(owner.value_or(std::string_view()), stamp)) return;
          Posting& posting =
              kept.emplace_back(Posting{&table, cloud::Item(item), stamp});
          if (owner.has_value()) {
            posting.owner_offset =
                static_cast<uint32_t>(owner->data() - item.record().data());
            posting.owner_size = static_cast<uint32_t>(owner->size());
          }
        }));
  }
  // Each table's postings arrive in (hash, range) order, which a stable
  // sort by (owner, table) keeps.
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Posting& a, const Posting& b) {
                     if (const auto c = a.owner() <=> b.owner(); c != 0) {
                       return c < 0;
                     }
                     return *a.table < *b.table;
                   });
  return kept;
}

std::pair<IndexMaintainer::PostingIt, IndexMaintainer::PostingIt>
IndexMaintainer::OwnedBy(std::vector<Posting>& postings,
                         std::string_view owner) {
  const auto first = std::lower_bound(
      postings.begin(), postings.end(), owner,
      [](const Posting& p, std::string_view uri) { return p.owner() < uri; });
  const auto last = std::upper_bound(
      first, postings.end(), owner,
      [](std::string_view uri, const Posting& p) { return uri < p.owner(); });
  return {first, last};
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
                                 const std::vector<index::ItemBatch>& items,
                                 std::span<const Posting> candidates,
                                 uint64_t* items_put,
                                 uint64_t* items_deleted) {
  std::vector<PostingKey> produced;
  for (const auto& table_items : items) {
    WEBDEX_RETURN_IF_ERROR(
        store_->BatchPutViews(agent, table_items.table, table_items.items));
    *items_put += table_items.items.size();
    for (const auto& item : table_items.items) {
      produced.push_back({table_items.table, item.hash_key, item.range_key()});
    }
  }
  std::sort(produced.begin(), produced.end());
  std::string range;  // the deleted key's range, reused across deletes
  for (const Posting& posting : candidates) {
    if (std::binary_search(produced.begin(), produced.end(), posting.key())) {
      continue;
    }
    range.assign(posting.item.range_key());
    WEBDEX_RETURN_IF_ERROR(store_->DeleteItem(agent, *posting.table,
                                              posting.item.hash_key, range));
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
  WEBDEX_ASSIGN_OR_RETURN(std::vector<Posting> stored,
                          Inventory(agent, nullptr, &report.items_scanned));

  // Re-extract every document in the bucket (billed fetches) and compare
  // with what the index actually holds.  List returns keys in order.
  WEBDEX_ASSIGN_OR_RETURN(std::vector<std::string> uris,
                          env_->s3().List(agent, data_bucket_, ""));
  for (const auto& uri : uris) {
    report.documents_checked += 1;
    const index::GenerationInfo* info = view.Find(uri);
    // A tombstoned document must never be repaired back into the index —
    // its object always lingers until compaction reclaims it.
    if (info != nullptr && info->tombstoned) continue;
    const uint64_t live_gen = info != nullptr ? info->generation : 0;
    WEBDEX_ASSIGN_OR_RETURN(ExtractionResult extraction,
                            Extract(agent, uri, live_gen));
    // Unparseable (poison) documents expect no postings at all.
    if (!extraction.status.ok()) extraction.items.clear();
    std::vector<std::pair<PostingKey, const cloud::ItemView*>> expected;
    for (const auto& table_items : extraction.items) {
      for (const auto& item : table_items.items) {
        expected.push_back(
            {{table_items.table, item.hash_key, item.range_key()}, &item});
      }
    }
    std::sort(expected.begin(), expected.end());
    // Only postings stamped at the live generation are compared:
    // superseded generations are pending history for compaction, not
    // damage.  The partition keeps them in key order.
    const auto [first, last] = OwnedBy(stored, uri);
    const auto live_end =
        std::stable_partition(first, last, [live_gen](const Posting& p) {
          return p.stamp == live_gen;
        });
    const std::span<const Posting> live(first, live_end);
    if (std::equal(live.begin(), live.end(), expected.begin(), expected.end(),
                   [](const Posting& posting, const auto& want) {
                     return posting.key() == want.first &&
                            cloud::ItemView(posting.item) == *want.second;
                   })) {
      continue;
    }
    (live.empty() ? report.missing_uris : report.partial_uris).push_back(uri);
    if (!repair) continue;
    WEBDEX_RETURN_IF_ERROR(Converge(agent, extraction.items, live,
                                    &report.items_put, &report.items_deleted));
    report.repaired_uris += 1;
  }

  // Postings whose document is gone from the bucket.  Tombstoned
  // documents are expected to be gone — their postings await compaction,
  // so a scrub neither flags nor deletes them.
  for (auto first = stored.begin(); first != stored.end();) {
    const std::string uri(first->owner());
    const auto last = OwnedBy(stored, uri).second;
    const std::span<const Posting> postings(first, last);
    first = last;
    if (std::binary_search(uris.begin(), uris.end(), uri)) continue;
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
  // Per URI, its meta range keys (sorted = generation order) and the
  // folded generation.
  struct Mutation {
    std::vector<std::string> ranges;
    index::GenerationInfo info;
  };
  std::map<std::string, Mutation, std::less<>> mutated;
  index::GenerationMap folded;
  WEBDEX_RETURN_IF_ERROR(store_->Scan(
      agent, index::kMetaTable, [&](const cloud::ItemView& row) {
        index::ApplyMetaItem(row, &folded);
        auto uri = mutated.find(row.hash_key);
        if (uri == mutated.end()) {
          uri = mutated.try_emplace(std::string(row.hash_key)).first;
        }
        uri->second.ranges.emplace_back(row.range_key());
      }));
  if (mutated.empty()) return report;  // nothing mutable to fold
  for (auto& [uri, mutation] : mutated) {
    if (const index::GenerationInfo* found = folded.Find(uri)) {
      mutation.info = *found;
    }
  }

  // Only postings the fold rewrites or deletes are kept: those of
  // mutated URIs — untouched static documents are never rewritten, and
  // layout violations are scrub territory, not history — less, on a
  // GC-only pass, the live generation's, which stay stamped.
  const auto foldable = [&](std::string_view owner, uint64_t stamp) {
    const auto uri = mutated.find(owner);
    if (uri == mutated.end()) return false;
    const index::GenerationInfo& info = uri->second.info;
    return full || info.tombstoned || stamp != info.generation;
  };
  WEBDEX_ASSIGN_OR_RETURN(std::vector<Posting> postings,
                          Inventory(agent, foldable, &report.items_scanned));

  // Per-URI fold, in sorted URI order so the resume cursor is a total
  // order over the work.  Crashes only fire at URI boundaries; per URI
  // the meta rows are deleted last, so re-doing a URI after a crash is
  // idempotent.
  const auto fold_uri = [&](const std::string& uri,
                            const Mutation& mutation) -> Status {
    const index::GenerationInfo& info = mutation.info;
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
    const auto [first, last] = OwnedBy(postings, uri);
    WEBDEX_RETURN_IF_ERROR(Converge(agent, canonical.items, {first, last},
                                    &report.items_put, &report.items_deleted));
    if (info.tombstoned) {
      WEBDEX_RETURN_IF_ERROR(env_->s3().Delete(agent, data_bucket_, uri));
    }
    for (const auto& range : mutation.ranges) {
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
  for (const auto& [uri, mutation] : mutated) {
    if (!start_cursor.empty() && uri <= start_cursor) continue;
    report.documents_checked += 1;
    if (should_crash && should_crash(uri)) {
      report.crashed = true;
      report.resume_cursor = completed;
      break;
    }
    const Status step = fold_uri(uri, mutation);
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
