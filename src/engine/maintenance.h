#ifndef WEBDEX_ENGINE_MAINTENANCE_H_
#define WEBDEX_ENGINE_MAINTENANCE_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/kv_store.h"
#include "common/result.h"
#include "engine/extraction_pipeline.h"
#include "index/generation.h"
#include "index/strategy.h"

namespace webdex::engine {

/// What a scrub pass found, per document URI (docs/FAULTS.md).
struct ScrubReport {
  uint64_t documents_checked = 0;
  uint64_t items_scanned = 0;
  /// Document in the bucket, index holds none of its postings (e.g. a
  /// dead-lettered indexing task).
  std::vector<std::string> missing_uris;
  /// Document in the bucket, stored postings disagree with a fresh
  /// re-extraction (e.g. the half-written index of a mid-BatchPut crash).
  std::vector<std::string> partial_uris;
  /// Postings whose document no longer exists in the bucket.
  std::vector<std::string> orphaned_uris;
  /// Repair outcome (all zero on a report-only pass).
  uint64_t repaired_uris = 0;
  uint64_t items_put = 0;
  uint64_t items_deleted = 0;

  bool Clean() const {
    return missing_uris.empty() && partial_uris.empty() &&
           orphaned_uris.empty();
  }

  std::string ToString() const;
};

/// What one compaction pass did (docs/MUTABILITY.md).
struct CompactReport {
  /// Mutated URIs (any generation > 0 or tombstone in the meta table)
  /// visited by this pass, including ones skipped past the resume cursor
  /// on an earlier pass.
  uint64_t documents_checked = 0;
  uint64_t items_scanned = 0;
  uint64_t items_put = 0;
  uint64_t items_deleted = 0;
  /// Alive upserted URIs rewritten to canonical generation-0 postings
  /// (full mode only).
  std::vector<std::string> canonicalized_uris;
  /// Tombstoned URIs whose postings, document object and meta items were
  /// garbage-collected.
  std::vector<std::string> collected_uris;
  /// Last URI whose work fully completed before a planned crash; empty
  /// when the pass ran to completion (or crashed before finishing any).
  /// Feed it back as `start_cursor` to resume.
  std::string resume_cursor;
  /// The pass was cut short by the crash hook (CrashPoint
  /// kMidCompaction); state on the cloud side is consistent at the URI
  /// boundary recorded in `resume_cursor`.
  bool crashed = false;
  /// The pass was cut short by a transient service error that outlived
  /// the store's own retries (`fault` holds it).  Unlike a crash this
  /// can abort *mid*-URI, but every per-URI step is idempotent
  /// (replacement puts, absent-OK deletes, meta rows last), so resuming
  /// from `resume_cursor` redoes the in-flight URI safely.
  bool faulted = false;
  Status fault = Status::OK();

  std::string ToString() const;
};

/// The index's two maintenance passes: the *scrub* repairs damage
/// (missing, half-written and orphaned postings; docs/FAULTS.md), the
/// *compaction* retires history (superseded generations and tombstones;
/// docs/MUTABILITY.md).  Range keys are UUIDs from a deterministic
/// per-URI stream, so re-putting a document's extraction replaces its
/// committed items byte-identically: both passes walk the index tables
/// by owner URI and converge each affected URI by re-putting its
/// extraction and deleting what the extraction did not produce.
///
/// Every read and write is *billed* (Scan, S3 Get, BatchPut,
/// DeleteItem): maintenance is a priced job, not free host-side tooling.
class IndexMaintainer {
 public:
  /// `store` is the top of the warehouse's decorator stack, so
  /// maintenance gets retries, breaker gating, shard routing and replica
  /// pricing like any other client.
  IndexMaintainer(cloud::CloudEnv* env, cloud::KvStore* store,
                  const index::IndexingStrategy* strategy,
                  const index::ExtractOptions& options,
                  std::string data_bucket);

  /// One scrub pass on `agent`'s virtual clock.  With `repair` set,
  /// re-extracts and re-puts every missing/partial URI and deletes
  /// orphaned and stale postings; repaired URIs are counted in
  /// Usage::scrub_repaired.
  ///
  /// `view` makes the audit generation-aware (index/generation.h): a
  /// tombstoned document is skipped entirely — scrubbing must never
  /// resurrect it, and its leftovers belong to compaction — and an
  /// upserted document is audited at its live generation, with postings
  /// of superseded generations treated as pending history, not damage.
  Result<ScrubReport> Scrub(cloud::SimAgent& agent, bool repair,
                            const index::GenerationMap& view);

  /// One compaction pass on `agent`'s virtual clock.  Per tombstoned URI
  /// it deletes every posting, the S3 object and the meta items.  Per
  /// alive upserted URI a `full` pass re-extracts the current document
  /// at generation 0 — the stream a from-scratch build uses — so the
  /// compacted index is byte-identical to one built fresh from the final
  /// corpus; a non-full pass only garbage-collects superseded postings
  /// and meta rows, leaving live generations stamped.
  ///
  /// URIs <= `start_cursor` (a previous report's `resume_cursor`) are
  /// skipped.  `should_crash` (may be null) is asked before each URI's
  /// work and ends the pass `crashed`; a transient error that outlives
  /// the store's retries ends it `faulted`.  Only non-retriable errors
  /// fail the call.
  Result<CompactReport> Compact(
      cloud::SimAgent& agent, bool full, const std::string& start_cursor,
      const std::function<bool(const std::string&)>& should_crash);

 private:
  /// Items are unique per (table, hash, range): range keys are UUIDs
  /// drawn from the per-URI stream, so one key identifies one posting.
  struct ItemKey {
    std::string table;
    std::string hash;
    std::string range;
    auto operator<=>(const ItemKey&) const = default;
  };
  /// One owner's stored postings, in key order.
  using Postings = std::map<ItemKey, cloud::Attributes>;

  /// Billed walk of every index table (TableNames() order), grouping
  /// postings by owner URI; layout violations group under "".  Only
  /// postings `keep(owner, attrs)` accepts are retained (null keeps
  /// all).  Every scanned item counts toward `items_scanned`.
  Result<std::map<std::string, Postings>> Inventory(
      cloud::SimAgent& agent,
      const std::function<bool(const std::string&, const cloud::Attributes&)>&
          keep,
      uint64_t* items_scanned);

  /// Billed fetch of `uri` and its extraction at `generation`; a parse
  /// or extract failure is reported in the result's status.
  Result<ExtractionResult> Extract(cloud::SimAgent& agent,
                                   const std::string& uri,
                                   uint64_t generation);

  /// Converges one URI: puts each table's `items` in extraction order,
  /// then deletes every `candidates` key they did not produce, in key
  /// order.  Idempotent, so an interrupted converge is safely redone.
  Status Converge(cloud::SimAgent& agent,
                  const std::vector<index::TableItems>& items,
                  const Postings& candidates, uint64_t* items_put,
                  uint64_t* items_deleted);

  cloud::CloudEnv* env_;
  cloud::KvStore* store_;
  const index::IndexingStrategy* strategy_;
  index::ExtractOptions options_;
  std::string data_bucket_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_MAINTENANCE_H_
