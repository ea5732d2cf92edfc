#ifndef WEBDEX_COST_PATH_COST_H_
#define WEBDEX_COST_PATH_COST_H_

#include <cstdint>
#include <string>

#include "cost/cost_model.h"

namespace webdex::cost {

/// What one physical access path is expected to consume, before running
/// it (docs/PLANNER.md).  Volumes are kept next to the dollar total so
/// EXPLAIN can show *why* a path is priced the way it is, and so reports
/// can compare estimated against metered requests.
struct PathEstimate {
  double index_keys = 0;        // distinct index keys fetched
  double index_requests = 0;    // index-store BatchGet API calls
  double index_read_units = 0;  // capacity units (or box-usage gets)
  double docs = 0;              // candidate documents to fetch
  double store_get_requests = 0;  // file-store GETs (== docs)
  double store_put_requests = 0;  // file-store PUTs (the result write)
  double vm_seconds = 0;          // rented compute for fetch + evaluate
  double usd = 0;                 // the decision total

  double requests() const {
    return index_requests + store_get_requests + store_put_requests;
  }
};

/// How the index store bills reads: DynamoDB charges 4 KB read capacity
/// units with a small per-item floor, SimpleDB charges box-usage
/// machine-hours per retrieved item (Section 7.2).
enum class IndexBilling { kReadUnits, kBoxUsage };

/// Size and shape of one index look-up, as derived from the planner's
/// statistics (index::PathSummary + the store's host-side accounting).
struct LookupShape {
  uint64_t keys = 0;           // distinct index keys fetched
  double est_items = 0;        // items expected across those keys
  double avg_item_bytes = 0;   // table's stored bytes / item count
  int batch_get_limit = 1;     // store's keys-per-request cap
  double min_read_bytes = 0;   // per-item read-unit floor (DynamoDB)
  IndexBilling billing = IndexBilling::kReadUnits;
  // Deployment adjustments (docs/ARCHITECTURES.md).  A sharded layout
  // batches per physical table, so the caller supplies the exact API
  // call count; > 0 replaces the single-table ceil(keys / limit).
  double requests_override = 0;
  // 0.5 under a replicated read pool (eventually-consistent reads are
  // half price), 1 otherwise.
  double read_price_factor = 1;
  // Price read units at the on-demand premium instead of idx_get.
  bool on_demand = false;
};

/// The document fetch + evaluation tail every path shares: candidate
/// documents are transferred from the file store and evaluated on the
/// renting instance (paper Figure 1, steps 12-13).
struct FetchShape {
  double docs = 0;            // candidate documents
  double avg_doc_bytes = 0;   // corpus bytes / |D|
  /// ECU-micros of CPU per fetched byte (parse + evaluate, WorkModel).
  double work_per_byte = 0;
  /// Aggregate ECUs of the executing instance (ecu_per_core x cores).
  double instance_ecu = 1;
  double vm_usd_per_hour = 0;
};

/// Prices an index-backed access path: index reads, then the fetch tail.
PathEstimate EstimateLookupPath(const CostModel& model,
                                const LookupShape& lookup,
                                const FetchShape& fetch);

/// Prices the 2LUPI semijoin (Figure 5): both tables' look-ups, priced
/// as if phase 2 always runs (it is skipped only when R1 is empty), then
/// one fetch tail for the reduced candidates.
PathEstimate EstimateSemijoinPath(const CostModel& model,
                                  const LookupShape& paths,
                                  const LookupShape& ids,
                                  const FetchShape& fetch);

/// Prices the full-scan access path: no index reads, every document
/// fetched (the PR4 degraded fallback, now just the priciest path).
PathEstimate EstimateScanPath(const CostModel& model,
                              const FetchShape& fetch);

}  // namespace webdex::cost

#endif  // WEBDEX_COST_PATH_COST_H_
