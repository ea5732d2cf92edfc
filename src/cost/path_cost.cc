#include "cost/path_cost.h"

#include <algorithm>
#include <cmath>

namespace webdex::cost {

namespace {

/// The fetch + evaluate tail shared by every path: S3 GETs for the
/// candidate documents, the VM time to parse and evaluate them, and the
/// single result write (Figure 1, step 14) every query pays regardless
/// of its candidate count — the cost floor of an empty answer.
void AddFetchTail(const CostModel& model, const FetchShape& fetch,
                  PathEstimate* estimate) {
  estimate->docs = fetch.docs;
  estimate->store_get_requests = fetch.docs;
  estimate->store_put_requests = 1;
  const double ecu = std::max(fetch.instance_ecu, 1e-9);
  estimate->vm_seconds =
      fetch.docs * fetch.avg_doc_bytes * fetch.work_per_byte / ecu / 1e6;
  estimate->usd += model.pricing().st_get * fetch.docs +
                   model.pricing().st_put +
                   fetch.vm_usd_per_hour * estimate->vm_seconds / 3600.0;
}

/// Adds one index look-up's BatchGets and their read billing.
void AddIndexReads(const CostModel& model, const LookupShape& lookup,
                   PathEstimate* estimate) {
  const int limit = std::max(lookup.batch_get_limit, 1);
  const double requests =
      lookup.requests_override > 0
          ? lookup.requests_override
          : (lookup.keys == 0 ? 0
                              : std::ceil(static_cast<double>(lookup.keys) /
                                          static_cast<double>(limit)));
  const double billed_item_bytes =
      std::max(lookup.avg_item_bytes, lookup.min_read_bytes);
  double read_units = 0;
  double usd = 0;
  switch (lookup.billing) {
    case IndexBilling::kReadUnits: {
      // DynamoDB: 4 KB read units per item, floored per item; an empty
      // response still seeks once per API call.
      read_units =
          std::max(lookup.est_items, requests) * billed_item_bytes / 4096.0;
      const double unit_price = lookup.on_demand
                                    ? model.pricing().idx_ondemand_get
                                    : model.pricing().idx_get;
      usd = unit_price * read_units * lookup.read_price_factor;
      break;
    }
    case IndexBilling::kBoxUsage: {
      // SimpleDB: box-usage machine-hours per retrieved item.
      read_units = std::max(lookup.est_items, requests);
      usd = model.pricing().simpledb_machine_hour *
            model.pricing().simpledb_box_hours_per_get * read_units *
            lookup.read_price_factor;
      break;
    }
  }
  estimate->index_keys += static_cast<double>(lookup.keys);
  estimate->index_requests += requests;
  estimate->index_read_units += read_units;
  estimate->usd += usd;
}

}  // namespace

PathEstimate EstimateLookupPath(const CostModel& model,
                                const LookupShape& lookup,
                                const FetchShape& fetch) {
  PathEstimate estimate;
  AddIndexReads(model, lookup, &estimate);
  AddFetchTail(model, fetch, &estimate);
  return estimate;
}

PathEstimate EstimateSemijoinPath(const CostModel& model,
                                  const LookupShape& paths,
                                  const LookupShape& ids,
                                  const FetchShape& fetch) {
  PathEstimate estimate;
  AddIndexReads(model, paths, &estimate);
  AddIndexReads(model, ids, &estimate);
  AddFetchTail(model, fetch, &estimate);
  return estimate;
}

PathEstimate EstimateScanPath(const CostModel& model,
                              const FetchShape& fetch) {
  PathEstimate estimate;
  AddFetchTail(model, fetch, &estimate);
  return estimate;
}

}  // namespace webdex::cost
