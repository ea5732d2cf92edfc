#include "engine/access_path.h"

#include <algorithm>
#include <cmath>

namespace webdex::engine {

cost::FetchShape MakeFetchShape(const PlannerStats& stats, double docs) {
  cost::FetchShape fetch;
  fetch.docs = docs;
  fetch.avg_doc_bytes =
      stats.documents == 0
          ? 0
          : static_cast<double>(stats.data_bytes) /
                static_cast<double>(stats.documents);
  if (stats.work != nullptr) {
    fetch.work_per_byte = stats.work->parse_per_byte + stats.work->eval_per_byte;
  }
  fetch.instance_ecu =
      stats.spec.ecu_per_core * static_cast<double>(stats.spec.cores);
  fetch.vm_usd_per_hour = stats.vm_usd_per_hour;
  return fetch;
}

namespace {

/// The BatchGet of `keys` against `table`, sized from the pattern's
/// profile and the store's host-side accounting and adjusted for the
/// deployment.  `ords` maps `keys` to the twig's key ordinals, the
/// profile's key_docs order; null when `keys` are the twig's keys.
cost::LookupShape ShapeFor(const cloud::KvStore& store,
                           const PlannerStats& stats,
                           const index::PatternProfile& profile,
                           const std::string& table,
                           const std::vector<std::string>& keys,
                           const std::vector<uint32_t>* ords) {
  cost::LookupShape lookup;
  lookup.keys = keys.size();
  lookup.batch_get_limit = store.Limits().batch_get;
  lookup.min_read_bytes = stats.min_read_bytes;
  lookup.billing = stats.billing;
  if (const cloud::Deployment* deploy = stats.deployment) {
    if (deploy->sharded()) {
      // Batching happens per physical table: price the exact fan-out the
      // sharded store will issue rather than one logical-table ceiling.
      std::vector<uint64_t> per_shard(
          static_cast<size_t>(deploy->spec().shards), 0);
      for (const auto& key : keys) {
        ++per_shard[static_cast<size_t>(deploy->ShardFor(key))];
      }
      const double limit =
          static_cast<double>(std::max(store.Limits().batch_get, 1));
      double requests = 0;
      for (uint64_t count : per_shard) {
        if (count > 0) requests += std::ceil(static_cast<double>(count) / limit);
      }
      lookup.requests_override = requests;
    }
    // Queries run against a settled index, so replica reads at half
    // price are the expected case; on-demand swaps the unit price.
    if (deploy->replicated()) lookup.read_price_factor = 0.5;
    lookup.on_demand =
        deploy->spec().capacity == cloud::CapacityMode::kOnDemand;
  }
  // Average stored item size from the store's host-side accounting (free:
  // no simulated request is issued for it).
  const uint64_t item_count = store.ItemCount(table);
  lookup.avg_item_bytes =
      item_count == 0 ? 0
                      : static_cast<double>(store.StoredBytes(table)) /
                            static_cast<double>(item_count);

  if (profile.documents > 0) {
    // Items per key: roughly one per document containing the key (long ID
    // lists are chunked across items, but the chunk factor is the same for
    // every candidate path against the same corpus).
    double items = 0;
    for (size_t k = 0; k < keys.size(); ++k) {
      items += static_cast<double>(
          profile.key_docs[ords == nullptr ? k : (*ords)[k]]);
    }
    lookup.est_items = items;
  } else {
    // No statistics yet: assume the worst (every key is in every document
    // and nothing prunes).  All lookup paths then tie on the fetch tail
    // and differ only in index-read cost, which favours the thinner
    // LUP-side table — the paper's measured static default.
    lookup.est_items =
        static_cast<double>(keys.size()) * static_cast<double>(stats.documents);
  }
  return lookup;
}

double LuiDocs(const index::PatternProfile& profile) {
  // Document-level path statistics cannot see the instance-level
  // correlation the twig join exploits, so any independence-flavoured
  // estimate predicts pruning that often is not there.  Trust the twig
  // join to out-prune the path pre-filter only when the Section 8.5
  // detector flags the pattern (common linear paths, rare co-occurrence);
  // otherwise assume path matching already captures the document-level
  // selectivity, and let the cheaper look-up win the tie.
  const double lu = static_cast<double>(profile.LuDocs());
  if (profile.AdvisedLookup() == index::StrategyKind::kLUI) {
    const double combined = std::ceil(profile.TwigJoinDocs());
    return std::min(lu, std::max(combined, 0.0));
  }
  return std::min(lu, static_cast<double>(profile.LupDocs()));
}

/// Candidate documents a `kind` look-up is expected to keep, capped at
/// |D| (|D| itself without statistics).
double CandidateDocs(index::StrategyKind kind,
                     const index::PatternProfile& profile,
                     uint64_t documents) {
  const double all = static_cast<double>(documents);
  if (profile.documents == 0) return all;  // no statistics
  double docs = all;
  switch (kind) {
    case index::StrategyKind::kLU:
      docs = static_cast<double>(profile.LuDocs());
      break;
    case index::StrategyKind::kLUP:
      docs = static_cast<double>(profile.LupDocs());
      break;
    case index::StrategyKind::kLUI:
      docs = LuiDocs(profile);
      break;
    case index::StrategyKind::k2LUPI:
      // The semijoin keeps the documents both phases accept.
      docs = std::min(static_cast<double>(profile.LupDocs()),
                      LuiDocs(profile));
      break;
  }
  return std::min(docs, all);
}

}  // namespace

cost::PathEstimate LookupAccessPath::EstimateCost(
    const cost::CostModel& model, const cloud::KvStore& store,
    const PlannerStats& stats, const index::KeyTwig& twig,
    const index::PatternProfile& profile) const {
  const cost::FetchShape fetch =
      MakeFetchShape(stats, CandidateDocs(kind_, profile, stats.documents));
  // LUP-style look-ups (and the semijoin's first phase) fetch one key per
  // query path; the others fetch the twig's distinct keys.
  const bool by_paths = kind_ == index::StrategyKind::kLUP ||
                        kind_ == index::StrategyKind::k2LUPI;
  const cost::LookupShape first =
      by_paths ? ShapeFor(store, stats, profile, tables_[0],
                          twig.lookup_keys, &twig.lookup_key_ords)
               : ShapeFor(store, stats, profile, tables_[0], twig.keys,
                          nullptr);
  if (kind_ != index::StrategyKind::k2LUPI) {
    return cost::EstimateLookupPath(model, first, fetch);
  }
  return cost::EstimateSemijoinPath(
      model, first,
      ShapeFor(store, stats, profile, tables_[1], twig.keys, nullptr),
      fetch);
}

}  // namespace webdex::engine
