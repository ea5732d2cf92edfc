#include "engine/access_path.h"

#include <algorithm>
#include <cmath>

#include "index/key_twig.h"
#include "index/lookup_paths.h"

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

LookupAccessPath::LookupAccessPath(std::string name, index::StrategyKind kind,
                                   cloud::KvStore* store,
                                   std::vector<std::string> tables,
                                   const query::TreePattern* pattern,
                                   const index::ExtractOptions& options,
                                   const PlannerStats& stats)
    : name_(std::move(name)),
      kind_(kind),
      store_(store),
      tables_(std::move(tables)),
      pattern_(pattern),
      options_(options),
      stats_(stats),
      twig_(index::BuildKeyTwig(*pattern, options.include_words)) {}

cost::LookupShape LookupAccessPath::ShapeFor(
    const std::string& table, const std::vector<std::string>& keys) const {
  cost::LookupShape lookup;
  lookup.keys = keys.size();
  lookup.batch_get_limit = store_->BatchGetLimit();
  lookup.min_read_bytes = stats_.min_read_bytes;
  lookup.billing = stats_.billing;
  if (const cloud::Deployment* deploy = stats_.deployment) {
    if (deploy->sharded()) {
      // Batching happens per physical table: price the exact fan-out the
      // sharded store will issue rather than one logical-table ceiling.
      std::vector<uint64_t> per_shard(
          static_cast<size_t>(deploy->spec().shards), 0);
      for (const auto& key : keys) {
        ++per_shard[static_cast<size_t>(deploy->ShardFor(key))];
      }
      const double limit =
          static_cast<double>(std::max(store_->BatchGetLimit(), 1));
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
  const uint64_t item_count = store_->ItemCount(table);
  lookup.avg_item_bytes =
      item_count == 0 ? 0
                      : static_cast<double>(store_->StoredBytes(table)) /
                            static_cast<double>(item_count);

  const index::PathSummary* summary = stats_.summary;
  if (summary != nullptr && summary->documents() > 0) {
    // Items per key: roughly one per document containing the key (long ID
    // lists are chunked across items, but the chunk factor is the same for
    // every candidate path against the same corpus).
    double items = 0;
    for (const auto& key : keys) {
      items += static_cast<double>(summary->DocsWithKey(key));
    }
    lookup.est_items = items;
  } else {
    // No statistics yet: assume the worst (every key is in every document
    // and nothing prunes).  All lookup paths then tie on the fetch tail
    // and differ only in index-read cost, which favours the thinner
    // LUP-side table — the paper's measured static default.
    lookup.est_items =
        static_cast<double>(keys.size()) * static_cast<double>(stats_.documents);
  }
  return lookup;
}

namespace {

double LuiDocs(const index::PathSummary& summary,
               const query::TreePattern& pattern) {
  // Document-level path statistics cannot see the instance-level
  // correlation the twig join exploits, so any independence-flavoured
  // estimate predicts pruning that often is not there.  Trust the twig
  // join to out-prune the path pre-filter only when the Section 8.5
  // detector flags the pattern (common linear paths, rare co-occurrence);
  // otherwise assume path matching already captures the document-level
  // selectivity, and let the cheaper look-up win the tie.
  const double lu = static_cast<double>(summary.EstimateLuDocs(pattern));
  if (summary.AdviseLookup(pattern).lookup == index::StrategyKind::kLUI) {
    const double combined = std::ceil(summary.EstimateTwigJoinDocs(pattern));
    return std::min(lu, std::max(combined, 0.0));
  }
  const double lup = static_cast<double>(summary.EstimateLupDocs(pattern));
  return std::min(lu, lup);
}

}  // namespace

double LookupAccessPath::CandidateDocs() const {
  const index::PathSummary* summary = stats_.summary;
  const double all = static_cast<double>(stats_.documents);
  if (summary == nullptr || summary->documents() == 0) return all;
  double docs = all;
  switch (kind_) {
    case index::StrategyKind::kLU:
      docs = static_cast<double>(summary->EstimateLuDocs(*pattern_));
      break;
    case index::StrategyKind::kLUP:
      docs = static_cast<double>(summary->EstimateLupDocs(*pattern_));
      break;
    case index::StrategyKind::kLUI:
      docs = LuiDocs(*summary, *pattern_);
      break;
    case index::StrategyKind::k2LUPI:
      // The semijoin keeps the documents both phases accept.
      docs = std::min(static_cast<double>(summary->EstimateLupDocs(*pattern_)),
                      LuiDocs(*summary, *pattern_));
      break;
  }
  return std::min(docs, all);
}

cost::PathEstimate LookupAccessPath::EstimateCost(
    const cost::CostModel& model) const {
  const cost::FetchShape fetch = MakeFetchShape(stats_, CandidateDocs());
  // LUP-style look-ups (and the semijoin's first phase) fetch one key per
  // query path; the others fetch the twig's distinct keys.
  const bool by_paths = kind_ == index::StrategyKind::kLUP ||
                        kind_ == index::StrategyKind::k2LUPI;
  const cost::LookupShape first =
      ShapeFor(tables_[0], by_paths ? index::PathLookupKeys(twig_)
                                    : twig_.DistinctKeys());
  if (kind_ != index::StrategyKind::k2LUPI) {
    return cost::EstimateLookupPath(model, first, fetch);
  }
  return cost::EstimateSemijoinPath(
      model, first, ShapeFor(tables_[1], twig_.DistinctKeys()), fetch);
}

Result<PathResult> LookupAccessPath::Execute(cloud::SimAgent& agent) const {
  PathResult result;
  WEBDEX_ASSIGN_OR_RETURN(
      std::set<std::string> uris,
      index::LookupByKind(kind_, agent, *store_, tables_, twig_, options_,
                          &result.stats, stats_.generations.get()));
  result.uris = index::SortedUris(uris);
  return result;
}

ScanAccessPath::ScanAccessPath(const std::vector<std::string>* document_uris,
                               const PlannerStats& stats)
    : document_uris_(document_uris), stats_(stats) {}

cost::PathEstimate ScanAccessPath::EstimateCost(
    const cost::CostModel& model) const {
  return cost::EstimateScanPath(
      model, MakeFetchShape(stats_, static_cast<double>(stats_.documents)));
}

Result<PathResult> ScanAccessPath::Execute(cloud::SimAgent&) const {
  PathResult result;
  result.uris = *document_uris_;
  result.scanned = true;
  return result;
}

}  // namespace webdex::engine
