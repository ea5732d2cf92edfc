#ifndef WEBDEX_ENGINE_ACCESS_PATH_H_
#define WEBDEX_ENGINE_ACCESS_PATH_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/deployment.h"
#include "cloud/instance.h"
#include "cloud/kv_store.h"
#include "cost/path_cost.h"
#include "index/key_twig.h"
#include "index/strategy.h"
#include "index/summary.h"

namespace webdex::engine {

/// Corpus- and deployment-level statistics the planner prices access
/// paths against.  `summary` may be null or empty (e.g. right after a
/// snapshot restore, before any document is re-indexed through this
/// facade); estimation then falls back to whole-corpus upper bounds and
/// the planner behaves like the paper's static default (LUP-side
/// look-ups win).
struct PlannerStats {
  const index::PathSummary* summary = nullptr;
  uint64_t documents = 0;   // |D|
  uint64_t data_bytes = 0;  // s(D) in bytes
  const cloud::WorkModel* work = nullptr;
  cloud::InstanceSpec spec{1, 1.0, 0.0};
  double vm_usd_per_hour = 0;
  /// How the index store bills reads (DynamoDB read units vs SimpleDB
  /// box usage) and its per-item billed-size floor.
  cost::IndexBilling billing = cost::IndexBilling::kReadUnits;
  double min_read_bytes = 0;
  /// Deployment shape (docs/ARCHITECTURES.md): shard routing changes the
  /// BatchGet API-call count, replicas halve the effective read price,
  /// on-demand capacity swaps the per-unit price.  Null = default layout.
  const cloud::Deployment* deployment = nullptr;
  /// Generation view pinned when the plan was built (index/generation.h):
  /// look-ups executed through this plan see each document at exactly the
  /// generation recorded here, so queries stay bit-identical while
  /// maintenance mutates the index underneath.  Null for static corpora.
  std::shared_ptr<const index::GenerationMap> generations;
};

/// An index look-up (Section 5) as one candidate access path of a
/// pattern (docs/PLANNER.md).  `kind` names the look-up core it runs
/// over `tables` (index::LookupByKind):
///   * kLU, kLUP, kLUI — one table.  Named "2LUPI/lup" / "2LUPI/lui"
///     over a 2LUPI table, they run one side of that index on its own;
///   * k2LUPI — the Figure 5 semijoin over the paths table then the ids
///     table, named "2LUPI": the 2LUPI strategy's canonical path, planned
///     only with the planner off (PlannerForce::kOff).
/// Built per query by the QueryPlanner, priced with EstimateCost, and
/// executed at most once per pattern — so an un-chosen path is never
/// billed.  It holds only what tells the candidates apart: the pattern's
/// key twig and profile are the plan's, shared by all of them.
class LookupAccessPath {
 public:
  LookupAccessPath(const char* name, index::StrategyKind kind,
                   std::vector<std::string> tables)
      : name_(name), kind_(kind), tables_(std::move(tables)) {}

  /// Stable short name used in EXPLAIN output, QueryOutcome::chosen_path
  /// and bench columns: "LU", "LUP", "LUI", "2LUPI/lup", "2LUPI/lui",
  /// "2LUPI" (the semijoin).
  const char* name() const { return name_; }

  index::StrategyKind kind() const { return kind_; }

  /// Index tables this path reads — the circuit-breaker resources whose
  /// health gates the path's viability.
  const std::vector<std::string>& tables() const { return tables_; }

  /// Prices the path for the pattern of `twig`, whose document counts are
  /// `profile` (empty without statistics), from planner statistics and
  /// `store`'s host-side accounting only: no simulated requests, no
  /// virtual time, no billing.
  cost::PathEstimate EstimateCost(const cost::CostModel& model,
                                  const cloud::KvStore& store,
                                  const PlannerStats& stats,
                                  const index::KeyTwig& twig,
                                  const index::PatternProfile& profile) const;

 private:
  const char* name_;
  index::StrategyKind kind_;
  std::vector<std::string> tables_;
};

/// The fetch + evaluate tail shape shared by every path of this
/// deployment, for `docs` candidate documents.
cost::FetchShape MakeFetchShape(const PlannerStats& stats, double docs);

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_ACCESS_PATH_H_
