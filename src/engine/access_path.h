#ifndef WEBDEX_ENGINE_ACCESS_PATH_H_
#define WEBDEX_ENGINE_ACCESS_PATH_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/deployment.h"
#include "cloud/instance.h"
#include "cloud/kv_store.h"
#include "common/result.h"
#include "cost/path_cost.h"
#include "index/key_twig.h"
#include "index/strategy.h"
#include "index/summary.h"
#include "query/tree_pattern.h"

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

/// What executing one access path produced: the candidate document URIs
/// for one tree pattern, plus the look-up work counters the caller
/// charges to the executing instance.
struct PathResult {
  std::vector<std::string> uris;
  index::LookupStats stats;
  /// True when the candidates are the entire corpus (ScanAccessPath):
  /// the executor then runs the degraded/no-index fetch-everything tail.
  bool scanned = false;
};

/// One physical way to produce candidate documents for a tree pattern
/// (docs/PLANNER.md): an index look-up against a concrete table, or the
/// full warehouse scan.  Paths are constructed per query by the
/// QueryPlanner, priced with EstimateCost, and at most one per pattern
/// is executed — so an un-chosen path is never billed.
class AccessPath {
 public:
  virtual ~AccessPath() = default;

  /// Stable short name used in EXPLAIN output, QueryOutcome::chosen_path
  /// and bench columns: "LU", "LUP", "LUI", "2LUPI/lup", "2LUPI/lui",
  /// "2LUPI" (the semijoin), "scan".
  virtual const std::string& name() const = 0;

  /// Index tables this path reads — the circuit-breaker resources whose
  /// health gates the path's viability.  Empty for the scan path.
  virtual const std::vector<std::string>& tables() const = 0;

  /// Prices the path from planner statistics and host-side store
  /// accounting only: no simulated requests, no virtual time, no billing.
  virtual cost::PathEstimate EstimateCost(
      const cost::CostModel& model) const = 0;

  /// Runs the path: index round-trips advance `agent`'s clock and are
  /// billed; CPU work is reported via PathResult::stats for the caller
  /// to charge.  A retriable failure means the backing table is browned
  /// out — the executor falls back to the scan path.
  virtual Result<PathResult> Execute(cloud::SimAgent& agent) const = 0;
};

/// An index look-up (Section 5) as an access path.  `kind` names the
/// look-up core it runs over `tables` (index::LookupByKind):
///   * kLU, kLUP, kLUI — one table.  Named "2LUPI/lup" / "2LUPI/lui"
///     over a 2LUPI table, they run one side of that index on its own;
///   * k2LUPI — the Figure 5 semijoin over the paths table then the ids
///     table, named "2LUPI": the 2LUPI strategy's canonical path, planned
///     only with the planner off (PlannerForce::kOff).
class LookupAccessPath final : public AccessPath {
 public:
  LookupAccessPath(std::string name, index::StrategyKind kind,
                   cloud::KvStore* store, std::vector<std::string> tables,
                   const query::TreePattern* pattern,
                   const index::ExtractOptions& options,
                   const PlannerStats& stats);

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& tables() const override {
    return tables_;
  }
  cost::PathEstimate EstimateCost(const cost::CostModel& model) const override;
  Result<PathResult> Execute(cloud::SimAgent& agent) const override;

 private:
  /// The BatchGet of `keys` against `table`, sized from the summary and
  /// the store's host-side accounting and adjusted for the deployment.
  cost::LookupShape ShapeFor(const std::string& table,
                             const std::vector<std::string>& keys) const;
  /// Candidate documents the look-up is expected to keep, capped at |D|
  /// (|D| itself without statistics).
  double CandidateDocs() const;

  std::string name_;
  index::StrategyKind kind_;
  cloud::KvStore* store_;
  std::vector<std::string> tables_;
  const query::TreePattern* pattern_;
  index::ExtractOptions options_;
  PlannerStats stats_;
  index::KeyTwig twig_;
};

/// The full warehouse scan (the PR4 degraded fallback relocated into the
/// planner): candidates are every document.  Free at look-up time —
/// all the cost is in the fetch-everything tail — and always viable, so
/// brownout handling is simply "the planner picks the only healthy
/// path".
class ScanAccessPath final : public AccessPath {
 public:
  ScanAccessPath(const std::vector<std::string>* document_uris,
                 const PlannerStats& stats);

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& tables() const override {
    return tables_;
  }
  cost::PathEstimate EstimateCost(const cost::CostModel& model) const override;
  Result<PathResult> Execute(cloud::SimAgent& agent) const override;

 private:
  std::string name_ = "scan";
  std::vector<std::string> tables_;  // none
  const std::vector<std::string>* document_uris_;
  PlannerStats stats_;
};

/// The fetch + evaluate tail shape shared by every path of this
/// deployment, for `docs` candidate documents.
cost::FetchShape MakeFetchShape(const PlannerStats& stats, double docs);

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_ACCESS_PATH_H_
