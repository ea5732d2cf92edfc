#ifndef WEBDEX_ENGINE_QUERY_PLANNER_H_
#define WEBDEX_ENGINE_QUERY_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/circuit_breaker.h"
#include "cloud/sim.h"
#include "engine/access_path.h"
#include "index/strategy.h"
#include "query/logical_plan.h"

namespace webdex::engine {

/// How the planner chooses among the deployed strategy's access paths.
/// kAuto lets cost estimates decide the 2LUPI side per pattern; kLup and
/// kLui pin it, for the always-LUP / always-LUI baselines that Table 5
/// compares the planner against.  kOff plans one candidate per pattern:
/// the strategy's canonical path — LU, LUP, LUI, or for 2LUPI the
/// Figure 5 semijoin — still priced, breaker-gated and backed by the scan.
enum class PlannerForce { kAuto, kLup, kLui, kOff };

const char* PlannerForceName(PlannerForce force);

/// One candidate access path for one pattern, with its price tag and the
/// planner's verdict.  Kept (not discarded) after planning so EXPLAIN can
/// show the rejected alternatives next to the winner.
struct PlannedPath {
  std::unique_ptr<AccessPath> path;
  cost::PathEstimate estimate;
  /// False when the circuit breaker reports the path's table browned out
  /// (or a forced baseline disables it); a non-viable path is never
  /// executed and never billed.
  bool viable = true;
  std::string note;  // why rejected / blocked, for EXPLAIN
};

/// The planner's decision for one tree pattern: all candidates (index
/// look-ups first, the scan fallback last) and the index of the winner.
struct PatternPlan {
  int pattern = 0;
  std::vector<PlannedPath> paths;
  int chosen = -1;

  const PlannedPath& chosen_path() const { return paths[chosen]; }
};

/// The physical layer's output: per-pattern access-path choices plus the
/// roll-up the executor records into QueryOutcome.  Serializable as text
/// (`webdex_cli explain`).
struct PhysicalPlan {
  std::vector<PatternPlan> patterns;
  std::string strategy;           // StrategyKindName of the deployment
  PlannerForce force = PlannerForce::kAuto;
  /// Patterns whose look-up candidates were all breaker-blocked at plan
  /// time, sending the planner straight to scan.
  int planner_fallbacks = 0;

  double EstimatedUsd() const;
  double EstimatedRequests() const;
  /// "+"-joined chosen path names, e.g. "2LUPI/lup+2LUPI/lui" — the
  /// QueryOutcome::chosen_path value.
  std::string ChosenDescription() const;
  std::string ToString() const;
};

/// The cost-based planner (docs/PLANNER.md): enumerates the access paths
/// the deployed strategy's tables support, prices each with the cost
/// model, drops paths whose table the circuit breaker reports unhealthy,
/// and picks the cheapest viable look-up per pattern — or the scan when
/// nothing index-backed is healthy.
class QueryPlanner {
 public:
  struct Context {
    cloud::KvStore* store = nullptr;
    /// Health authority; null means "everything healthy".
    const cloud::CircuitBreaker* breaker = nullptr;
    index::StrategyKind strategy = index::StrategyKind::kLUP;
    index::ExtractOptions options;
    /// All document URIs, for the scan path (owned by the warehouse).
    const std::vector<std::string>* document_uris = nullptr;
    PlannerStats stats;
    PlannerForce force = PlannerForce::kAuto;
    /// When false the deployment has no index: every pattern plans as a
    /// scan (and it does not count as a fallback).
    bool use_index = true;
  };

  explicit QueryPlanner(Context context) : context_(std::move(context)) {}

  /// Plans every pattern of the logical plan against breaker health as of
  /// virtual time `now`.  Pure host-side work: nothing is billed and no
  /// virtual time passes.
  PhysicalPlan Plan(const query::LogicalPlan& logical,
                    const cost::CostModel& model, cloud::Micros now) const;

 private:
  std::vector<PlannedPath> CandidatesFor(const query::TreePattern& pattern)
      const;

  Context context_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_QUERY_PLANNER_H_
