#ifndef WEBDEX_ENGINE_QUERY_EXECUTOR_H_
#define WEBDEX_ENGINE_QUERY_EXECUTOR_H_

#include <vector>

#include "cloud/instance.h"
#include "common/status.h"
#include "engine/warehouse.h"
#include "query/logical_plan.h"

namespace webdex::engine {

/// The execution layer of the query engine (docs/PLANNER.md): runs one
/// query task end to end on a simulated instance — parse to LogicalPlan,
/// plan to PhysicalPlan, execute the chosen access paths, fetch +
/// evaluate the candidate documents, store the result.  Every indexed
/// query takes this one route; with the planner off the plan simply has
/// one candidate per pattern, the strategy's canonical path.
///
/// It operates on the warehouse's private state (stores, caches, retry
/// streams) as a friend.
class QueryExecutor {
 public:
  explicit QueryExecutor(Warehouse* warehouse) : warehouse_(warehouse) {}

  /// Body of one query task, after the message has been received.
  /// `receipt`/`lease_anchor` let long phases renew the message lease.
  Status Run(cloud::Instance& instance, const QueryRequest& request,
             uint64_t receipt, cloud::Micros* lease_anchor,
             QueryOutcome* outcome);

 private:
  /// Index look-up: the planner's access-path choice per pattern, with
  /// the scan path as both the breaker-blocked and the runtime fallback.
  /// IndexingStrategy::LookupPattern is a reference for tests and
  /// benchmarks only; this route does not call it.
  Status Lookup(cloud::Instance& instance, const query::LogicalPlan& logical,
                std::vector<std::string>* to_fetch, QueryOutcome* outcome);

  Warehouse* warehouse_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_QUERY_EXECUTOR_H_
