#ifndef WEBDEX_COST_ADVISOR_H_
#define WEBDEX_COST_ADVISOR_H_

#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_env.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "index/strategy.h"

namespace webdex::cost {

/// Input to the index advisor: a representative document sample, the
/// expected full dataset scale, and the expected workload.
struct AdvisorInput {
  /// (uri, xml text) sample documents; the advisor indexes and queries
  /// them in a private simulated cloud.
  std::vector<std::pair<std::string, std::string>> sample_documents;
  /// Expected number of documents in the production dataset; per-dataset
  /// costs are scaled up linearly from the sample.
  uint64_t expected_documents = 0;
  /// Expected query workload (query texts).
  std::vector<std::string> workload;
  /// How many times per month the workload is expected to run.
  double workload_runs_per_month = 30;

  cloud::InstanceType instance_type = cloud::InstanceType::kLarge;
  int num_instances = 1;
  cloud::CloudConfig cloud;
};

/// Cost/performance estimate for one indexing strategy at the expected
/// production scale.
struct StrategyEstimate {
  index::StrategyKind kind = index::StrategyKind::kLU;
  double build_cost = 0;            // ci$(D, I), one-off
  double monthly_storage_cost = 0;  // st$m(D, I)
  double workload_cost = 0;         // one workload run
  double workload_seconds = 0;      // one workload run, response time
  /// Workload runs needed before cumulative query savings repay the
  /// index build cost (Figure 13's crossing point); <0 if never.
  double amortization_runs = 0;
  /// build/12 + storage + runs_per_month * workload cost: the figure the
  /// advisor ranks by.
  double monthly_total = 0;
};

struct AdvisorReport {
  std::vector<StrategyEstimate> estimates;  // one per strategy
  double no_index_workload_cost = 0;
  double no_index_workload_seconds = 0;
  double no_index_monthly_total = 0;
  /// The cheapest option; kUseNoIndex is reported via `use_index`.
  index::StrategyKind recommended = index::StrategyKind::kLU;
  bool recommend_indexing = true;

  std::string ToString() const;
};

/// The platform and index advisor the paper names as future work
/// (Section 9): "based on the expected dataset and workload, estimates an
/// application's performance and cost and picks the best indexing
/// strategy to use."
///
/// Method: every candidate strategy (and the no-index baseline) is run
/// for real on the document sample inside a private simulated cloud; the
/// metered dollar amounts and virtual times are then scaled linearly from
/// sample size to `expected_documents`.  Linear scaling is exact for
/// storage and indexing (Figure 7 shows indexing scales linearly) and a
/// first-order approximation for query costs.
Result<AdvisorReport> AdviseStrategy(const AdvisorInput& input);

}  // namespace webdex::cost

#endif  // WEBDEX_COST_ADVISOR_H_
