#include "cost/advisor.h"

#include "common/strings.h"
#include "engine/warehouse.h"

namespace webdex::cost {
namespace {

constexpr double kGb = 1024.0 * 1024.0 * 1024.0;

struct TrialResult {
  double build_cost = 0;
  double storage_cost = 0;
  double workload_cost = 0;
  double workload_seconds = 0;
};

/// Runs one configuration (a strategy, or no index) over the sample in a
/// fresh simulated cloud and returns metered costs.
Result<TrialResult> RunTrial(const AdvisorInput& input, bool use_index,
                             index::StrategyKind kind) {
  cloud::CloudEnv env(input.cloud);
  engine::WarehouseConfig config;
  config.use_index = use_index;
  config.strategy = kind;
  config.instance_type = input.instance_type;
  config.num_instances = input.num_instances;
  engine::Warehouse warehouse(&env, config);
  WEBDEX_RETURN_IF_ERROR(warehouse.Setup());

  for (const auto& [uri, text] : input.sample_documents) {
    WEBDEX_RETURN_IF_ERROR(warehouse.SubmitDocument(uri, text));
  }

  TrialResult trial;
  if (use_index) {
    const cloud::Usage before = env.meter().Snapshot();
    WEBDEX_ASSIGN_OR_RETURN(engine::IndexingRunReport report,
                            warehouse.RunIndexers());
    (void)report;
    trial.build_cost =
        env.meter().ComputeBill(env.meter().Snapshot() - before).total();
    CostModel model(input.cloud.pricing);
    DataMetrics data;
    data.num_documents = input.sample_documents.size();
    data.size_gb = static_cast<double>(warehouse.data_bytes()) / kGb;
    IndexMetrics index_metrics;
    index_metrics.raw_gb =
        static_cast<double>(warehouse.IndexRawBytes()) / kGb;
    index_metrics.overhead_gb =
        static_cast<double>(warehouse.IndexOverheadBytes()) / kGb;
    trial.storage_cost =
        model.MonthlyStorageCost(data, index_metrics) -
        model.MonthlyDataStorageCost(data);  // index share only
  }

  const cloud::Usage before = env.meter().Snapshot();
  WEBDEX_ASSIGN_OR_RETURN(engine::QueryRunReport run,
                          warehouse.ExecuteQueries(input.workload));
  trial.workload_cost =
      env.meter().ComputeBill(env.meter().Snapshot() - before).total();
  trial.workload_seconds =
      static_cast<double>(run.makespan) / cloud::kMicrosPerSecond;
  return trial;
}

}  // namespace

Result<AdvisorReport> AdviseStrategy(const AdvisorInput& input) {
  if (input.sample_documents.empty()) {
    return Status::InvalidArgument("advisor needs at least one sample doc");
  }
  if (input.expected_documents == 0) {
    return Status::InvalidArgument("expected_documents must be > 0");
  }
  const double scale = static_cast<double>(input.expected_documents) /
                       static_cast<double>(input.sample_documents.size());

  AdvisorReport report;

  WEBDEX_ASSIGN_OR_RETURN(
      TrialResult baseline,
      RunTrial(input, /*use_index=*/false, index::StrategyKind::kLU));
  report.no_index_workload_cost = baseline.workload_cost * scale;
  report.no_index_workload_seconds = baseline.workload_seconds * scale;
  report.no_index_monthly_total =
      report.no_index_workload_cost * input.workload_runs_per_month;

  double best = report.no_index_monthly_total;
  report.recommend_indexing = false;

  for (index::StrategyKind kind : index::AllStrategyKinds()) {
    WEBDEX_ASSIGN_OR_RETURN(TrialResult trial,
                            RunTrial(input, /*use_index=*/true, kind));
    StrategyEstimate estimate;
    estimate.kind = kind;
    estimate.build_cost = trial.build_cost * scale;
    estimate.monthly_storage_cost = trial.storage_cost * scale;
    estimate.workload_cost = trial.workload_cost * scale;
    estimate.workload_seconds = trial.workload_seconds * scale;
    const double benefit_per_run =
        report.no_index_workload_cost - estimate.workload_cost;
    estimate.amortization_runs =
        benefit_per_run > 0 ? estimate.build_cost / benefit_per_run : -1;
    estimate.monthly_total =
        estimate.build_cost / 12.0 + estimate.monthly_storage_cost +
        estimate.workload_cost * input.workload_runs_per_month;
    if (estimate.monthly_total < best) {
      best = estimate.monthly_total;
      report.recommended = kind;
      report.recommend_indexing = true;
    }
    report.estimates.push_back(estimate);
  }
  return report;
}

std::string AdvisorReport::ToString() const {
  std::string out;
  out += StrFormat(
      "%-8s %12s %12s %12s %12s %14s\n", "strategy", "build $", "storage "
      "$/mo", "workload $", "workload s", "amortize@runs");
  out += StrFormat("%-8s %12s %12s %12.5f %12.1f %14s\n", "none", "-", "-",
                   no_index_workload_cost, no_index_workload_seconds, "-");
  for (const auto& e : estimates) {
    out += StrFormat("%-8s %12.4f %12.4f %12.5f %12.1f %14.1f\n",
                     index::StrategyKindName(e.kind), e.build_cost,
                     e.monthly_storage_cost, e.workload_cost,
                     e.workload_seconds, e.amortization_runs);
  }
  out += StrFormat("recommendation: %s\n",
                   recommend_indexing ? index::StrategyKindName(recommended)
                                      : "no index");
  return out;
}

}  // namespace webdex::cost
