#include "engine/query_executor.h"

#include <cassert>
#include <set>
#include <utility>

#include "common/strings.h"
#include "engine/query_planner.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xml/parser.h"

namespace webdex::engine {

using cloud::Instance;
using cloud::Micros;

Status QueryExecutor::Lookup(Instance& instance,
                             const query::LogicalPlan& logical,
                             std::vector<std::string>* to_fetch,
                             QueryOutcome* outcome) {
  Warehouse& w = *warehouse_;
  const auto& work = instance.work();
  // Planning is host-side arithmetic over the path summary and breaker
  // health: free, instantaneous, nothing billed.
  cloud::MeteredSpan plan_span(&w.env_->tracer(), &w.env_->meter(),
                               instance, "plan");
  const QueryPlanner planner = w.MakePlanner();
  const PhysicalPlan plan =
      planner.Plan(logical, w.cost_model_, instance.now());
  outcome->chosen_path = plan.ChosenDescription();
  outcome->estimated_cost_usd = plan.EstimatedUsd();
  outcome->estimated_requests = plan.EstimatedRequests();
  outcome->planner_fallbacks = plan.planner_fallbacks;
  plan_span.AddAttr("estimated_usd", plan.EstimatedUsd());
  plan_span.End();

  const cloud::Usage before = w.env_->meter().Snapshot();
  std::set<std::string> fetch_set;
  index::LookupStats stats;
  const Micros get_start = instance.now();
  bool scanned = false;
  for (const auto& pattern_plan : plan.patterns) {
    const PlannedPath& chosen = pattern_plan.chosen_path();
    // One span per executed access path, named after the path it ran
    // ("path.lup", "path.lui", "path.scan", ...).
    cloud::MeteredSpan path_span(&w.env_->tracer(), &w.env_->meter(),
                                 instance, "path." + chosen.path->name());
    auto result = chosen.path->Execute(instance);
    if (!result.ok()) {
      path_span.AddAttr("error", 1);
      if (!result.status().IsRetriable()) return result.status();
      // Runtime brownout: the chosen look-up exhausted its retries
      // mid-query.  Degrade to the scan path — the same fallback the
      // planner would have chosen had the breaker opened before planning.
      scanned = true;
      outcome->planner_fallbacks += 1;
      break;
    }
    if (result.value().scanned) {
      scanned = true;
      break;
    }
    stats += result.value().stats;
    outcome->docs_from_index += result.value().uris.size();
    fetch_set.insert(result.value().uris.begin(), result.value().uris.end());
  }
  outcome->timings.index_get = instance.now() - get_start;

  const Micros plan_start = instance.now();
  instance.ChargeParallelWork(
      work.lookup_merge_per_item * static_cast<double>(stats.uri_merge_ops) +
      work.lookup_merge_per_item * static_cast<double>(stats.items_fetched) +
      work.path_match_per_path * static_cast<double>(stats.paths_tested) +
      work.twig_per_id * static_cast<double>(stats.twig_id_ops));
  outcome->timings.plan_exec = instance.now() - plan_start;
  outcome->lookup = stats;

  const cloud::Usage delta = w.env_->meter().Snapshot() - before;
  outcome->index_get_units = delta.ddb_read_units + delta.sdb_get_requests;
  if (scanned) {
    // Degraded read (docs/FAULTS.md): answer from the ground truth by
    // scanning every document, exactly like the no-index baseline.  Same
    // rows, higher cost — availability is bought with S3 traffic and VM
    // time instead of index reads.
    outcome->chosen_path = "scan";
    outcome->degraded = true;
    outcome->docs_from_index = 0;
    outcome->scan_docs = w.document_uris_.size();
    w.env_->meter().mutable_usage().degraded_queries += 1;
    *to_fetch = w.document_uris_;
  } else {
    to_fetch->assign(fetch_set.begin(), fetch_set.end());
  }
  return Status::OK();
}

Status QueryExecutor::Run(Instance& instance, const QueryRequest& request,
                          uint64_t receipt, Micros* lease_anchor,
                          QueryOutcome* outcome) {
  Warehouse& w = *warehouse_;
  const Micros task_start = instance.now();
  outcome->id = request.id;
  outcome->query_text = request.query_text;

  WEBDEX_ASSIGN_OR_RETURN(query::Query parsed,
                          query::ParseQuery(request.query_text));
  const query::LogicalPlan logical =
      query::LogicalPlan::Build(std::move(parsed));

  const auto& work = instance.work();
  const cloud::Usage task_before = w.env_->meter().Snapshot();
  std::vector<std::string> to_fetch;
  if (w.config_.use_index) {
    WEBDEX_RETURN_IF_ERROR(Lookup(instance, logical, &to_fetch, outcome));
    w.MaybeRenewLease(instance, w.config_.query_queue, receipt, lease_anchor);
  } else {
    // No index: the query runs over the entire warehouse.
    outcome->chosen_path = "scan";
    to_fetch = w.document_uris_;
  }
  outcome->docs_fetched = to_fetch.size();

  // Transfer the candidate documents into the instance and evaluate
  // (steps 12-13), over one parallel S3 stream per core.
  const Micros eval_start = instance.now();
  cloud::MeteredSpan fetch_span(&w.env_->tracer(), &w.env_->meter(),
                                instance, "fetch");
  fetch_span.AddAttr("documents", static_cast<double>(to_fetch.size()));
  std::vector<std::shared_ptr<const xml::Document>> docs;
  if (!to_fetch.empty()) {
    WEBDEX_ASSIGN_OR_RETURN(
        std::vector<std::string> texts,
        w.RetryCall(instance, "qp.fetch", [&] {
          return w.env_->s3().BatchGet(instance, w.config_.data_bucket,
                                       to_fetch,
                                       instance.parallel_streams());
        }));
    docs.reserve(texts.size());
    double parse_work = 0;
    for (size_t i = 0; i < texts.size(); ++i) {
      // Parse CPU is charged in virtual time for every query, as the
      // real system re-parses every fetched document; the host-side DOM
      // cache below only avoids redundant *host* CPU when the same
      // immutable document is fetched by several simulated queries.
      parse_work += work.parse_per_byte * static_cast<double>(texts[i].size());
      if (auto cached = w.doc_cache_.Get(to_fetch[i]); cached != nullptr) {
        docs.push_back(std::move(cached));
        continue;
      }
      WEBDEX_ASSIGN_OR_RETURN(xml::Document doc,
                              xml::ParseDocument(to_fetch[i], texts[i]));
      auto shared = std::make_shared<const xml::Document>(std::move(doc));
      w.doc_cache_.Put(to_fetch[i], shared);
      docs.push_back(std::move(shared));
    }
    instance.ChargeParallelWork(parse_work);
  }
  fetch_span.End();
  cloud::MeteredSpan eval_span(&w.env_->tracer(), &w.env_->meter(),
                               instance, "eval");
  std::vector<const xml::Document*> doc_ptrs;
  doc_ptrs.reserve(docs.size());
  for (const auto& doc : docs) doc_ptrs.push_back(doc.get());
  (void)query::Evaluator::ConsumeWorkStats();
  outcome->result = query::Evaluator::Evaluate(logical.query(), doc_ptrs);
  // The evaluator's work counters are thread_local; they are only
  // visible — and chargeable — on the thread that evaluated.  If this
  // assertion fires, evaluation ran on a different thread than the one
  // consuming its stats (see the contract in query/evaluator.h).
  assert(query::Evaluator::HasPendingWorkStats());
  const auto eval_stats = query::Evaluator::ConsumeWorkStats();
  instance.ChargeParallelWork(
      work.eval_per_byte * static_cast<double>(eval_stats.doc_bytes_scanned) +
      work.result_per_byte * static_cast<double>(eval_stats.result_bytes));
  eval_span.End();

  w.MaybeRenewLease(instance, w.config_.query_queue, receipt, lease_anchor);

  // Store the results in the file store (step 14).
  cloud::MeteredSpan store_span(&w.env_->tracer(), &w.env_->meter(),
                                instance, "store");
  std::string result_xml = outcome->result.ToXml();
  instance.ChargeParallelWork(work.result_per_byte *
                              static_cast<double>(result_xml.size()));
  const std::string result_key =
      StrFormat("result-%llu.xml", static_cast<unsigned long long>(request.id));
  WEBDEX_RETURN_IF_ERROR(w.RetryCall(instance, "qp.store", [&] {
    return w.env_->s3().Put(instance, w.config_.results_bucket, result_key,
                            result_xml);
  }));
  store_span.End();
  outcome->timings.transfer_eval = instance.now() - eval_start;
  outcome->timings.total = instance.now() - task_start;

  // Metered reality next to the estimate: what this task actually cost
  // (requests + capacity billed during the task, plus its share of rented
  // VM time), for the estimated-vs-actual columns of the reports.
  const cloud::Usage task_delta = w.env_->meter().Snapshot() - task_before;
  const cloud::Bill task_bill = w.env_->meter().ComputeBill(task_delta);
  const double vm_usd =
      w.env_->meter().pricing().VmHour(w.config_.instance_type) *
      static_cast<double>(outcome->timings.total) / 3600e6;
  outcome->actual_cost_usd = task_bill.total() + vm_usd;
  outcome->actual_requests = static_cast<double>(
      task_delta.s3_get_requests + task_delta.s3_put_requests +
      task_delta.ddb_get_requests + task_delta.sdb_get_requests);

  // Engine-level metrics for this task, plus the planner's report card:
  // the actual/estimated cost ratio (1.0 = a perfect estimate), recorded
  // only when the estimate was exercised as priced (an indexed query, not
  // degraded).
  common::MetricRegistry& registry = w.env_->metrics();
  registry.GetCounter("engine.query.count")->Add(1);
  if (outcome->degraded) {
    registry.GetCounter("engine.query.degraded.count")->Add(1);
  }
  registry.GetHistogram("engine.query.latency_us")
      ->Record(static_cast<double>(outcome->timings.total));
  if (w.config_.use_index && !outcome->degraded &&
      outcome->estimated_cost_usd > 0) {
    registry.GetHistogram("planner.estimate_error_ratio")
        ->Record(outcome->actual_cost_usd / outcome->estimated_cost_usd);
  }
  return Status::OK();
}

}  // namespace webdex::engine
