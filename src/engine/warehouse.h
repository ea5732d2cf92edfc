#ifndef WEBDEX_ENGINE_WAREHOUSE_H_
#define WEBDEX_ENGINE_WAREHOUSE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/cluster.h"
#include "cloud/fault.h"
#include "cloud/kv_store.h"
#include "cloud/replicated_kv_store.h"
#include "cloud/retrying_kv_store.h"
#include "cloud/sharded_kv_store.h"
#include "cloud/trace.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "engine/admission.h"
#include "engine/extraction_pipeline.h"
#include "engine/maintenance.h"
#include "engine/message.h"
#include "engine/query_planner.h"
#include "index/generation.h"
#include "index/strategy.h"
#include "index/summary.h"
#include "query/evaluator.h"

namespace webdex::engine {

/// Which key-value service hosts the index (Section 8.4 compares the
/// DynamoDB deployment of this paper against the SimpleDB one of [8]).
enum class IndexBackend { kDynamoDb, kSimpleDb };

struct WarehouseConfig {
  std::string data_bucket = "webdex-data";
  std::string results_bucket = "webdex-results";
  std::string loader_queue = "loader-requests";
  std::string query_queue = "query-requests";
  std::string response_queue = "query-responses";
  /// Tasks dropped after `max_deliveries` are forwarded here (prefixed
  /// with their origin queue) instead of being silently dropped, so an
  /// operator can inspect or re-drive them (DrainDeadLetters, `webdex
  /// dlq drain`).  A task that fails non-retriably (a malformed document
  /// or message, a store InvalidArgument) is not: it is acked at once and
  /// counted in IndexingRunReport::poisoned.  Empty disables forwarding;
  /// dead-lettering itself still applies.
  std::string dead_letter_queue = "dead-letter";

  index::StrategyKind strategy = index::StrategyKind::kLUP;
  index::ExtractOptions extract;
  IndexBackend backend = IndexBackend::kDynamoDb;

  /// false = no-index baseline: every query scans the whole warehouse.
  bool use_index = true;

  /// Cost-based query planning (docs/PLANNER.md): per pattern, the
  /// engine::QueryPlanner prices every access path the deployed strategy
  /// supports and runs the cheapest healthy one.  kLup / kLui pin the
  /// 2LUPI side (the always-LUP / always-LUI baselines, ignored by the
  /// other strategies); kOff plans only the strategy's canonical path
  /// (same rows in every mode).
  PlannerForce planner_force = PlannerForce::kAuto;

  cloud::InstanceType instance_type = cloud::InstanceType::kLarge;
  int num_instances = 1;

  /// Host threads of the process-lifetime pool
  /// (common::ThreadPool::Shared) that runs the parse/extract phase of
  /// indexing tasks on real cores while the deterministic event loop
  /// replays deliveries and billing, and that matches a query task's
  /// fetched documents beside the event-loop thread.  0 = one thread per
  /// hardware core; 1 = serial path (extraction and evaluation inline on
  /// the event-loop thread).  Purely a wall-clock optimization: the
  /// virtual makespan, usage meter, IndexingRunReport and query rows are
  /// bit-identical for every value (see docs/PARALLELISM.md).
  int host_threads = 0;

  /// Retry policy applied to every simulated cloud call the warehouse
  /// issues (index store, S3, SQS).  Backoff sleeps advance virtual time,
  /// so retries lengthen makespans and EC2 bills (docs/FAULTS.md).
  common::RetryPolicy retry;

  /// Admission control over the query processors and the extraction
  /// pipeline (docs/OVERLOAD.md).  Disabled by default: every query is
  /// admitted untouched and existing runs stay bit-identical.
  AdmissionConfig admission;

  /// A message delivered more than this many times is dead-lettered:
  /// acknowledged without effect and counted in
  /// IndexingRunReport::dead_lettered / Usage::dead_lettered.  <= 0
  /// disables dead-lettering.
  int max_deliveries = 8;

  /// Crash-injection hook (tests): called with (crash point, instance id,
  /// message body) at each of the engine's crash points; returning true
  /// simulates the instance crashing there, so the message lease expires
  /// and another instance redoes the task (Section 3, fault tolerance).
  /// Plan-driven crashes (CloudConfig::faults.crash) fire independently
  /// of this hook.
  std::function<bool(cloud::CrashPoint, int, const std::string&)> crash_plan;
};

/// What one indexing run (drain of the loader queue) did — the substance
/// of the paper's Table 4 and Figure 7.
struct IndexingRunReport {
  uint64_t documents = 0;
  /// Virtual time, summed over instances, spent in each phase.
  cloud::Micros extraction_micros = 0;  // S3 fetch + parse + extract
  cloud::Micros upload_micros = 0;      // key-value store writes
  /// Queue-to-queue makespan: first message retrieved (== run start,
  /// instances start polling immediately) to last message deleted.
  cloud::Micros makespan = 0;
  index::ExtractStats extract_stats;
  /// Index-store put units consumed (|op(D, I)| at pricing granularity):
  /// provisioned or on-demand DynamoDB write units, or SimpleDB puts.
  double index_put_units = 0;
  /// Fault-recovery accounting (docs/FAULTS.md).
  uint64_t redeliveries = 0;   // task deliveries with delivery_count > 1
  uint64_t dead_lettered = 0;  // poison tasks dropped after max_deliveries
  /// Tasks acked after a non-retriable failure (a malformed document or
  /// message, a store InvalidArgument): their work is dropped, and any
  /// pages already written stay.  A report field only: nothing is billed.
  uint64_t poisoned = 0;
};

/// Per-query timing split matching Figures 9b/9c.
struct QueryTimings {
  cloud::Micros index_get = 0;      // "Lookup - DynamoDB Get"
  cloud::Micros plan_exec = 0;      // "Lookup - Plan execution"
  cloud::Micros transfer_eval = 0;  // "S3 transfer and results extraction"
  cloud::Micros total = 0;          // message retrieved -> deleted
};

/// Everything observed while answering one query.
struct QueryOutcome {
  uint64_t id = 0;
  std::string query_text;
  query::QueryResult result;
  /// Documents fetched from the file store (|D^q_I|; |D| when no index).
  uint64_t docs_fetched = 0;
  /// Document IDs retrieved from the index, summed over the query's tree
  /// patterns (Table 5 convention for value-join queries).
  uint64_t docs_from_index = 0;
  QueryTimings timings;
  index::LookupStats lookup;
  /// Index-store get units consumed (|op(q, D, I)|), priced like
  /// IndexingRunReport::index_put_units.
  double index_get_units = 0;
  /// True when the index lookup exhausted its retries (or hit an open
  /// circuit breaker) and the query fell back to a full warehouse scan.
  /// The answer is bit-identical to the indexed one, only dearer
  /// (docs/FAULTS.md).
  bool degraded = false;
  /// Documents scanned by the degraded fallback (|D|; 0 when not
  /// degraded).
  uint64_t scan_docs = 0;
  /// Which access path(s) answered the query: "+"-joined per-pattern
  /// path names (e.g. "2LUPI/lup", or "2LUPI" for the semijoin with the
  /// planner off), "scan" for degraded/no-index queries.
  std::string chosen_path;
  /// The planner's pre-execution price tag for the chosen paths (0 for
  /// no-index queries).
  double estimated_cost_usd = 0;
  double estimated_requests = 0;
  /// What the task actually cost: requests + capacity metered during the
  /// task plus its rented VM time.
  double actual_cost_usd = 0;
  double actual_requests = 0;
  /// Patterns that fell back to the scan path — blocked by an open
  /// circuit breaker at plan time, or failed retriably at run time.
  int planner_fallbacks = 0;
  /// True when admission control shed the query (kOverloaded): it did no
  /// index/file-store work and `result` is empty (docs/OVERLOAD.md).
  bool shed = false;
  /// Admission tenant the query ran (or was shed) under; empty when
  /// untagged.
  std::string tenant;
};

struct QueryRunReport {
  std::vector<QueryOutcome> outcomes;  // in submission order
  cloud::Micros makespan = 0;
  /// Brownout accounting for this run (deltas of the usage meter).
  uint64_t degraded_queries = 0;
  uint64_t breaker_opens = 0;
  /// Scan fallbacks taken by the planner, summed over the outcomes.
  uint64_t planner_fallbacks = 0;
  /// Queries admission control shed with kOverloaded this run
  /// (docs/OVERLOAD.md); their outcomes carry shed == true.
  uint64_t shed_queries = 0;
};

/// A query tagged with the tenant it runs under, for the per-tenant
/// admission buckets (docs/OVERLOAD.md).
struct TenantQuery {
  std::string tenant;
  std::string text;
};

/// The complete warehouse of paper Figure 1: front end + file store +
/// index store + queues + a fleet of virtual machines running the
/// indexing and query-processing modules.
///
/// The front end is itself a SimAgent: submitting documents/queries and
/// fetching results advances its virtual clock and bills its API calls.
class Warehouse {
 public:
  Warehouse(cloud::CloudEnv* env, const WarehouseConfig& config);

  /// Creates buckets, queues and index tables.  Call once.
  Status Setup();

  /// Adopts the document registry and clock of another warehouse running
  /// over the *same* CloudEnv.  Used to re-deploy a different query fleet
  /// (instance type / count) against data, queues and index tables that
  /// already live in the simulated services — the paper's experiments
  /// swap EC2 fleets while S3 and DynamoDB keep their contents.
  void AdoptExistingData(const Warehouse& other);

  /// Rebuilds the document registry by listing the data bucket — used
  /// after restoring a cloud snapshot, when the documents and index
  /// tables already exist but this facade is new.  The LIST requests are
  /// billed to the front end like any other S3 traffic.  With
  /// use_index == true the existing index is reused (Setup() must not be
  /// called; the tables already exist).
  Status AttachToExistingCloud();

  // --- Loading (Figure 1, steps 1-3) -------------------------------------

  /// Stores the document in the file store and enqueues an indexing
  /// request.  (With use_index == false the document is still registered
  /// and stored, and the loader queue stays empty.)  Submitting a URI
  /// that is already registered routes to UpsertDocument — the corpus is
  /// mutable, re-submission means replacement (docs/MUTABILITY.md).
  Status SubmitDocument(const std::string& uri, std::string xml_text);

  // --- Mutation (docs/MUTABILITY.md) ---------------------------------------

  /// Replaces `uri`'s content: stores the new text, allocates the next
  /// generation stamp, and enqueues an UPSERT indexing task through the
  /// same fault-injected queue pipeline as loads.  The new postings are
  /// written stamped; readers keep seeing the old generation until the
  /// task commits.  Requires use_index.  Run RunIndexers() to process.
  Status UpsertDocument(const std::string& uri, std::string xml_text);

  /// Deletes `uri`: allocates a generation stamp and enqueues a DELETE
  /// task that writes a tombstone meta row — never an in-place erase.
  /// Postings *and* the stored object linger until compaction collects
  /// them, so a queued revival (a later-generation upsert) can never
  /// lose its object to an earlier delete task.  NotFound if the URI was
  /// never registered.  Requires use_index.  Run RunIndexers() to
  /// process.
  Status DeleteDocument(const std::string& uri);

  // --- Indexing (steps 4-6) ----------------------------------------------

  /// Runs the indexing-module fleet until the loader queue drains.
  Result<IndexingRunReport> RunIndexers();

  // --- Querying (steps 7-18) ----------------------------------------------

  /// Submits the queries, runs the query-processor fleet until done, then
  /// retrieves every result through the front end (charging egress).
  Result<QueryRunReport> ExecuteQueries(
      const std::vector<std::string>& queries);

  /// Tenant-tagged variant: each query runs under its tenant's admission
  /// bucket, so a hot tenant is shed while cold ones keep being served
  /// (docs/OVERLOAD.md).  With admission disabled the tags are inert.
  Result<QueryRunReport> ExecuteQueries(
      const std::vector<TenantQuery>& queries);

  /// Single-query convenience wrapper.
  Result<QueryOutcome> ExecuteQuery(const std::string& query_text);

  /// EXPLAIN: parses and plans `query_text` against the current index
  /// statistics and breaker health *without executing it* — host-side
  /// only, nothing billed, no virtual time.  Returns the logical plan
  /// followed by the physical plan with every candidate's estimate
  /// (`webdex_cli explain`).
  Result<std::string> ExplainQuery(const std::string& query_text);

  // --- Maintenance ---------------------------------------------------------

  /// One scrub pass over the index tables (billed, on the front end's
  /// clock, through the whole index_store() stack; engine/maintenance.h).
  /// With `repair`, missing/partial postings are re-extracted and
  /// stale/orphaned ones deleted.  FailedPrecondition without an index.
  Result<ScrubReport> Scrub(bool repair);

  /// One compaction pass over the mutable index, run like Scrub.  `full`
  /// rewrites alive upserted documents to canonical generation-0
  /// postings; otherwise only superseded generations and collected
  /// tombstones are dropped.  Resumes from the cursor checkpointed in
  /// the cloud's maintenance state (snapshot), so a crash mid-pass —
  /// planned via CrashPoint kMidCompaction — picks up at the URI
  /// boundary after restore.
  Result<CompactReport> Compact(bool full);

  /// Re-drives every dead-lettered message back onto its origin queue
  /// and returns how many were re-driven.  Run RunIndexers() /
  /// ExecuteQueries() afterwards to process them.
  Result<uint64_t> DrainDeadLetters();

  // --- Introspection -------------------------------------------------------

  cloud::CloudEnv& env() { return *env_; }
  cloud::SimAgent& front_end() { return front_end_; }
  cloud::KvStore& index_store() { return *index_store_; }
  const WarehouseConfig& config() const { return config_; }
  const std::vector<std::string>& document_uris() const {
    return document_uris_;
  }
  uint64_t data_bytes() const { return data_bytes_; }

  /// The admission controller gating this warehouse's query processors
  /// and extraction pipeline (inert unless config().admission.enabled).
  AdmissionController& admission() { return admission_; }

  /// The current generation view (index/generation.h): a consistent
  /// immutable snapshot of every mutated document's live generation and
  /// tombstone state.  Queries pin one snapshot for their whole
  /// evaluation; maintenance publishes replacements copy-on-write.  Null
  /// only before Setup/Attach (callers treat null as the all-static
  /// view).
  std::shared_ptr<const index::GenerationMap> GenerationSnapshot() const;

  /// The planner's corpus statistics, maintained incrementally as
  /// documents are indexed (each document counted once, across
  /// redeliveries).
  const index::PathSummary& path_summary() const { return path_summary_; }

  /// Raw + overhead bytes currently held by this warehouse's index
  /// tables (sr and ovh of Section 7.1).
  uint64_t IndexRawBytes() const;
  uint64_t IndexOverheadBytes() const;

 private:
  class FrontEndAgent : public cloud::SimAgent {};

  /// Host threads the extraction pipeline and query evaluation use
  /// (resolves the host_threads == 0 default to the hardware
  /// concurrency).
  int ResolvedHostThreads() const;

  /// True if the test hook or the cloud's fault plan says the instance
  /// crashes at `point` while handling the task with body `task_key`.
  bool ShouldCrash(cloud::CrashPoint point, int instance_id,
                   const std::string& task_key);

  /// Stores `xml_text` as the data object of `uri` (billed front-end put)
  /// and drops the URI's cached DOM, which described the replaced bytes.
  Status PutDocumentObject(const std::string& uri,
                           const std::string& xml_text);

  /// Allocates the next mutation generation from the cloud's maintenance
  /// watermark (monotone, persisted by snapshots).
  uint64_t AllocateGeneration();

  /// Publishes a copy-on-write update of the generation view: the
  /// host-side commit of an upsert/delete task or a compaction step.
  /// Idempotent under redelivery (GenerationMap::Apply is max-wins).
  void CommitGeneration(const std::string& uri, uint64_t generation,
                        bool tombstoned);

  /// Drops `uri` from the generation view — its index state is canonical
  /// again (fully compacted to generation 0, or collected).
  void EraseGeneration(const std::string& uri);

  /// Removes `uri` from the document registry (delete-task commit);
  /// idempotent.
  void UnregisterDocument(const std::string& uri);

  /// Runs `fn` (returning Status or Result<T>) under the configured retry
  /// policy through the warehouse's Retrier, which holds the env's
  /// breaker but names no resource, so no call is gated: jitter comes
  /// from a deterministic per-`site` stream, and each attempt gets its
  /// own `attempt.<site>` span carrying the usage it metered (retried
  /// attempts show up as siblings, so a span tree prices every billed
  /// attempt, not just the one that succeeded).
  template <typename Fn>
  auto RetryCall(cloud::SimAgent& agent, const std::string& site,
                 const Fn& fn) -> decltype(fn()) {
    return retrier_.Call(agent, {"wh:", site}, "attempt." + site, {}, fn);
  }

  /// Uploads `items` to `table` one Limits().batch_put-sized page per API
  /// call (externalizing the store's paging so the engine can crash
  /// between pages).  `crashed` means the instance died mid-upload: the
  /// caller must neither ack nor poison the task.
  struct UploadResult {
    Status status;
    bool crashed = false;
  };
  UploadResult PutItemsPaged(cloud::Instance& instance,
                             const std::string& table,
                             std::span<const cloud::ItemView> items,
                             const std::string& task_key);

  /// How a delivered task ended: acknowledged after success (kOk), left
  /// in flight for redelivery after an unabsorbed transient failure
  /// (kAbandon), acknowledged without effect because it can never succeed
  /// (kPoison), or cut short by an instance crash mid-task (kCrashed:
  /// neither acknowledged nor abandoned — the lease just lapses).
  enum class TaskOutcome { kOk, kAbandon, kPoison, kCrashed };
  /// kAbandon for a retriable failure, kPoison otherwise.
  static TaskOutcome FailedWith(const Status& status);

  /// The names one queue's worker loop runs under.
  struct TaskQueue {
    const std::string& queue;
    const char* span;      // task span
    const char* dlq_site;  // RetryCall site of the dead-letter send
    const char* ack_site;  // RetryCall site of the ack
  };
  /// One worker step over `task.queue`, the whole task lifecycle around
  /// `body(msg, task_span)`: the receive (or an idle step with its
  /// `retry_at`), the task span with its `delivery` attr, dead-lettering
  /// past max_deliveries, and — inside the span — the kBeforeDelete crash
  /// point, abandon, or ack of the TaskOutcome the body returns.
  /// `report` (may be null) counts redeliveries and dead letters.
  template <typename Body>
  cloud::WorkerStep RunTask(cloud::Instance& instance, const TaskQueue& task,
                            IndexingRunReport* report, const Body& body);
  /// The indexing task body: fetch, parse and extract, then upload the
  /// items and the meta row (or, for a delete, the tombstone only).
  TaskOutcome IndexerStep(cloud::Instance& instance,
                          const cloud::ReceivedMessage& msg,
                          ExtractionPipeline* pipeline,
                          IndexingRunReport* report);
  /// The query task body: admission, the query itself, and the response.
  TaskOutcome QueryStep(cloud::Instance& instance,
                        const cloud::ReceivedMessage& msg,
                        cloud::MeteredSpan& task_span,
                        std::map<uint64_t, QueryOutcome>* outcomes);
  /// One admitted query, end to end (docs/PLANNER.md): parse to a
  /// LogicalPlan, plan, run the chosen look-ups, fetch and evaluate the
  /// candidate documents, store the result.  Every indexed query takes
  /// this one route; with the planner off the plan simply has one
  /// candidate per pattern, the strategy's canonical path.
  /// `receipt`/`lease_anchor` let long phases renew the message lease.
  Status RunQuery(cloud::Instance& instance, const QueryRequest& request,
                  uint64_t receipt, cloud::Micros* lease_anchor,
                  QueryOutcome* outcome);
  /// RunQuery's index look-up: the planner's access-path choice per
  /// pattern, with the scan as both the breaker-blocked and the runtime
  /// fallback.  Fills `to_fetch` with the sorted union of the patterns'
  /// candidate URIs (every document after a fallback).
  /// IndexingStrategy::LookupPattern is a reference for tests and
  /// benchmarks only; this route does not call it.
  Status LookupCandidates(cloud::Instance& instance,
                          const query::LogicalPlan& logical,
                          std::vector<std::string>* to_fetch,
                          QueryOutcome* outcome);
  /// Appends `request`'s generation row to the meta table: a tombstone
  /// for a delete, the new live generation for an upsert.
  TaskOutcome PutMetaRow(cloud::Instance& instance,
                         const LoadRequest& request);

  /// Builds the cost-based planner over this warehouse's index store,
  /// corpus statistics, pricing and breaker (engine/query_planner.h).
  QueryPlanner MakePlanner();

  // Heartbeat stand-in: renews the queue lease whenever at least a
  // quarter of the visibility timeout has passed since `*lease_anchor`
  // (Section 3 fault-tolerance protocol).  Called at the natural phase
  // boundaries of the atomic simulated tasks.
  void MaybeRenewLease(cloud::Instance& instance, const std::string& queue,
                       uint64_t receipt, cloud::Micros* lease_anchor);

  /// Host-side DOM cache of the stored objects, keyed by URI; purely a
  /// real-CPU optimization — virtual parse time is charged per fetch.
  /// Every overwrite of a stored object erases its entry
  /// (PutDocumentObject), and a committed delete erases it too, so a hit
  /// is always the DOM of the bytes the query fetched.  Mutex-guarded:
  /// the indexing run warms it from results produced on pooled host
  /// threads, and a future parallel query path may read it concurrently.
  class DocCache {
   public:
    std::shared_ptr<const xml::Document> Get(const std::string& uri) const;
    void Put(const std::string& uri,
             std::shared_ptr<const xml::Document> doc);
    void Erase(const std::string& uri);

   private:
    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<const xml::Document>> cache_;
  };

  cloud::CloudEnv* env_;
  WarehouseConfig config_;
  AdmissionController admission_;
  std::unique_ptr<index::IndexingStrategy> strategy_;
  /// Analytical pricing shared by the planner and the advisors, over this
  /// environment's price sheet.
  cost::CostModel cost_model_;
  /// Planner statistics: distinct paths/keys per document, fed by the
  /// indexing run as each task commits; `summarized_uris_` dedups across
  /// redeliveries so a re-done task never double-counts its document.
  index::PathSummary path_summary_;
  std::set<std::string> summarized_uris_;
  /// Decorator stack over the backend index store, bottom-up: retries
  /// always, then a replicated read pool when the deployment has
  /// replicas, then shard routing when it has shards
  /// (docs/ARCHITECTURES.md).  `index_store_` is the top, so every index
  /// read/write — indexing, queries and maintenance alike — inherits the
  /// whole stack; under the default deployment only the retry decorator
  /// exists, preserving the paper's layout bit-identically.
  std::unique_ptr<cloud::RetryingKvStore> retrying_store_;
  std::unique_ptr<cloud::ReplicatedKvStore> replicated_store_;
  std::unique_ptr<cloud::ShardedKvStore> sharded_store_;
  cloud::KvStore* index_store_ = nullptr;
  std::unique_ptr<IndexMaintainer> maintainer_;
  cloud::Cluster cluster_;
  FrontEndAgent front_end_;
  std::vector<std::string> document_uris_;
  /// O(1) membership mirror of document_uris_, so SubmitDocument can
  /// route re-submissions to UpsertDocument without a linear scan.
  std::set<std::string> registered_uris_;
  /// The published generation view (copy-on-write; GenerationSnapshot).
  /// The mutex guards only the pointer swap — published maps are
  /// immutable, so readers on other host threads see a consistent view.
  mutable std::mutex generations_mu_;
  std::shared_ptr<const index::GenerationMap> generations_ =
      std::make_shared<index::GenerationMap>();
  uint64_t data_bytes_ = 0;
  uint64_t next_query_id_ = 1;
  DocCache doc_cache_;
  /// The retry loop of the warehouse's own S3/SQS calls (RetryCall).
  cloud::Retrier retrier_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_WAREHOUSE_H_
