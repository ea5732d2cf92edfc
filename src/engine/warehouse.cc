#include "engine/warehouse.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "engine/query_executor.h"
#include "index/intern.h"
#include "query/parser.h"
#include "xml/parser.h"

namespace webdex::engine {

using cloud::Instance;
using cloud::Micros;
using cloud::WorkerStep;

Warehouse::Warehouse(cloud::CloudEnv* env, const WarehouseConfig& config)
    : env_(env),
      config_(config),
      admission_(config.admission, &env->meter(), &env->metrics(),
                 &env->tracer()),
      strategy_(index::IndexingStrategy::Create(config.strategy)),
      cost_model_(env->meter().pricing()),
      retrying_store_(std::make_unique<cloud::RetryingKvStore>(
          config.backend == IndexBackend::kSimpleDb
              ? static_cast<cloud::KvStore*>(&env->simpledb())
              : &env->dynamodb(),
          config.retry, env->config().seed, &env->meter(),
          &env->breaker(), &env->metrics(), &env->tracer())),
      cluster_(config.num_instances, config.instance_type,
               &env->config().work),
      retrier_(config.retry, env->config().seed, &env->meter(),
               /*breaker=*/nullptr, &env->metrics(), &env->tracer()) {
  // Deployment decorators (docs/ARCHITECTURES.md), constructed only when
  // the architecture asks for them so the default deployment's stack —
  // and with it every byte of its runs — is unchanged.
  cloud::Deployment& deployment = env->deployment();
  cloud::KvStore* top = retrying_store_.get();
  if (deployment.replicated()) {
    replicated_store_ = std::make_unique<cloud::ReplicatedKvStore>(
        top, &deployment, &env->meter(), &env->metrics(), &env->tracer());
    top = replicated_store_.get();
  }
  if (deployment.sharded()) {
    sharded_store_ = std::make_unique<cloud::ShardedKvStore>(
        top, &deployment, &env->meter(), &env->metrics(), &env->tracer());
    top = sharded_store_.get();
  }
  index_store_ = top;
  maintainer_ = std::make_unique<IndexMaintainer>(
      env, index_store_, strategy_.get(), config.extract, config.data_bucket);
}

bool Warehouse::ShouldCrash(cloud::CrashPoint point, int instance_id,
                            const std::string& task_key) {
  if (config_.crash_plan && config_.crash_plan(point, instance_id, task_key)) {
    return true;
  }
  return env_->fault_injector().ShouldCrash(point, task_key);
}

Status Warehouse::Setup() {
  WEBDEX_RETURN_IF_ERROR(env_->s3().CreateBucket(config_.data_bucket));
  WEBDEX_RETURN_IF_ERROR(env_->s3().CreateBucket(config_.results_bucket));
  WEBDEX_RETURN_IF_ERROR(env_->sqs().CreateQueue(config_.loader_queue));
  WEBDEX_RETURN_IF_ERROR(env_->sqs().CreateQueue(config_.query_queue));
  WEBDEX_RETURN_IF_ERROR(env_->sqs().CreateQueue(config_.response_queue));
  if (!config_.dead_letter_queue.empty()) {
    WEBDEX_RETURN_IF_ERROR(env_->sqs().CreateQueue(config_.dead_letter_queue));
  }
  if (config_.use_index) {
    for (const auto& table : strategy_->TableNames()) {
      WEBDEX_RETURN_IF_ERROR(index_store().CreateTable(front_end_, table));
    }
    // Mutation meta table (index/generation.h).  Stays empty until the
    // first upsert/delete, so static-corpus dumps are byte-unchanged.
    WEBDEX_RETURN_IF_ERROR(
        index_store().CreateTable(front_end_, index::kMetaTable));
  }
  return Status::OK();
}

void Warehouse::AdoptExistingData(const Warehouse& other) {
  document_uris_ = other.document_uris_;
  registered_uris_ = other.registered_uris_;
  data_bytes_ = other.data_bytes_;
  next_query_id_ = other.next_query_id_;
  // The planner statistics travel with the data: the new fleet prices
  // access paths against the same corpus the old fleet indexed.
  path_summary_ = other.path_summary_;
  summarized_uris_ = other.summarized_uris_;
  {
    std::lock_guard<std::mutex> lock(generations_mu_);
    generations_ = other.GenerationSnapshot();
  }
  front_end_.AdvanceTo(other.front_end_.now());
}

Status Warehouse::AttachToExistingCloud() {
  // Buckets this facade needs but the snapshot may lack (e.g. a results
  // bucket that never held an object).
  for (const auto& bucket : {config_.data_bucket, config_.results_bucket}) {
    const Status created = env_->s3().CreateBucket(bucket);
    if (!created.ok() && !created.IsAlreadyExists()) return created;
  }
  WEBDEX_ASSIGN_OR_RETURN(
      std::vector<std::string> uris,
      env_->s3().List(front_end_, config_.data_bucket, ""));
  document_uris_ = std::move(uris);
  registered_uris_ =
      std::set<std::string>(document_uris_.begin(), document_uris_.end());
  data_bytes_ = env_->s3().BucketBytes(config_.data_bucket);
  if (config_.use_index) {
    auto& store = index_store();
    if (store.HasTable(index::kMetaTable)) {
      // Rebuild the generation view from the durable meta table (billed
      // scan).  A delete whose task died after the tombstone but before
      // the S3 unlink leaves the object listed above — drop such URIs
      // from the registry so a restored facade never resurrects them.
      WEBDEX_ASSIGN_OR_RETURN(std::vector<cloud::Item> rows,
                              store.Scan(front_end_, index::kMetaTable));
      auto rebuilt = std::make_shared<index::GenerationMap>();
      for (const auto& row : rows) index::ApplyMetaItem(row, rebuilt.get());
      std::vector<std::string> dead;
      for (const auto& [uri, info] : rebuilt->entries()) {
        if (info.tombstoned) dead.push_back(uri);
      }
      for (const auto& uri : dead) UnregisterDocument(uri);
      std::lock_guard<std::mutex> lock(generations_mu_);
      generations_ = std::move(rebuilt);
    } else {
      // Pre-mutability snapshot: create the meta table so mutations work.
      const Status created = store.CreateTable(front_end_, index::kMetaTable);
      if (!created.ok() && !created.IsAlreadyExists()) return created;
    }
  }
  // Queues are ephemeral (not part of snapshots): create them if absent.
  for (const auto& queue : {config_.loader_queue, config_.query_queue,
                            config_.response_queue,
                            config_.dead_letter_queue}) {
    if (queue.empty()) continue;
    const Status created = env_->sqs().CreateQueue(queue);
    if (!created.ok() && !created.IsAlreadyExists()) return created;
  }
  return Status::OK();
}

Status Warehouse::SubmitDocument(const std::string& uri,
                                 std::string xml_text) {
  if (config_.use_index && registered_uris_.count(uri) > 0) {
    // Re-submission replaces the document; only the generation machinery
    // keeps readers consistent through that, so route through it.
    return UpsertDocument(uri, std::move(xml_text));
  }
  data_bytes_ += xml_text.size();
  WEBDEX_RETURN_IF_ERROR(
      RetryCall(front_end_, "fe.put", [&] {
        return env_->s3().Put(front_end_, config_.data_bucket, uri, xml_text);
      }));
  document_uris_.push_back(uri);
  registered_uris_.insert(uri);
  if (config_.use_index) {
    LoadRequest request{uri};
    WEBDEX_RETURN_IF_ERROR(RetryCall(front_end_, "fe.load", [&] {
      return env_->sqs().Send(front_end_, config_.loader_queue,
                              request.Serialize());
    }));
  }
  return Status::OK();
}

Status Warehouse::UpsertDocument(const std::string& uri,
                                 std::string xml_text) {
  if (!config_.use_index) {
    return Status::FailedPrecondition(
        "document mutation requires an indexed warehouse");
  }
  WEBDEX_RETURN_IF_ERROR(
      RetryCall(front_end_, "fe.put", [&] {
        return env_->s3().Put(front_end_, config_.data_bucket, uri, xml_text);
      }));
  // Replacement may shrink or grow the stored object; re-read the
  // bucket's authoritative size instead of accumulating deltas.
  data_bytes_ = env_->s3().BucketBytes(config_.data_bucket);
  if (registered_uris_.insert(uri).second) document_uris_.push_back(uri);
  LoadRequest request{uri};
  request.op = LoadOp::kUpsert;
  request.generation = AllocateGeneration();
  WEBDEX_RETURN_IF_ERROR(RetryCall(front_end_, "fe.load", [&] {
    return env_->sqs().Send(front_end_, config_.loader_queue,
                            request.Serialize());
  }));
  return Status::OK();
}

Status Warehouse::DeleteDocument(const std::string& uri) {
  if (!config_.use_index) {
    return Status::FailedPrecondition(
        "document mutation requires an indexed warehouse");
  }
  if (registered_uris_.count(uri) == 0) {
    return Status::NotFound("no such document: " + uri);
  }
  LoadRequest request{uri};
  request.op = LoadOp::kDelete;
  request.generation = AllocateGeneration();
  WEBDEX_RETURN_IF_ERROR(RetryCall(front_end_, "fe.load", [&] {
    return env_->sqs().Send(front_end_, config_.loader_queue,
                            request.Serialize());
  }));
  return Status::OK();
}

uint64_t Warehouse::AllocateGeneration() {
  return ++env_->maintenance().generation_watermark;
}

std::shared_ptr<const index::GenerationMap> Warehouse::GenerationSnapshot()
    const {
  std::lock_guard<std::mutex> lock(generations_mu_);
  return generations_;
}

void Warehouse::CommitGeneration(const std::string& uri, uint64_t generation,
                                 bool tombstoned) {
  std::lock_guard<std::mutex> lock(generations_mu_);
  auto next = std::make_shared<index::GenerationMap>(*generations_);
  next->Apply(uri, generation, tombstoned);
  generations_ = std::move(next);
}

void Warehouse::EraseGeneration(const std::string& uri) {
  std::lock_guard<std::mutex> lock(generations_mu_);
  auto next = std::make_shared<index::GenerationMap>(*generations_);
  next->Erase(uri);
  generations_ = std::move(next);
}

void Warehouse::UnregisterDocument(const std::string& uri) {
  if (registered_uris_.erase(uri) == 0) return;
  document_uris_.erase(
      std::remove(document_uris_.begin(), document_uris_.end(), uri),
      document_uris_.end());
}

Warehouse::TaskOutcome Warehouse::FailedWith(const Status& status) {
  return status.IsRetriable() ? TaskOutcome::kAbandon : TaskOutcome::kPoison;
}

template <typename Body>
WorkerStep Warehouse::RunTask(Instance& instance, const TaskQueue& task,
                              IndexingRunReport* report, const Body& body) {
  auto& sqs = env_->sqs();
  auto received = sqs.Receive(instance, task.queue);
  if (!received.ok() || !received.value().has_value()) {
    WorkerStep idle;
    if (!sqs.Drained(task.queue)) {
      auto next = sqs.NextDeliverableAt(task.queue);
      idle.retry_at = next.has_value() ? *next : -1;
    }
    return idle;
  }
  const cloud::ReceivedMessage& msg = **received;
  const WorkerStep processed{/*processed=*/true};
  // One span per delivered task (redeliveries are separate spans: each
  // one bills its own requests and VM time).
  cloud::MeteredSpan task_span(&env_->tracer(), &env_->meter(), instance,
                               task.span);
  task_span.AddAttr("delivery", msg.delivery_count);
  if (report != nullptr && msg.delivery_count > 1) report->redeliveries += 1;
  const int max_deliveries = config_.max_deliveries;  // <= 0: never
  if (max_deliveries > 0 && msg.delivery_count > max_deliveries) {
    // Dead-letter: a task that keeps coming back is dropped so one poison
    // message cannot wedge the fleet forever.  The message is parked on
    // the dead-letter queue (tagged with its origin) for later
    // inspection or re-drive (DrainDeadLetters).
    env_->meter().mutable_usage().dead_lettered += 1;
    if (report != nullptr) report->dead_lettered += 1;
    if (!config_.dead_letter_queue.empty()) {
      (void)RetryCall(instance, task.dlq_site, [&] {
        return sqs.Send(instance, config_.dead_letter_queue,
                        task.queue + "\n" + msg.body);
      });
    }
    (void)sqs.Delete(instance, task.queue, msg.receipt);
    return processed;
  }
  const TaskOutcome outcome = body(msg, task_span);
  // An instance that crashed mid-task does nothing more.  Otherwise fault
  // injection may crash it here, losing the delete: the message lease
  // expires and another instance redoes the work (Section 3).  A
  // transient failure the retry policy could not absorb keeps the
  // message in flight the same way, so the task is redelivered.
  if (outcome == TaskOutcome::kCrashed ||
      ShouldCrash(cloud::CrashPoint::kBeforeDelete, instance.id(),
                  msg.body) ||
      outcome == TaskOutcome::kAbandon) {
    return processed;
  }
  // Completed and malformed tasks are both acknowledged (the latter is
  // poison-pill removal).
  (void)RetryCall(instance, task.ack_site, [&] {
    return sqs.Delete(instance, task.queue, msg.receipt);
  });
  return processed;
}

Warehouse::TaskOutcome Warehouse::PutMetaRow(Instance& instance,
                                             const LoadRequest& request) {
  const cloud::Item row =
      index::MakeMetaItem(request.uri, request.generation,
                          /*tombstoned=*/request.op == LoadOp::kDelete);
  const Status put =
      index_store().BatchPut(instance, index::kMetaTable, {&row, 1});
  return put.ok() ? TaskOutcome::kOk : FailedWith(put);
}

Warehouse::TaskOutcome Warehouse::IndexerStep(
    Instance& instance, const cloud::ReceivedMessage& msg,
    ExtractionPipeline* pipeline, IndexingRunReport* report) {
  Micros lease_anchor = instance.now();

  // Phase 1: fetch, parse, extract ("extraction time" in Table 4).  The
  // simulated fetch (billed, latency-charged) always happens here on the
  // event loop; the host CPU of parse + extract may already have been
  // spent by the pipeline, in which case its memoized result is charged
  // to this instance's virtual clock exactly as if computed inline.
  const Micros extract_start = instance.now();
  cloud::MeteredSpan extract_span(&env_->tracer(), &env_->meter(), instance,
                                  "extract");
  auto request = LoadRequest::Parse(msg.body);
  // A malformed message is deleted rather than redelivered forever;
  // a transiently failing one is abandoned so its lease expires and the
  // task is redone (docs/FAULTS.md).
  TaskOutcome outcome = request.ok() ? TaskOutcome::kOk : TaskOutcome::kPoison;
  // Deletes skip the extract and upload phases entirely: the work is a
  // tombstone meta row plus an object unlink (docs/MUTABILITY.md).
  const bool is_delete =
      request.ok() && request.value().op == LoadOp::kDelete;
  std::shared_ptr<const ExtractionResult> extraction;
  if (outcome == TaskOutcome::kOk && !is_delete) {
    auto text = RetryCall(instance, "ix.fetch", [&] {
      return env_->s3().Get(instance, config_.data_bucket,
                            request.value().uri);
    });
    if (!text.ok()) {
      outcome = FailedWith(text.status());
    } else {
      const std::string& xml_text = text.value();
      const auto& work = instance.work();
      // Parsing and entry extraction are multi-threaded inside one
      // instance (Section 3, intra-machine parallelism).
      instance.ChargeParallelWork(work.parse_per_byte *
                                  static_cast<double>(xml_text.size()));
      if (pipeline != nullptr) {
        extraction = pipeline->Take(request.value().uri,
                                    request.value().generation);
      }
      if (extraction == nullptr || extraction->status.IsNotFound()) {
        // Not prefetched (or the speculative read missed the object):
        // run the identical extraction inline on this thread.  Upserts
        // extract at their allocated generation so the new postings are
        // stamped and drawn from the generation's own UUID stream.
        index::ExtractOptions options = config_.extract;
        options.generation = request.value().generation;
        extraction = std::make_shared<const ExtractionResult>(
            ExtractionPipeline::ExtractNow(request.value().uri, xml_text,
                                           *strategy_, options,
                                           index_store(),
                                           env_->config().seed));
      }
      if (extraction->status.ok()) {
        instance.ChargeParallelWork(
            work.extract_per_entry *
                static_cast<double>(extraction->stats.entries) +
            work.extract_per_byte *
                static_cast<double>(extraction->stats.payload_bytes));
        // Share the parsed DOM with the query phase's host-side cache.
        doc_cache_.Put(request.value().uri, extraction->doc);
      } else {
        outcome = TaskOutcome::kPoison;  // malformed document
      }
    }
  }
  extract_span.End();
  report->extraction_micros += instance.now() - extract_start;
  MaybeRenewLease(instance, config_.loader_queue, msg.receipt,
                  &lease_anchor);

  // Phase 2: upload to the index store ("uploading time").
  const Micros upload_start = instance.now();
  cloud::MeteredSpan upload_span(&env_->tracer(), &env_->meter(), instance,
                                 "upload");
  if (outcome == TaskOutcome::kOk && !is_delete) {
    const cloud::Usage before = env_->meter().Snapshot();
    for (const auto& batch : extraction->items) {
      instance.ChargeParallelWork(
          instance.work().kv_encode_per_byte *
          static_cast<double>(extraction->stats.payload_bytes));
      const UploadResult put =
          PutItemsPaged(instance, batch.table, batch.items, msg.body);
      if (put.crashed) {
        // Mid-upload crash: the half-written index is left as is; re-puts
        // on redelivery replace the same (hash, range) keys, so the redone
        // task converges to identical index contents.
        outcome = TaskOutcome::kCrashed;
        break;
      }
      if (!put.status.ok()) {
        outcome = FailedWith(put.status);
        break;
      }
    }
    if (outcome == TaskOutcome::kOk &&
        request.value().op == LoadOp::kUpsert) {
      // Once every posting page has landed, append the generation's meta
      // row — the durable record that makes the new generation the live
      // one for rebuilt readers.  Append-only: a redelivered lower
      // generation can never clobber a higher one.
      outcome = PutMetaRow(instance, request.value());
    }
    const cloud::Usage delta = env_->meter().Snapshot() - before;
    report->index_put_units += delta.ddb_write_units +
                               delta.ddb_ondemand_write_units +
                               delta.sdb_put_requests;
  } else if (outcome == TaskOutcome::kOk && is_delete) {
    // Tombstone only: once it is durable no reader — live or rebuilt
    // from a snapshot — can resurrect the document, wherever the task
    // dies afterwards.  The stale postings stay behind for compaction,
    // and so does the stored object: a queued revival (an UPSERT at a
    // higher generation) may already have re-put it, so reclaiming the
    // storage is compaction's call — made on the *folded* generation
    // state — never this task's.
    outcome = PutMetaRow(instance, request.value());
  }
  upload_span.End();
  report->upload_micros += instance.now() - upload_start;
  MaybeRenewLease(instance, config_.loader_queue, msg.receipt,
                  &lease_anchor);

  if (outcome == TaskOutcome::kOk && is_delete) {
    // Host-side delete commit — all idempotent under redelivery.
    CommitGeneration(request.value().uri, request.value().generation,
                     /*tombstoned=*/true);
    UnregisterDocument(request.value().uri);
    doc_cache_.Erase(request.value().uri);
    env_->meter().mutable_usage().tombstones_written += 1;
  } else if (outcome == TaskOutcome::kOk) {
    report->extract_stats.entries += extraction->stats.entries;
    report->extract_stats.items += extraction->stats.items;
    report->extract_stats.payload_bytes += extraction->stats.payload_bytes;
    report->documents += 1;
    if (request.value().op == LoadOp::kUpsert) {
      // Host-side upsert commit: publish the new generation to readers.
      // The path summary is deliberately left alone — planner statistics
      // go stale under mutation, like a real system's, and are refreshed
      // by compaction-time re-adds only via a fresh facade
      // (docs/MUTABILITY.md).
      CommitGeneration(request.value().uri, request.value().generation,
                       /*tombstoned=*/false);
    } else if (summarized_uris_.insert(request.value().uri).second) {
      // Feed the planner's corpus statistics once per document: a
      // crashed task redone on redelivery must not double-count its
      // paths.
      path_summary_.AddDocument(extraction->doc_index);
    }
  }

  return outcome;
}

Warehouse::UploadResult Warehouse::PutItemsPaged(
    Instance& instance, const std::string& table,
    std::span<const cloud::Item> items, const std::string& task_key) {
  // Paging is externalized from the store (one API call per page) so the
  // engine can crash *between* pages, leaving a half-written index that
  // the redelivered task must converge despite.  Fault-free, the billed
  // sequence is bit-identical to the store's internal paging.
  auto& store = index_store();
  const size_t limit = static_cast<size_t>(store.Limits().batch_put);
  size_t index = 0;
  while (index < items.size()) {
    const size_t end = std::min(items.size(), index + limit);
    if (index > 0 && ShouldCrash(cloud::CrashPoint::kBetweenBatchPutPages,
                                 instance.id(), task_key)) {
      return UploadResult{Status::OK(), /*crashed=*/true};
    }
    const Status put =
        store.BatchPut(instance, table, items.subspan(index, end - index));
    if (!put.ok()) return UploadResult{put, /*crashed=*/false};
    index = end;
  }
  return UploadResult{Status::OK(), /*crashed=*/false};
}

void Warehouse::MaybeRenewLease(Instance& instance,
                                const std::string& queue, uint64_t receipt,
                                Micros* lease_anchor) {
  // The simulated tasks are atomic, so renewal happens at the tasks'
  // natural phase boundaries; a real deployment renews from a heartbeat
  // thread — the observable protocol (extra SQS requests, extended
  // visibility) is the same.  Renewing every quarter-timeout keeps a
  // comfortable safety margin for the following phase.
  const Micros timeout = env_->config().sqs.visibility_timeout;
  if (instance.now() - *lease_anchor >= timeout / 4) {
    if (env_->sqs().RenewLease(instance, queue, receipt).ok()) {
      *lease_anchor = instance.now();
    }
  }
}

int Warehouse::ResolvedHostThreads() const {
  if (config_.host_threads > 0) return config_.host_threads;
  return common::ThreadPool::HardwareThreads();
}

Result<IndexingRunReport> Warehouse::RunIndexers() {
  if (!config_.use_index) {
    return Status::FailedPrecondition(
        "warehouse configured without an index");
  }
  IndexingRunReport report;

  // Speculative host parallelism: peek the pending loader requests and
  // start fetch-parse-extract for each document on the pool now; the
  // event loop below collects the memoized results as its virtual clocks
  // reach the corresponding deliveries.  With host_threads == 1 the
  // legacy serial path runs the identical extraction inline.
  const int host_threads = ResolvedHostThreads();
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<ExtractionPipeline> pipeline;
  if (host_threads > 1) {
    pool = std::make_unique<common::ThreadPool>(host_threads);
    pipeline = std::make_unique<ExtractionPipeline>(
        pool.get(), strategy_.get(), config_.extract, &index_store(),
        &env_->s3(), config_.data_bucket, env_->config().seed);
    for (const auto& body : env_->sqs().PeekBodies(config_.loader_queue)) {
      auto request = LoadRequest::Parse(body);
      if (request.ok() && request.value().op != LoadOp::kDelete) {
        pipeline->Prefetch(request.value().uri, request.value().generation);
      }
    }
  }

  // Root span of the run: its usage delta includes the fleet's rented VM
  // time billed below, so the rolled-up cost is the whole run's bill.
  cloud::MeteredSpan run_span(&env_->tracer(), &env_->meter(), front_end_,
                              "index.run");
  cluster_.SyncClocks(front_end_.now());
  report.makespan = cluster_.RunUntilDrained(
      [this, &report, &pipeline](Instance& instance) {
        // Extraction-pipeline backpressure (docs/OVERLOAD.md): a deep
        // loader queue plus fresh organic throttles means the index store
        // is already shedding — defer this poll so in-flight retries pace
        // out instead of piling more writes on.
        const Micros backoff = admission_.IndexerBackoff(
            instance.now(), env_->sqs().Count(config_.loader_queue),
            env_->meter().usage().throttled_requests);
        if (backoff > 0) return WorkerStep{false, instance.now() + backoff};
        return RunTask(
            instance,
            {config_.loader_queue, "index.task", "ix.dlq", "ix.ack"},
            &report,
            [&](const cloud::ReceivedMessage& msg, cloud::MeteredSpan&) {
              return IndexerStep(instance, msg, pipeline.get(), &report);
            });
      },
      front_end_.now());
  // Bill the fleet's rented time.
  for (auto& inst : cluster_.instances()) {
    env_->meter().AddVmTime(config_.instance_type,
                            inst->now() - front_end_.now());
  }
  front_end_.AdvanceTo(cluster_.MaxClock());
  run_span.AddAttr("documents", static_cast<double>(report.documents));
  run_span.AddAttr("makespan_us", static_cast<double>(report.makespan));
  // Snapshot the interner after the fleet drains: pooled extraction
  // threads are joined, so this runs on the event-loop thread as the
  // MetricRegistry contract requires.
  index::PublishInternMetrics(&env_->metrics());
  return report;
}

QueryPlanner Warehouse::MakePlanner() {
  QueryPlanner::Context context;
  context.store = &index_store();
  context.breaker = &env_->breaker();
  context.strategy = config_.strategy;
  context.options = config_.extract;
  context.document_uris = &document_uris_;
  context.force = config_.planner_force;
  context.use_index = config_.use_index;
  context.stats.summary = &path_summary_;
  context.stats.documents = document_uris_.size();
  context.stats.data_bytes = data_bytes_;
  // Pin the generation view into the plan: every access path built from
  // it reads each document at exactly this generation.
  context.stats.generations = GenerationSnapshot();
  context.stats.work = &env_->config().work;
  context.stats.deployment = &env_->deployment();
  context.stats.spec = cloud::SpecFor(config_.instance_type);
  context.stats.vm_usd_per_hour =
      env_->meter().pricing().VmHour(config_.instance_type);
  if (config_.backend == IndexBackend::kSimpleDb) {
    context.stats.billing = cost::IndexBilling::kBoxUsage;
    context.stats.min_read_bytes = 0;
  } else {
    context.stats.billing = cost::IndexBilling::kReadUnits;
    context.stats.min_read_bytes = cloud::DynamoDb::kMinReadBytes;
  }
  return QueryPlanner(std::move(context));
}

Result<std::string> Warehouse::ExplainQuery(const std::string& query_text) {
  WEBDEX_ASSIGN_OR_RETURN(query::Query parsed, query::ParseQuery(query_text));
  const query::LogicalPlan logical =
      query::LogicalPlan::Build(std::move(parsed));
  const QueryPlanner planner = MakePlanner();
  const PhysicalPlan plan =
      planner.Plan(logical, cost_model_, front_end_.now());
  return logical.ToString() + plan.ToString();
}

Warehouse::TaskOutcome Warehouse::QueryStep(
    Instance& instance, const cloud::ReceivedMessage& msg,
    cloud::MeteredSpan& task_span,
    std::map<uint64_t, QueryOutcome>* outcomes) {
  Micros lease_anchor = instance.now();
  auto request = QueryRequest::Parse(msg.body);
  if (!request.ok()) return TaskOutcome::kPoison;
  task_span.AddAttr("query_id", static_cast<double>(request.value().id));
  // Admission gate (docs/OVERLOAD.md): may defer (advancing this
  // instance's virtual clock within the deadline budget) or shed.  A
  // shed query does zero index/file-store work — only the SQS response
  // below is billed — and the front end learns its fate immediately.
  const AdmissionDecision decision = admission_.Admit(
      instance, request.value().tenant, request.value().id);
  const Micros admitted_at = instance.now();
  const uint64_t throttles_before = env_->meter().usage().throttled_requests;
  QueryOutcome outcome;
  if (decision.admitted) {
    // The query itself runs in the QueryExecutor layer
    // (engine/query_executor.h); the lease renews across its phases.
    const Status processed = QueryExecutor(this).Run(
        instance, request.value(), msg.receipt, &lease_anchor, &outcome);
    admission_.OnCompleted(
        admitted_at, instance.now(),
        env_->meter().usage().throttled_requests > throttles_before);
    if (!processed.ok()) return FailedWith(processed);
  } else {
    task_span.AddAttr("shed", 1);
    outcome.id = request.value().id;
    outcome.query_text = request.value().query_text;
    outcome.shed = true;
  }
  outcome.tenant = request.value().tenant;
  QueryResponse response;
  response.id = request.value().id;
  response.shed = outcome.shed;
  if (!outcome.shed) {
    response.result_key =
        StrFormat("result-%llu.xml",
                  static_cast<unsigned long long>(request.value().id));
    response.row_count = outcome.result.rows.size();
  }
  cloud::MeteredSpan respond_span(&env_->tracer(), &env_->meter(), instance,
                                  "respond");
  const Status sent = RetryCall(instance, "qp.respond", [&] {
    return env_->sqs().Send(instance, config_.response_queue,
                            response.Serialize());
  });
  respond_span.End();
  // A response that never reached the front end redoes the whole task on
  // redelivery (a duplicate response later is harmless — the front end
  // dedups by query id).
  if (!sent.ok()) return FailedWith(sent);
  (*outcomes)[outcome.id] = std::move(outcome);
  return TaskOutcome::kOk;
}

Result<QueryRunReport> Warehouse::ExecuteQueries(
    const std::vector<std::string>& queries) {
  std::vector<TenantQuery> tagged;
  tagged.reserve(queries.size());
  for (const auto& text : queries) tagged.push_back(TenantQuery{"", text});
  return ExecuteQueries(tagged);
}

Result<QueryRunReport> Warehouse::ExecuteQueries(
    const std::vector<TenantQuery>& queries) {
  const cloud::Usage run_start = env_->meter().Snapshot();
  cloud::MeteredSpan run_span(&env_->tracer(), &env_->meter(), front_end_,
                              "query.run");
  run_span.AddAttr("queries", static_cast<double>(queries.size()));
  std::vector<uint64_t> ids;
  {
    cloud::MeteredSpan submit_span(&env_->tracer(), &env_->meter(),
                                   front_end_, "submit");
    for (const auto& query : queries) {
      QueryRequest request;
      request.id = next_query_id_++;
      request.query_text = query.text;
      request.tenant = query.tenant;
      ids.push_back(request.id);
      WEBDEX_RETURN_IF_ERROR(RetryCall(front_end_, "fe.query", [&] {
        return env_->sqs().Send(front_end_, config_.query_queue,
                                request.Serialize());
      }));
    }
  }

  std::map<uint64_t, QueryOutcome> outcomes;
  cluster_.SyncClocks(front_end_.now());
  const Micros makespan = cluster_.RunUntilDrained(
      [this, &outcomes](Instance& instance) {
        return RunTask(
            instance, {config_.query_queue, "query", "qp.dlq", "qp.ack"},
            /*report=*/nullptr,
            [&](const cloud::ReceivedMessage& msg,
                cloud::MeteredSpan& task_span) {
              return QueryStep(instance, msg, task_span, &outcomes);
            });
      },
      front_end_.now());
  for (auto& inst : cluster_.instances()) {
    env_->meter().AddVmTime(config_.instance_type,
                            inst->now() - front_end_.now());
  }
  front_end_.AdvanceTo(cluster_.MaxClock());

  // Retrieve every response and its result object (steps 16-18); the
  // transfer out of the cloud is the billed egress ("AWSDown").  Under
  // fault injection a response may be delayed (wait for it), duplicated
  // (dedup by query id), or its delete may fail (the redelivered copy is
  // processed again — still one id).
  QueryRunReport report;
  report.makespan = makespan;
  cloud::MeteredSpan collect_span(&env_->tracer(), &env_->meter(),
                                  front_end_, "collect");
  std::set<uint64_t> responded;
  while (responded.size() < ids.size()) {
    auto received = RetryCall(front_end_, "fe.receive", [&] {
      return env_->sqs().Receive(front_end_, config_.response_queue);
    });
    if (!received.ok()) return received.status();
    if (!received.value().has_value()) {
      auto next = env_->sqs().NextDeliverableAt(config_.response_queue);
      if (!next.has_value()) {
        // The queue is drained for good: some query never produced a
        // response (e.g. its task was dead-lettered).
        return Status::IOError("missing query response");
      }
      front_end_.AdvanceTo(*next);
      continue;
    }
    WEBDEX_ASSIGN_OR_RETURN(QueryResponse response,
                            QueryResponse::Parse(received.value()->body));
    // A shed response names no result object: nothing to fetch, no
    // egress — the typed rejection is the whole answer.
    if (!response.shed) {
      WEBDEX_ASSIGN_OR_RETURN(
          std::string result_xml,
          RetryCall(front_end_, "fe.result", [&] {
            return env_->s3().Get(front_end_, config_.results_bucket,
                                  response.result_key);
          }));
      env_->meter().AddEgress(result_xml.size());
    }
    // A stale receipt (expired lease or injected duplicate) just means
    // the response comes around again; it is deduped by id above.
    (void)RetryCall(front_end_, "fe.ack", [&] {
      return env_->sqs().Delete(front_end_, config_.response_queue,
                                received.value()->receipt);
    });
    responded.insert(response.id);
  }
  collect_span.End();
  for (uint64_t id : ids) {
    auto it = outcomes.find(id);
    if (it == outcomes.end()) {
      return Status::IOError(
          StrFormat("no outcome recorded for query %llu",
                    static_cast<unsigned long long>(id)));
    }
    report.planner_fallbacks +=
        static_cast<uint64_t>(it->second.planner_fallbacks);
    if (it->second.shed) report.shed_queries += 1;
    report.outcomes.push_back(std::move(it->second));
  }
  const cloud::Usage run_delta = env_->meter().Snapshot() - run_start;
  report.degraded_queries = run_delta.degraded_queries;
  report.breaker_opens = run_delta.breaker_opens;
  return report;
}

Result<ScrubReport> Warehouse::Scrub(bool repair) {
  if (!config_.use_index) {
    return Status::FailedPrecondition(
        "scrubbing requires an indexed warehouse");
  }
  cloud::MeteredSpan pass_span(&env_->tracer(), &env_->meter(), front_end_,
                               "scrub.pass");
  pass_span.AddAttr("repair", repair ? 1 : 0);
  env_->metrics().GetCounter("engine.scrub.passes.count")->Add(1);
  return maintainer_->Scrub(front_end_, repair, *GenerationSnapshot());
}

Result<CompactReport> Warehouse::Compact(bool full) {
  if (!config_.use_index) {
    return Status::FailedPrecondition(
        "compaction requires an indexed warehouse");
  }
  cloud::MeteredSpan pass_span(&env_->tracer(), &env_->meter(), front_end_,
                               "compact.pass");
  pass_span.AddAttr("full", full ? 1 : 0);
  env_->metrics().GetCounter("index.compact.passes.count")->Add(1);
  // Resume from the durable cursor: a pass killed by a planned crash —
  // even one restored from a snapshot since — continues at the URI
  // boundary it checkpointed instead of restarting.
  std::string cursor = env_->maintenance().compact_cursor;
  pass_span.AddAttr("resumed", cursor.empty() ? 0 : 1);
  auto should_crash = [this](const std::string& uri) {
    return ShouldCrash(cloud::CrashPoint::kMidCompaction, /*instance_id=*/0,
                       uri);
  };
  // A sub-pass cut short by transient-fault exhaustion (the store's own
  // retries gave up) is backed off and resumed from its cursor:
  // compaction inherits the pipeline's at-least-once posture instead of
  // failing on the first bad fault window.  Only a planned crash or a
  // non-retriable error ends the loop early.
  common::RetryPolicy sub_passes = config_.retry;
  sub_passes.max_attempts = 8;
  sub_passes.deadline_micros = 0;
  Rng backoff_rng = Rng::ForKey(env_->config().seed, "wh:compact.backoff");
  CompactReport report;
  const Status pass_error = common::CallWithRetry(
      sub_passes, backoff_rng,
      [&]() -> Status {
        // A failed sub-pass faulted out of its opening scans before any
        // URI work, so the cursor stays put.
        WEBDEX_ASSIGN_OR_RETURN(
            CompactReport sub,
            maintainer_->Compact(front_end_, full, cursor, should_crash));
        report.documents_checked += sub.documents_checked;
        report.items_scanned += sub.items_scanned;
        report.items_put += sub.items_put;
        report.items_deleted += sub.items_deleted;
        for (auto& uri : sub.canonicalized_uris) {
          report.canonicalized_uris.push_back(std::move(uri));
        }
        for (auto& uri : sub.collected_uris) {
          report.collected_uris.push_back(std::move(uri));
        }
        report.crashed = sub.crashed;
        report.faulted = sub.faulted;
        report.fault = sub.fault;
        cursor = report.resume_cursor = sub.resume_cursor;
        return sub.faulted ? sub.fault : Status::OK();
      },
      [this](int64_t micros) {
        front_end_.Advance(static_cast<cloud::Micros>(micros));
      });
  // Even a pass that ultimately gave up commits what its sub-passes
  // completed — the cloud-side rows are already folded, so the in-memory
  // view and the cursor must follow.
  env_->maintenance().compact_cursor = (report.crashed || !pass_error.ok())
                                           ? report.resume_cursor
                                           : std::string();
  // Host-side commit: fully folded URIs leave the generation view — a
  // canonicalized document is back at generation 0, a collected one is
  // gone entirely.
  for (const auto& uri : report.canonicalized_uris) EraseGeneration(uri);
  for (const auto& uri : report.collected_uris) EraseGeneration(uri);
  // Collected tombstones reclaimed their stored objects (the delete task
  // itself never unlinks — docs/MUTABILITY.md).
  data_bytes_ = env_->s3().BucketBytes(config_.data_bucket);
  env_->metrics()
      .GetCounter("index.compact.canonicalized.count")
      ->Add(report.canonicalized_uris.size());
  env_->metrics()
      .GetCounter("index.tombstone.collected.count")
      ->Add(report.collected_uris.size());
  WEBDEX_RETURN_IF_ERROR(pass_error);
  return report;
}

Result<uint64_t> Warehouse::DrainDeadLetters() {
  if (config_.dead_letter_queue.empty()) return uint64_t{0};
  auto& sqs = env_->sqs();
  uint64_t drained = 0;
  while (true) {
    auto received = RetryCall(front_end_, "fe.dlq", [&] {
      return sqs.Receive(front_end_, config_.dead_letter_queue);
    });
    if (!received.ok()) return received.status();
    if (!received.value().has_value()) {
      if (sqs.Drained(config_.dead_letter_queue)) break;
      auto next = sqs.NextDeliverableAt(config_.dead_letter_queue);
      if (!next.has_value()) break;
      front_end_.AdvanceTo(*next);
      continue;
    }
    const cloud::ReceivedMessage& msg = **received;
    // Messages are parked as "<origin-queue>\n<original body>".
    const size_t split = msg.body.find('\n');
    if (split != std::string::npos) {
      const std::string origin = msg.body.substr(0, split);
      WEBDEX_RETURN_IF_ERROR(RetryCall(front_end_, "fe.requeue", [&] {
        return sqs.Send(front_end_, origin, msg.body.substr(split + 1));
      }));
      drained += 1;
    }
    // An unparseable parked message is dropped for good: re-driving it
    // anywhere would only dead-letter it again.
    (void)RetryCall(front_end_, "fe.dlq.ack", [&] {
      return sqs.Delete(front_end_, config_.dead_letter_queue, msg.receipt);
    });
  }
  return drained;
}

Result<QueryOutcome> Warehouse::ExecuteQuery(const std::string& query_text) {
  WEBDEX_ASSIGN_OR_RETURN(QueryRunReport report,
                          ExecuteQueries({query_text}));
  return std::move(report.outcomes.front());
}

std::shared_ptr<const xml::Document> Warehouse::DocCache::Get(
    const std::string& uri) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(uri);
  return it == cache_.end() ? nullptr : it->second;
}

void Warehouse::DocCache::Put(const std::string& uri,
                              std::shared_ptr<const xml::Document> doc) {
  if (doc == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Assign, not emplace: an upsert must replace the cached DOM, or
  // queries would keep evaluating the superseded version from cache.
  cache_[uri] = std::move(doc);
}

void Warehouse::DocCache::Erase(const std::string& uri) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.erase(uri);
}

uint64_t Warehouse::IndexRawBytes() const {
  uint64_t total = 0;
  for (const auto& table : strategy_->TableNames()) {
    total += index_store_->StoredBytes(table);
  }
  return total;
}

uint64_t Warehouse::IndexOverheadBytes() const {
  uint64_t total = 0;
  for (const auto& table : strategy_->TableNames()) {
    total += index_store_->OverheadBytes(table);
  }
  return total;
}

}  // namespace webdex::engine
