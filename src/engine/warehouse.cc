#include "engine/warehouse.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <set>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
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
      admission_(config.admission, env->meter(), env->metrics(),
                 env->tracer()),
      strategy_(index::IndexingStrategy::Create(config.strategy)),
      cost_model_(env->meter().pricing()),
      retrying_store_(std::make_unique<cloud::RetryingKvStore>(
          config.backend == IndexBackend::kSimpleDb
              ? static_cast<cloud::KvStore*>(&env->simpledb())
              : &env->dynamodb(),
          config.retry, env->config().seed, env->meter(), env->breaker(),
          env->metrics(), env->tracer())),
      cluster_(config.num_instances, config.instance_type,
               &env->config().work),
      retrier_(config.retry, env->config().seed, env->meter(), env->breaker(),
               env->metrics(), env->tracer()) {
  // Deployment decorators (docs/ARCHITECTURES.md), constructed only when
  // the architecture asks for them so the default deployment's stack —
  // and with it every byte of its runs — is unchanged.
  cloud::Deployment& deployment = env->deployment();
  cloud::KvStore* top = retrying_store_.get();
  if (deployment.replicated()) {
    replicated_store_ = std::make_unique<cloud::ReplicatedKvStore>(
        top, deployment, env->meter(), env->metrics(), env->tracer());
    top = replicated_store_.get();
  }
  if (deployment.sharded()) {
    sharded_store_ = std::make_unique<cloud::ShardedKvStore>(
        top, deployment, env->meter(), env->metrics(), env->tracer());
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
  documents_ = other.documents_;
  next_query_id_ = other.next_query_id_;
  // The planner statistics travel with the data: the new fleet prices
  // access paths against the same corpus the old fleet indexed.
  path_summary_ = other.path_summary_;
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
  for (const auto& uri : uris) documents_.SetLive(uri, true);
  if (config_.use_index) {
    auto& store = index_store();
    if (store.HasTable(index::kMetaTable)) {
      // Rebuild the generation view from the durable meta table (billed
      // scan).  A tombstoned document's object stays listed above until
      // compaction collects it — mark such URIs dead so a restored facade
      // never resurrects them.
      auto rebuilt = std::make_shared<index::GenerationMap>();
      WEBDEX_RETURN_IF_ERROR(store.Scan(
          front_end_, index::kMetaTable, [&](const cloud::ItemView& row) {
            index::ApplyMetaItem(row, rebuilt.get());
          }));
      for (const auto& [uri, info] : rebuilt->entries()) {
        if (info.tombstoned) documents_.SetLive(uri, false);
      }
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

Status Warehouse::PutDocumentObject(const std::string& uri,
                                    const std::string& xml_text) {
  WEBDEX_RETURN_IF_ERROR(
      RetryCall(front_end_, "fe.put", [&] {
        return env_->s3().Put(front_end_, config_.data_bucket, uri, xml_text);
      }));
  // A query fetches (and bills) the object just stored, so it must not
  // evaluate a DOM cached from the bytes this put replaced.
  doc_cache_.Erase(uri);
  return Status::OK();
}

Status Warehouse::SubmitDocument(const std::string& uri,
                                 std::string xml_text) {
  if (documents_.entries.count(uri) > 0) {
    // Re-submission replaces the document.  With an index only the
    // generation machinery keeps readers consistent through that, so
    // route through it; without one the stored object is all there is.
    if (config_.use_index) return UpsertDocument(uri, std::move(xml_text));
    return PutDocumentObject(uri, xml_text);
  }
  WEBDEX_RETURN_IF_ERROR(PutDocumentObject(uri, xml_text));
  documents_.SetLive(uri, true);
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
  WEBDEX_RETURN_IF_ERROR(PutDocumentObject(uri, xml_text));
  documents_.SetLive(uri, true);
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
  const auto entry = documents_.entries.find(uri);
  if (entry == documents_.entries.end() || !entry->second.live) {
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
  // A delete committing after a higher-generation revival leaves the
  // document live, and vice versa.
  documents_.SetLive(uri, !next->Find(uri)->tombstoned);
  generations_ = std::move(next);
}

void Warehouse::EraseGeneration(const std::string& uri) {
  std::lock_guard<std::mutex> lock(generations_mu_);
  auto next = std::make_shared<index::GenerationMap>(*generations_);
  next->Erase(uri);
  generations_ = std::move(next);
}

void Warehouse::DocumentRegistry::SetLive(const std::string& uri,
                                          bool is_live) {
  bool& entry_live = entries[uri].live;
  live = live - entry_live + is_live;
  entry_live = is_live;
}

std::vector<std::string> Warehouse::document_uris() const {
  std::vector<std::string> uris;
  uris.reserve(documents_.live);
  for (const auto& [uri, entry] : documents_.entries) {
    if (entry.live) uris.push_back(uri);
  }
  return uris;
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
  cloud::MeteredSpan task_span(env_->tracer(), env_->meter(), instance,
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
  if (outcome == TaskOutcome::kPoison && report != nullptr) {
    report->poisoned += 1;
  }
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
  const cloud::ItemView view = row;
  const Status put =
      index_store().BatchPutViews(instance, index::kMetaTable, {&view, 1});
  return put.ok() ? TaskOutcome::kOk : FailedWith(put);
}

Warehouse::TaskOutcome Warehouse::IndexerStep(
    Instance& instance, const cloud::ReceivedMessage& msg,
    ExtractionPipeline* pipeline, IndexingRunReport* report) {
  Micros lease_anchor = instance.now();

  // Phase 1: fetch, parse, extract ("extraction time" in Table 4).  The
  // simulated fetch (billed, latency-charged) always happens here on the
  // event loop; the host CPU of parse + extract may already have been
  // spent by the pipeline, in which case its prefetched result is charged
  // to this instance's virtual clock exactly as if computed inline.
  const Micros extract_start = instance.now();
  cloud::MeteredSpan extract_span(env_->tracer(), env_->meter(), instance,
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
        // Not prefetched, already released to an earlier delivery, or
        // the speculative read missed the object: run the identical
        // extraction inline on this thread.  Upserts extract at their
        // allocated generation so the new postings are stamped and drawn
        // from the generation's own UUID stream.
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
  cloud::MeteredSpan upload_span(env_->tracer(), env_->meter(), instance,
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
    } else if (!std::exchange(
                   documents_.entries[request.value().uri].summarized, true)) {
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
    std::span<const cloud::ItemView> items, const std::string& task_key) {
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
    const Status put = store.BatchPutViews(instance, table,
                                           items.subspan(index, end - index));
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

  // Speculative host parallelism: queue the pending loader requests in
  // queue order; the pipeline runs fetch-parse-extract for a bounded
  // window of them on the pool, and the event loop below takes each
  // result as its virtual clocks reach the corresponding delivery.  With
  // host_threads == 1 the serial path runs the identical extraction
  // inline.
  const int host_threads = ResolvedHostThreads();
  std::unique_ptr<ExtractionPipeline> pipeline;
  if (host_threads > 1) {
    pipeline = std::make_unique<ExtractionPipeline>(
        &common::ThreadPool::Shared(host_threads), strategy_.get(),
        config_.extract, &index_store(), &env_->s3(), config_.data_bucket,
        env_->config().seed);
    for (const auto& body : env_->sqs().PeekBodies(config_.loader_queue)) {
      auto request = LoadRequest::Parse(body);
      if (request.ok() && request.value().op != LoadOp::kDelete) {
        pipeline->Prefetch(request.value().uri, request.value().generation);
      }
    }
  }

  // Root span of the run: its usage delta includes the fleet's rented VM
  // time billed below, so the rolled-up cost is the whole run's bill.
  cloud::MeteredSpan run_span(env_->tracer(), env_->meter(), front_end_,
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
  // Snapshot the interner once no extraction is in flight: destroying
  // the pipeline waits for its pooled tasks, so this runs on the
  // event-loop thread alone, as the MetricRegistry contract requires.
  pipeline.reset();
  index::PublishInternMetrics(&env_->metrics());
  return report;
}

QueryPlanner Warehouse::MakePlanner() {
  QueryPlanner::Context context;
  context.store = &index_store();
  context.breaker = &env_->breaker();
  context.strategy = config_.strategy;
  context.options = config_.extract;
  context.force = config_.planner_force;
  context.use_index = config_.use_index;
  context.stats.summary = &path_summary_;
  context.stats.documents = documents_.live;
  context.stats.data_bytes = data_bytes();
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

Status Warehouse::LookupCandidates(Instance& instance,
                                   const query::LogicalPlan& logical,
                                   std::vector<std::string>* to_fetch,
                                   QueryOutcome* outcome) {
  const auto& work = instance.work();
  // Planning is host-side arithmetic over the path summary and breaker
  // health: free, instantaneous, nothing billed.
  cloud::MeteredSpan plan_span(env_->tracer(), env_->meter(), instance,
                               "plan");
  const QueryPlanner planner = MakePlanner();
  const PhysicalPlan plan = planner.Plan(logical, cost_model_, instance.now());
  outcome->chosen_path = plan.ChosenDescription();
  outcome->estimated_cost_usd = plan.EstimatedUsd();
  outcome->estimated_requests = plan.EstimatedRequests();
  outcome->planner_fallbacks = plan.planner_fallbacks;
  plan_span.AddAttr("estimated_usd", plan.EstimatedUsd());
  plan_span.End();

  const cloud::Usage before = env_->meter().Snapshot();
  std::vector<std::string> fetch;  // every pattern's URIs, merged below
  index::LookupStats stats;
  const Micros get_start = instance.now();
  bool scanned = false;
  for (const auto& pattern_plan : plan.patterns) {
    const PlannedPath& chosen = pattern_plan.chosen_path();
    // One span per executed access path, named after the path it ran
    // ("path.LUP", "path.2LUPI/lui", "path.scan", ...).
    cloud::MeteredSpan path_span(env_->tracer(), env_->meter(), instance,
                                 std::string("path.") + chosen.name());
    if (!chosen.lookup) {
      scanned = true;
      break;
    }
    index::LookupStats path_stats;
    auto result = planner.Execute(pattern_plan, instance, &path_stats);
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
    std::vector<std::string>& uris = result.value();
    stats += path_stats;
    outcome->docs_from_index += uris.size();
    // Each pattern's URIs are sorted: merge them into the running union.
    const auto middle = static_cast<std::ptrdiff_t>(fetch.size());
    fetch.insert(fetch.end(), std::make_move_iterator(uris.begin()),
                 std::make_move_iterator(uris.end()));
    std::inplace_merge(fetch.begin(), fetch.begin() + middle, fetch.end());
    fetch.erase(std::unique(fetch.begin(), fetch.end()), fetch.end());
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

  const cloud::Usage delta = env_->meter().Snapshot() - before;
  outcome->index_get_units = delta.ddb_read_units +
                             delta.ddb_ondemand_read_units +
                             delta.sdb_get_requests;
  if (scanned) {
    // Degraded read (docs/FAULTS.md): answer from the ground truth by
    // scanning every document, exactly like the no-index baseline.  Same
    // rows, higher cost — availability is bought with S3 traffic and VM
    // time instead of index reads.
    outcome->chosen_path = "scan";
    outcome->degraded = true;
    outcome->docs_from_index = 0;
    outcome->scan_docs = documents_.live;
    env_->meter().mutable_usage().degraded_queries += 1;
    *to_fetch = document_uris();
  } else {
    *to_fetch = std::move(fetch);
  }
  return Status::OK();
}

Status Warehouse::RunQuery(Instance& instance, const QueryRequest& request,
                           uint64_t receipt, Micros* lease_anchor,
                           QueryOutcome* outcome) {
  const Micros task_start = instance.now();
  outcome->id = request.id;
  outcome->query_text = request.query_text;

  WEBDEX_ASSIGN_OR_RETURN(query::Query parsed,
                          query::ParseQuery(request.query_text));
  const query::LogicalPlan logical =
      query::LogicalPlan::Build(std::move(parsed));

  const auto& work = instance.work();
  const cloud::Usage task_before = env_->meter().Snapshot();
  std::vector<std::string> to_fetch;
  if (config_.use_index) {
    WEBDEX_RETURN_IF_ERROR(
        LookupCandidates(instance, logical, &to_fetch, outcome));
    MaybeRenewLease(instance, config_.query_queue, receipt, lease_anchor);
  } else {
    // No index: the query runs over the entire warehouse.
    outcome->chosen_path = "scan";
    to_fetch = document_uris();
  }
  outcome->docs_fetched = to_fetch.size();

  // Transfer the candidate documents into the instance and evaluate
  // (steps 12-13), over one parallel S3 stream per core.
  const Micros eval_start = instance.now();
  cloud::MeteredSpan fetch_span(env_->tracer(), env_->meter(), instance,
                                "fetch");
  fetch_span.AddAttr("documents", static_cast<double>(to_fetch.size()));
  std::vector<std::shared_ptr<const xml::Document>> docs;
  if (!to_fetch.empty()) {
    WEBDEX_ASSIGN_OR_RETURN(
        std::vector<std::string_view> texts,
        RetryCall(instance, "qp.fetch", [&] {
          return env_->s3().BatchGet(instance, config_.data_bucket, to_fetch,
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
      if (auto cached = doc_cache_.Get(to_fetch[i]); cached != nullptr) {
        docs.push_back(std::move(cached));
        continue;
      }
      WEBDEX_ASSIGN_OR_RETURN(xml::Document doc,
                              xml::ParseDocument(to_fetch[i], texts[i]));
      auto shared = std::make_shared<const xml::Document>(std::move(doc));
      doc_cache_.Put(to_fetch[i], shared);
      docs.push_back(std::move(shared));
    }
    instance.ChargeParallelWork(parse_work);
  }
  fetch_span.End();
  cloud::MeteredSpan eval_span(env_->tracer(), env_->meter(), instance,
                               "eval");
  std::vector<const xml::Document*> doc_ptrs;
  doc_ptrs.reserve(docs.size());
  for (const auto& doc : docs) doc_ptrs.push_back(doc.get());
  (void)query::Evaluator::ConsumeWorkStats();
  // The instance's cores evaluate the fetched documents in parallel
  // (Section 3); on the host the per-document matching fans out on the
  // process-lifetime pool.  Rows and work counters do not depend on it.
  const int host_threads = ResolvedHostThreads();
  outcome->result = query::Evaluator::Evaluate(
      logical.query(), doc_ptrs,
      host_threads > 1 ? &common::ThreadPool::Shared(host_threads) : nullptr);
  // The evaluator's work counters are thread_local; they are only
  // visible — and chargeable — on the thread that called Evaluate.  If
  // this assertion fires, evaluation ran on a different thread than the
  // one consuming its stats (see the contract in query/evaluator.h).
  assert(query::Evaluator::HasPendingWorkStats());
  const auto eval_stats = query::Evaluator::ConsumeWorkStats();
  instance.ChargeParallelWork(
      work.eval_per_byte * static_cast<double>(eval_stats.doc_bytes_scanned) +
      work.result_per_byte * static_cast<double>(eval_stats.result_bytes));
  eval_span.End();

  MaybeRenewLease(instance, config_.query_queue, receipt, lease_anchor);

  // Store the results in the file store (step 14).
  cloud::MeteredSpan store_span(env_->tracer(), env_->meter(), instance,
                                "store");
  std::string result_xml = outcome->result.ToXml();
  instance.ChargeParallelWork(work.result_per_byte *
                              static_cast<double>(result_xml.size()));
  const std::string result_key =
      StrFormat("result-%llu.xml", static_cast<unsigned long long>(request.id));
  WEBDEX_RETURN_IF_ERROR(RetryCall(instance, "qp.store", [&] {
    return env_->s3().Put(instance, config_.results_bucket, result_key,
                          result_xml);
  }));
  store_span.End();
  outcome->timings.transfer_eval = instance.now() - eval_start;
  outcome->timings.total = instance.now() - task_start;

  // Metered reality next to the estimate: what this task actually cost
  // (requests + capacity billed during the task, plus its share of rented
  // VM time), for the estimated-vs-actual columns of the reports.
  const cloud::Usage task_delta = env_->meter().Snapshot() - task_before;
  const cloud::Bill task_bill = env_->meter().ComputeBill(task_delta);
  const double vm_usd =
      env_->meter().pricing().VmHour(config_.instance_type) *
      static_cast<double>(outcome->timings.total) / 3600e6;
  outcome->actual_cost_usd = task_bill.total() + vm_usd;
  outcome->actual_requests = static_cast<double>(
      task_delta.s3_get_requests + task_delta.s3_put_requests +
      task_delta.ddb_get_requests + task_delta.sdb_get_requests);

  // Engine-level metrics for this task, plus the planner's report card:
  // the actual/estimated cost ratio (1.0 = a perfect estimate), recorded
  // only when the estimate was exercised as priced (an indexed query, not
  // degraded).
  common::MetricRegistry& registry = env_->metrics();
  registry.GetCounter("engine.query.count")->Add(1);
  if (outcome->degraded) {
    registry.GetCounter("engine.query.degraded.count")->Add(1);
  }
  registry.GetHistogram("engine.query.latency_us")
      ->Record(static_cast<double>(outcome->timings.total));
  if (config_.use_index && !outcome->degraded &&
      outcome->estimated_cost_usd > 0) {
    registry.GetHistogram("planner.estimate_error_ratio")
        ->Record(outcome->actual_cost_usd / outcome->estimated_cost_usd);
  }
  return Status::OK();
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
    // The lease renews across the query's phases.
    const Status processed = RunQuery(instance, request.value(), msg.receipt,
                                      &lease_anchor, &outcome);
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
  cloud::MeteredSpan respond_span(env_->tracer(), env_->meter(), instance,
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
  // The tenant is a line of the QUERYT wire format: a newline in it would
  // move the rest of the tenant into the query text.  A query that does
  // not parse would be dead-lettered by its task.  Both are rejected
  // before anything is sent.
  for (const auto& query : queries) {
    if (query.tenant.find('\n') != std::string::npos) {
      return Status::InvalidArgument("tenant contains a newline");
    }
    WEBDEX_RETURN_IF_ERROR(query::ParseQuery(query.text).status());
  }
  const cloud::Usage run_start = env_->meter().Snapshot();
  cloud::MeteredSpan run_span(env_->tracer(), env_->meter(), front_end_,
                              "query.run");
  run_span.AddAttr("queries", static_cast<double>(queries.size()));
  std::vector<uint64_t> ids;
  {
    cloud::MeteredSpan submit_span(env_->tracer(), env_->meter(),
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
  cloud::MeteredSpan collect_span(env_->tracer(), env_->meter(),
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
  cloud::MeteredSpan pass_span(env_->tracer(), env_->meter(), front_end_,
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
  cloud::MeteredSpan pass_span(env_->tracer(), env_->meter(), front_end_,
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
