#ifndef WEBDEX_ENGINE_EXTRACTION_PIPELINE_H_
#define WEBDEX_ENGINE_EXTRACTION_PIPELINE_H_

#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/kv_store.h"
#include "cloud/object_store.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/strategy.h"
#include "xml/dom.h"

namespace webdex::engine {

/// Everything the pure-CPU half of one indexing task produces: the parsed
/// document, the extracted index items, and the work counters the
/// simulation charges virtual time for.  Deterministic per (seed, uri,
/// generation): UUID range keys come from an Rng stream seeded by the
/// document URI (suffixed "@<generation>" for upsert re-extractions), so
/// the same document always extracts to byte-identical items, regardless
/// of which host thread, simulated instance, or delivery attempt runs it.
struct ExtractionResult {
  Status status = Status::OK();  // parse / extract outcome
  std::shared_ptr<const xml::Document> doc;
  index::ExtractStats stats;
  /// One batch per index table; each batch's views borrow its own
  /// buffer, so moving the result (or the vector) keeps them valid.
  std::vector<index::ItemBatch> items;
  /// The document's handle-keyed DocIndex — the warehouse feeds it to the
  /// planner's index::PathSummary once the task commits (deduplicated by
  /// URI across redeliveries).  Handles resolve against the global
  /// InternCore, so the result is shareable across host threads.
  index::DocIndex doc_index;
};

/// Speculative host-parallel execution of the fetch-parse-extract phase of
/// indexing tasks (paper Figure 1, steps 4-5; "extraction time" in
/// Table 4).
///
/// The discrete-event scheduler serializes *virtual* execution on the
/// host, so at scale the wall-clock of an indexing run is dominated by
/// real `xml::ParseDocument` + `ExtractBatches` CPU.  That work is pure and
/// embarrassingly parallel per document, so the pipeline runs it ahead of
/// time on a ThreadPool while the event loop replays queue deliveries,
/// billing, lease renewals and fault injection exactly as before; when
/// the loop reaches a task it collects the prefetched result instead of
/// recomputing it.  Virtual time is charged by the *event loop* from the
/// result's counters, so makespans, costs, and reports are bit-identical
/// to the serial path (see docs/PARALLELISM.md).
///
/// Memory is bounded by a window, not by the corpus: at most
/// `2 * pool size` results are alive at once, counting the one the event
/// loop is consuming.  Prefetched keys wait in loader-queue order and are
/// submitted as Take frees window slots.  A taken result is released once
/// its task is done with it, as on the paper's loader instances: the next
/// Take hands it to the pool, and the extraction that reuses its slot
/// frees it before it starts.  Freeing a result frees thousands of small
/// blocks the pool threads allocated, which is work the serialized event
/// loop should not do.  A redelivered task whose result was already
/// released simply extracts again inline (ExtractNow): the per-document
/// Rng streams make that byte-identical.
class ExtractionPipeline {
 public:
  /// `pool` must outlive the pipeline.  Take is for one consumer, which
  /// is done with a result when it calls Take again.  `strategy`, `store`
  /// and `s3` are read from pooled threads: `s3`'s data bucket must not be
  /// mutated while the pipeline is live, and `store` is only consulted
  /// through its immutable capability queries.
  ExtractionPipeline(common::ThreadPool* pool,
                     const index::IndexingStrategy* strategy,
                     const index::ExtractOptions& options,
                     const cloud::KvStore* store,
                     const cloud::ObjectStore* s3, std::string bucket,
                     uint64_t base_seed);

  /// Waits for the extractions still running on the pool: they read
  /// this pipeline's members.
  ~ExtractionPipeline();

  ExtractionPipeline(const ExtractionPipeline&) = delete;
  ExtractionPipeline& operator=(const ExtractionPipeline&) = delete;

  /// Queues the speculative extraction of `uri` at `generation` unless
  /// it is already queued, and submits it once the window has room.
  /// Called once per pending loader-queue message, in queue order, before
  /// the event loop starts.  Upsert tasks of the same URI at different
  /// generations are separate keys — their UUID streams (and possibly
  /// their S3 bodies) differ.
  void Prefetch(const std::string& uri, uint64_t generation = 0);

  /// Hands over the result for (`uri`, `generation`), blocking until its
  /// extraction completes; releases the previously taken result and
  /// submits the next queued key.  A result is handed out once: a second
  /// Take of the same key returns nullptr.  So does a key that was never
  /// prefetched or not yet submitted (an out-of-order delivery); the
  /// latter is dropped from the queue.  On nullptr the caller extracts
  /// inline via ExtractNow.
  std::shared_ptr<const ExtractionResult> Take(const std::string& uri,
                                               uint64_t generation = 0);

  /// The serial path: runs the identical parse + extract on the calling
  /// thread.  Shared by the pipeline's pooled tasks, the host_threads == 1
  /// configuration and redelivered tasks, so all produce identical results.
  static ExtractionResult ExtractNow(const std::string& uri,
                                     const std::string& xml_text,
                                     const index::IndexingStrategy& strategy,
                                     const index::ExtractOptions& options,
                                     const cloud::KvStore& store,
                                     uint64_t base_seed);

 private:
  using ResultPtr = std::shared_ptr<const ExtractionResult>;
  using Future = std::future<ResultPtr>;

  /// Submits queued keys while fewer than `window_ - 1` are in flight:
  /// the last slot belongs to the result the caller is consuming.  The
  /// first submitted extraction frees `consumed` (a released result)
  /// before it starts; with nothing to submit, a pool task of its own
  /// frees it.
  void FillWindowLocked(ResultPtr consumed);

  common::ThreadPool* pool_;
  const index::IndexingStrategy* strategy_;
  index::ExtractOptions options_;
  const cloud::KvStore* store_;
  const cloud::ObjectStore* s3_;
  std::string bucket_;
  uint64_t base_seed_;
  const size_t window_;

  std::mutex mu_;
  /// Queued keys in loader-queue order.  A key Take dropped stays here
  /// until FillWindowLocked skips it (it is no longer in `queued_`).
  std::deque<std::string> order_;
  std::map<std::string, std::pair<std::string, uint64_t>> queued_;
  /// Submitted and not yet taken.
  std::map<std::string, Future> in_flight_;
  /// The last result Take handed out; released by the next Take.
  ResultPtr consumed_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_EXTRACTION_PIPELINE_H_
