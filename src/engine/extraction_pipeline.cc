#include "engine/extraction_pipeline.h"

#include "common/rng.h"
#include "xml/parser.h"

namespace webdex::engine {

ExtractionPipeline::ExtractionPipeline(common::ThreadPool* pool,
                                       const index::IndexingStrategy* strategy,
                                       const index::ExtractOptions& options,
                                       const cloud::KvStore* store,
                                       const cloud::ObjectStore* s3,
                                       std::string bucket, uint64_t base_seed)
    : pool_(pool),
      strategy_(strategy),
      options_(options),
      store_(store),
      s3_(s3),
      bucket_(std::move(bucket)),
      base_seed_(base_seed),
      window_(2 * static_cast<size_t>(pool->size())) {}

ExtractionPipeline::~ExtractionPipeline() {
  for (auto& [key, task] : in_flight_) task.wait();
}

ExtractionResult ExtractionPipeline::ExtractNow(
    const std::string& uri, const std::string& xml_text,
    const index::IndexingStrategy& strategy,
    const index::ExtractOptions& options, const cloud::KvStore& store,
    uint64_t base_seed) {
  ExtractionResult out;
  auto doc = xml::ParseDocument(uri, xml_text);
  if (!doc.ok()) {
    out.status = doc.status();
    return out;
  }
  out.doc = std::make_shared<const xml::Document>(std::move(doc).value());
  // Upsert re-extractions draw from a generation-suffixed UUID stream so
  // a document's successive versions never collide on range keys; the
  // static corpus (generation 0) keeps the original per-URI stream and
  // stays byte-identical.
  Rng uuid_rng =
      options.generation > 0
          ? Rng::ForKey(base_seed,
                        uri + "@" + std::to_string(options.generation))
          : Rng::ForKey(base_seed, uri);
  // Kept on the result: the planner's PathSummary consumes it directly
  // once the warehouse commits the task, without re-extracting
  // (docs/PLANNER.md).
  out.doc_index = index::ExtractDocIndex(*out.doc, options);
  auto extracted = strategy.ExtractBatches(*out.doc, out.doc_index, options,
                                           store, uuid_rng, &out.stats);
  if (!extracted.ok()) {
    out.status = extracted.status();
    return out;
  }
  out.items = std::move(extracted).value();
  return out;
}

namespace {

// Memo key for one (uri, generation) extraction; generation 0 keeps the
// bare URI so static-corpus behavior is unchanged.
std::string TaskKey(const std::string& uri, uint64_t generation) {
  return generation > 0 ? uri + "@" + std::to_string(generation) : uri;
}

}  // namespace

void ExtractionPipeline::Prefetch(const std::string& uri,
                                  uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = TaskKey(uri, generation);
  if (queued_.count(key) > 0 || in_flight_.count(key) > 0) return;
  queued_.emplace(key, std::make_pair(uri, generation));
  order_.push_back(std::move(key));
  FillWindowLocked(nullptr);
}

void ExtractionPipeline::FillWindowLocked(ResultPtr consumed) {
  while (in_flight_.size() + 1 < window_ && !order_.empty()) {
    std::string key = std::move(order_.front());
    order_.pop_front();
    auto queued = queued_.find(key);
    if (queued == queued_.end()) continue;  // dropped by an early Take
    std::string uri = std::move(queued->second.first);
    const uint64_t generation = queued->second.second;
    queued_.erase(queued);
    in_flight_.emplace(
        std::move(key),
        pool_->Submit([this, uri = std::move(uri), generation,
                       consumed = std::move(consumed)]() mutable
                      -> ResultPtr {
          // The slot's previous result goes first, so the slot never
          // holds two.
          consumed.reset();
          const std::string* text = s3_->PeekObject(bucket_, uri);
          if (text == nullptr) {
            auto missing = std::make_shared<ExtractionResult>();
            missing->status = Status::NotFound("no such object: " + uri);
            return missing;
          }
          index::ExtractOptions options = options_;
          options.generation = generation;
          return std::make_shared<const ExtractionResult>(ExtractNow(
              uri, *text, *strategy_, options, *store_, base_seed_));
        }));
  }
  // Nothing left to extract: free it on the pool all the same.
  if (consumed != nullptr) pool_->Submit([consumed = std::move(consumed)] {});
}

ExtractionPipeline::ResultPtr ExtractionPipeline::Take(
    const std::string& uri, uint64_t generation) {
  std::unique_lock<std::mutex> lock(mu_);
  // The caller is done with the result of its previous Take.
  ResultPtr consumed = std::move(consumed_);
  const std::string key = TaskKey(uri, generation);
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    // Released, never prefetched, or still queued.  A queued key is
    // dropped: its delivery is about to be extracted inline, and
    // `consumed` is freed here first to make room for that result.
    queued_.erase(key);
    return nullptr;
  }
  Future task = std::move(it->second);
  in_flight_.erase(it);
  FillWindowLocked(std::move(consumed));
  lock.unlock();
  ResultPtr result = task.get();
  lock.lock();
  consumed_ = result;
  return result;
}

}  // namespace webdex::engine
