#ifndef WEBDEX_CLOUD_OBJECT_STORE_H_
#define WEBDEX_CLOUD_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/billed_call.h"
#include "cloud/sim.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace webdex::cloud {

/// Latency/bandwidth model for the file store.
struct ObjectStoreConfig {
  /// Fixed per-request latency (connection + first byte).
  Micros request_latency = 12'000;
  /// Per-connection transfer bandwidth.
  double bandwidth_bytes_per_sec = 25.0 * 1024 * 1024;
  /// Global request rate limit; <= 0 means effectively unlimited, which
  /// matches S3's behaviour at the paper's scale.
  double requests_per_second = 0;
};

/// Simulated Amazon S3: a durable store of named objects grouped into
/// buckets (paper Section 6).  The warehouse keeps every XML document and
/// every query-result file here.
///
/// Simulation contract: every call takes the calling `SimAgent` and
/// advances its virtual clock by the modeled request latency plus transfer
/// time; every call increments the shared `UsageMeter` with exactly the
/// requests S3 would have billed.
class ObjectStore {
 public:
  ObjectStore(const ObjectStoreConfig& config, UsageMeter& meter,
              FaultInjector& injector, common::MetricRegistry& metrics);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Creates a bucket; fails with AlreadyExists if present.  Free of
  /// charge (bucket creation is not a billed data operation).
  Status CreateBucket(const std::string& bucket);

  /// Stores (or replaces) an object.
  Status Put(SimAgent& agent, const std::string& bucket,
             const std::string& key, std::string data);

  /// Retrieves an object's content.
  Result<std::string> Get(SimAgent& agent, const std::string& bucket,
                          const std::string& key);

  /// Retrieves many objects over `parallel_streams` concurrent
  /// connections (modeling the multi-threaded transfer the paper's query
  /// processor uses to pull matched documents into EC2).  Latency charged
  /// to the agent is the makespan of the parallel transfer; each object
  /// is billed as one get request.  Fails on the first missing key.
  /// The payloads are borrowed: each view stays valid until the next
  /// write to `bucket` (Put, Delete or RestoreObject).
  Result<std::vector<std::string_view>> BatchGet(
      SimAgent& agent, const std::string& bucket,
      const std::vector<std::string>& keys, int parallel_streams);

  /// Deletes an object (no-op if absent; delete requests are free in S3).
  Status Delete(SimAgent& agent, const std::string& bucket,
                const std::string& key);

  /// True if the object exists (metadata-only, not billed, no latency;
  /// used by tests and assertions, not by the simulated application).
  bool Exists(const std::string& bucket, const std::string& key) const;

  /// Keys in a bucket with the given prefix, lexicographically ordered.
  /// Billed and charged like one get request per 1000 keys (S3 LIST).
  Result<std::vector<std::string>> List(SimAgent& agent,
                                        const std::string& bucket,
                                        const std::string& prefix);

  /// Total payload bytes currently stored in `bucket` (0 if absent), O(1).
  uint64_t BucketBytes(const std::string& bucket) const;

  /// Total payload bytes across all buckets.
  uint64_t TotalBytes() const;

  uint64_t ObjectCount(const std::string& bucket) const;

  // --- Host-side tooling (snapshots; not billed, no virtual latency) ----
  /// Direct reference to an object's payload, or nullptr if absent.  Used
  /// by the host-parallel extraction pipeline to read documents without
  /// billing (the simulated GET is still issued — and billed — by the
  /// instance when the event loop reaches the task).  Safe to call from
  /// several host threads concurrently as long as no simulated agent is
  /// mutating the bucket, which holds during an indexing run: loader
  /// tasks only read the data bucket.
  const std::string* PeekObject(const std::string& bucket,
                                const std::string& key) const;
  /// Iterates every (bucket, key, payload) in deterministic order.
  void ForEachObject(
      const std::function<void(const std::string&, const std::string&,
                               const std::string&)>& fn) const;
  /// Restores one object, creating its bucket if needed.
  void RestoreObject(const std::string& bucket, const std::string& key,
                     std::string data);
  bool Empty() const { return buckets_.empty(); }
  /// All bucket names (including empty buckets), sorted.
  std::vector<std::string> BucketNames() const;
  /// Creates a bucket if absent (snapshot restore path).
  void RestoreBucket(const std::string& bucket) { buckets_[bucket]; }

 private:
  // One request moving `bytes`: the rate limiter, then the fixed latency
  // plus the transfer time.
  RoundTrip Transfer(uint64_t bytes);

  ObjectStoreConfig config_;
  UsageMeter& meter_;
  ServiceEndpoint endpoint_;
  // Per-operation service metrics (docs/OBSERVABILITY.md).
  OpMetrics put_metrics_;
  OpMetrics get_metrics_;
  OpMetrics batch_get_metrics_;
  OpMetrics list_metrics_;
  RateLimiter request_limiter_;

  struct Bucket {
    std::map<std::string, std::string> objects;  // key -> payload
    uint64_t bytes = 0;                          // sum of payload sizes

    /// Stores or replaces `key`, keeping `bytes`.
    void Put(const std::string& key, std::string data);
  };
  std::map<std::string, Bucket> buckets_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_OBJECT_STORE_H_
