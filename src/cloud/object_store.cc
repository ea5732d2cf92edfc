#include "cloud/object_store.h"

#include <algorithm>

#include "common/strings.h"

namespace webdex::cloud {

ObjectStore::ObjectStore(const ObjectStoreConfig& config, UsageMeter& meter,
                         FaultInjector& injector,
                         common::MetricRegistry& metrics)
    : config_(config),
      meter_(meter),
      endpoint_{ServiceId::kS3, meter, injector, config.request_latency},
      put_metrics_(OpMetrics::For(metrics, "service.s3.put")),
      get_metrics_(OpMetrics::For(metrics, "service.s3.get")),
      batch_get_metrics_(OpMetrics::For(metrics, "service.s3.batch_get")),
      list_metrics_(OpMetrics::For(metrics, "service.s3.list")),
      request_limiter_(config.requests_per_second) {}

Status ObjectStore::CreateBucket(const std::string& bucket) {
  auto [it, inserted] = buckets_.try_emplace(bucket);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("bucket exists: " + bucket);
  }
  return Status::OK();
}

RoundTrip ObjectStore::Transfer(uint64_t bytes) {
  Micros transfer = 0;
  if (config_.bandwidth_bytes_per_sec > 0) {
    transfer = static_cast<Micros>(static_cast<double>(bytes) /
                                   config_.bandwidth_bytes_per_sec *
                                   kMicrosPerSecond);
  }
  return {&request_limiter_, 1.0, transfer};
}

Status ObjectStore::Put(SimAgent& agent, const std::string& bucket,
                        const std::string& key, std::string data) {
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  // A failed attempt still takes the full round trip (the request body
  // was sent) and bills a put request, but stores nothing and does not
  // count payload bytes as ingested.
  BilledCall call(endpoint_, agent, put_metrics_, &Usage::s3_put_requests);
  const RoundTrip upload = Transfer(data.size());
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("s3.put:", bucket, upload));
  meter_.mutable_usage().s3_bytes_in += data.size();
  call.Succeed(upload);
  it->second.Put(key, std::move(data));
  return Status::OK();
}

Result<std::string> ObjectStore::Get(SimAgent& agent,
                                     const std::string& bucket,
                                     const std::string& key) {
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  BilledCall call(endpoint_, agent, get_metrics_, &Usage::s3_get_requests);
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("s3.get:", bucket, Transfer(0)));
  auto obj = it->second.objects.find(key);
  if (obj == it->second.objects.end()) {
    // A failed lookup is still a billed request that took a round trip.
    return call.Fail(
        Status::NotFound("no such object: " + bucket + "/" + key),
        Transfer(0));
  }
  meter_.mutable_usage().s3_bytes_out += obj->second.size();
  call.Succeed(Transfer(obj->second.size()));
  return obj->second;
}

Result<std::vector<std::string_view>> ObjectStore::BatchGet(
    SimAgent& agent, const std::string& bucket,
    const std::vector<std::string>& keys, int parallel_streams) {
  if (parallel_streams < 1) {
    return Status::InvalidArgument("parallel_streams must be >= 1");
  }
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  // Call-level fault: the whole parallel fetch aborts before any
  // transfers complete; one request round trip is billed.
  BilledCall call(endpoint_, agent, batch_get_metrics_,
                  &Usage::s3_get_requests);
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("s3.batchget:", bucket, Transfer(0)));
  std::vector<std::string_view> out;
  out.reserve(keys.size());
  // Model: `parallel_streams` concurrent connections; each request incurs
  // the fixed latency plus its transfer time, and requests are spread
  // round-robin over the streams.  The agent's clock advances by the
  // busiest stream (the makespan).
  std::vector<double> stream_micros(static_cast<size_t>(parallel_streams),
                                    0.0);
  size_t next_stream = 0;
  for (const auto& key : keys) {
    auto obj = it->second.objects.find(key);
    call.Bill();
    if (obj == it->second.objects.end()) {
      call.Record(/*error=*/true);
      return Status::NotFound("no such object: " + bucket + "/" + key);
    }
    double micros = static_cast<double>(config_.request_latency);
    if (config_.bandwidth_bytes_per_sec > 0) {
      micros += static_cast<double>(obj->second.size()) /
                config_.bandwidth_bytes_per_sec * kMicrosPerSecond;
    }
    stream_micros[next_stream] += micros;
    next_stream = (next_stream + 1) % stream_micros.size();
    meter_.mutable_usage().s3_bytes_out += obj->second.size();
    out.push_back(obj->second);
  }
  const double makespan =
      *std::max_element(stream_micros.begin(), stream_micros.end());
  agent.AdvanceTo(request_limiter_.Acquire(
      agent.now(), static_cast<double>(keys.size())));
  agent.Advance(static_cast<Micros>(makespan));
  call.Record(/*error=*/false);
  return out;
}

Status ObjectStore::Delete(SimAgent& agent, const std::string& bucket,
                           const std::string& key) {
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  // Free, but still a round trip through the request limiter.
  agent.AdvanceTo(request_limiter_.Acquire(agent.now(), 1.0));
  agent.Advance(config_.request_latency);
  auto& objects = it->second.objects;
  if (auto obj = objects.find(key); obj != objects.end()) {
    it->second.bytes -= obj->second.size();
    objects.erase(obj);
  }
  return Status::OK();
}

bool ObjectStore::Exists(const std::string& bucket,
                         const std::string& key) const {
  auto it = buckets_.find(bucket);
  return it != buckets_.end() && it->second.objects.count(key) > 0;
}

const std::string* ObjectStore::PeekObject(const std::string& bucket,
                                           const std::string& key) const {
  auto bucket_it = buckets_.find(bucket);
  if (bucket_it == buckets_.end()) return nullptr;
  auto object_it = bucket_it->second.objects.find(key);
  if (object_it == bucket_it->second.objects.end()) return nullptr;
  return &object_it->second;
}

Result<std::vector<std::string>> ObjectStore::List(
    SimAgent& agent, const std::string& bucket, const std::string& prefix) {
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) {
    return Status::NotFound("no such bucket: " + bucket);
  }
  const auto& objects = it->second.objects;
  std::vector<std::string> keys;
  for (auto iter = objects.lower_bound(prefix);
       iter != objects.end() && StartsWith(iter->first, prefix); ++iter) {
    keys.push_back(iter->first);
  }
  BilledCall call(endpoint_, agent, list_metrics_, &Usage::s3_get_requests);
  const uint64_t pages = keys.empty() ? 1 : (keys.size() + 999) / 1000;
  call.Bill(pages);
  for (uint64_t i = 0; i < pages; ++i) call.Charge(Transfer(0));
  call.Record(/*error=*/false);
  return keys;
}

uint64_t ObjectStore::BucketBytes(const std::string& bucket) const {
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0 : it->second.bytes;
}

uint64_t ObjectStore::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [name, bucket] : buckets_) total += bucket.bytes;
  return total;
}

uint64_t ObjectStore::ObjectCount(const std::string& bucket) const {
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0 : it->second.objects.size();
}

std::vector<std::string> ObjectStore::BucketNames() const {
  std::vector<std::string> names;
  names.reserve(buckets_.size());
  for (const auto& [name, bucket] : buckets_) {
    (void)bucket;
    names.push_back(name);
  }
  return names;
}

void ObjectStore::ForEachObject(
    const std::function<void(const std::string&, const std::string&,
                             const std::string&)>& fn) const {
  for (const auto& [name, bucket] : buckets_) {
    for (const auto& [key, data] : bucket.objects) fn(name, key, data);
  }
}

void ObjectStore::RestoreObject(const std::string& bucket,
                                const std::string& key, std::string data) {
  buckets_[bucket].Put(key, std::move(data));
}

void ObjectStore::Bucket::Put(const std::string& key, std::string data) {
  std::string& stored = objects[key];
  bytes = bytes - stored.size() + data.size();
  stored = std::move(data);
}

}  // namespace webdex::cloud
