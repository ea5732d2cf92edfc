#include "cloud/fault.h"

#include <string>

namespace webdex::cloud {
namespace {

/// SplitMix64 finalizer: decorrelates the plan seed from the cloud seed
/// before Rng::ForKey mixes in the site key.
uint64_t MixSeeds(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kBeforeDelete:
      return "before-delete";
    case CrashPoint::kBetweenBatchPutPages:
      return "between-batchput-pages";
    case CrashPoint::kMidCompaction:
      return "mid-compaction";
  }
  return "unknown";
}

const char* ServiceIdName(ServiceId service) {
  switch (service) {
    case ServiceId::kS3:
      return "s3";
    case ServiceId::kDynamoDb:
      return "dynamodb";
    case ServiceId::kSimpleDb:
      return "simpledb";
    case ServiceId::kSqs:
      return "sqs";
  }
  return "unknown";
}

const ServiceFaults& FaultPlan::Faults(ServiceId service) const {
  switch (service) {
    case ServiceId::kS3:
      return s3;
    case ServiceId::kDynamoDb:
      return dynamodb;
    case ServiceId::kSimpleDb:
      return simpledb;
    case ServiceId::kSqs:
      return sqs;
  }
  return s3;
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t base_seed,
                             UsageMeter* meter)
    : plan_(plan),
      base_seed_(MixSeeds(base_seed, plan.seed)),
      meter_(meter),
      enabled_(plan.Any()) {}

Rng& FaultInjector::StreamFor(std::string_view site) {
  auto it = streams_.find(site);
  if (it == streams_.end()) {
    it = streams_
             .emplace(std::string(site), Rng::ForKey(base_seed_, site))
             .first;
  }
  return it->second;
}

std::vector<FaultInjector::StreamState> FaultInjector::SaveStreams() const {
  std::vector<StreamState> out;
  out.reserve(streams_.size());
  for (const auto& [site, rng] : streams_) {
    out.emplace_back(site, rng.SaveState());
  }
  return out;
}

void FaultInjector::RestoreStreams(const std::vector<StreamState>& streams) {
  for (const auto& [site, state] : streams) {
    StreamFor(site).LoadState(state);
  }
}

Status FaultInjector::MaybeFail(ServiceId service, std::string_view site,
                                Micros now) {
  if (!enabled_) return Status::OK();
  // A sustained outage covering `now` overrides the per-attempt profile.
  for (const auto& outage : plan_.outages) {
    if (outage.service != service || !outage.Active(now)) continue;
    const bool fails = outage.error_probability >= 1.0 ||
                       (outage.error_probability > 0 &&
                        StreamFor(site).NextBool(outage.error_probability));
    if (!fails) continue;
    meter_->mutable_usage().faulted_requests += 1;
    std::string msg = "sustained outage at ";
    msg += site;
    const bool throttled =
        outage.throttle_share >= 1.0 ||
        (outage.throttle_share > 0 &&
         StreamFor(site).NextBool(outage.throttle_share));
    if (throttled) return Status::ResourceExhausted(msg);
    return Status::Unavailable(msg);
  }
  const ServiceFaults& faults = plan_.Faults(service);
  if (faults.error_probability <= 0) return Status::OK();
  Rng& rng = StreamFor(site);
  if (!rng.NextBool(faults.error_probability)) return Status::OK();
  meter_->mutable_usage().faulted_requests += 1;
  std::string msg = "injected fault at ";
  msg += site;
  if (rng.NextBool(faults.throttle_share)) {
    return Status::ResourceExhausted(msg);
  }
  return Status::Unavailable(msg);
}

size_t FaultInjector::UnprocessedCount(ServiceId service,
                                       std::string_view site,
                                       size_t page_size) {
  if (!enabled_ || page_size == 0) return 0;
  const ServiceFaults& faults = plan_.Faults(service);
  if (faults.unprocessed_probability <= 0) return 0;
  Rng& rng = StreamFor(site);
  if (!rng.NextBool(faults.unprocessed_probability)) return 0;
  meter_->mutable_usage().faulted_requests += 1;
  // 1 .. page_size items bounce (a whole-page bounce is AWS's behaviour
  // under sustained throttling).
  return 1 + static_cast<size_t>(
                 rng.NextBelow(static_cast<uint64_t>(page_size)));
}

bool FaultInjector::ShouldDuplicate(ServiceId service, std::string_view site) {
  if (!enabled_) return false;
  const ServiceFaults& faults = plan_.Faults(service);
  if (faults.duplicate_probability <= 0) return false;
  Rng& rng = StreamFor(site);
  if (!rng.NextBool(faults.duplicate_probability)) return false;
  meter_->mutable_usage().faulted_requests += 1;
  return true;
}

Micros FaultInjector::DeliveryDelay(ServiceId service, std::string_view site) {
  if (!enabled_) return 0;
  const ServiceFaults& faults = plan_.Faults(service);
  if (faults.delay_probability <= 0 || faults.max_delay <= 0) return 0;
  Rng& rng = StreamFor(site);
  if (!rng.NextBool(faults.delay_probability)) return 0;
  return 1 + static_cast<Micros>(
                 rng.NextBelow(static_cast<uint64_t>(faults.max_delay)));
}

bool FaultInjector::ShouldCrash(CrashPoint point, std::string_view task_key) {
  if (!enabled_ || !plan_.crash.Any()) return false;
  double probability = 0;
  switch (point) {
    case CrashPoint::kBeforeDelete:
      probability = plan_.crash.before_delete_probability;
      break;
    case CrashPoint::kBetweenBatchPutPages:
      probability = plan_.crash.between_batch_put_pages_probability;
      break;
    case CrashPoint::kMidCompaction:
      probability = plan_.crash.mid_compaction_probability;
      break;
  }
  if (probability <= 0) return false;
  std::string site = "crash:";
  site += CrashPointName(point);
  site += ':';
  site += task_key;
  return StreamFor(site).NextBool(probability);
}

}  // namespace webdex::cloud
