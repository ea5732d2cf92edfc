#include "cloud/billed_call.h"

#include <string>
#include <utility>

#include "common/strings.h"

namespace webdex::cloud {

Status BilledCall::FaultGate(std::string_view site, std::string_view resource,
                             const RoundTrip& failed) {
  FaultInjector* injector = endpoint_.active_injector();
  if (injector == nullptr) return Status::OK();
  std::string key;
  key.reserve(site.size() + resource.size());
  key.append(site).append(resource);
  Status fault = injector->MaybeFail(endpoint_.service, key, agent_.now());
  if (fault.ok()) return fault;
  return Fail(std::move(fault), failed);
}

Status BilledCall::ThrottleGate(const RateLimiter& limiter,
                                Micros max_backlog, const char* what) {
  if (max_backlog <= 0) return Status::OK();
  const Micros backlog = limiter.BacklogAt(agent_.now());
  if (backlog <= max_backlog) return Status::OK();
  const Micros hint = backlog - max_backlog;
  endpoint_.meter->mutable_usage().throttled_requests += 1;
  if (endpoint_.throttled != nullptr) endpoint_.throttled->Add(1);
  return Fail(Status::ResourceExhausted(
                  StrFormat("%s; retry after %lld us", what,
                            static_cast<long long>(hint)),
                  hint));
}

void BilledCall::Charge(const RoundTrip& trip) {
  if (trip.limiter != nullptr) {
    agent_.AdvanceTo(trip.limiter->Acquire(agent_.now(), trip.units));
  }
  agent_.Advance(endpoint_.request_latency + trip.transfer);
}

}  // namespace webdex::cloud
