#include "engine/admission.h"

#include <algorithm>
#include <cmath>

namespace webdex::engine {

using cloud::Micros;

namespace {

/// Smallest wait that guarantees forward progress when a gate names an
/// exact reopen time that truncates to "now" in integer micros.
constexpr Micros kMinWait = 1;

}  // namespace

AdmissionController::TokenBucket::TokenBucket(double rate_per_second,
                                              double burst)
    : rate_(rate_per_second <= 0
                ? 0
                : rate_per_second / static_cast<double>(cloud::kMicrosPerSecond)),
      burst_(burst < 1 ? 1 : burst),
      level_(burst_) {}

Micros AdmissionController::TokenBucket::Probe(Micros now) {
  if (!active()) return 0;
  if (now > last_) {
    level_ = std::min(burst_, level_ + static_cast<double>(now - last_) * rate_);
    last_ = now;
  }
  if (level_ >= 1.0) return 0;
  const double wait = (1.0 - level_) / rate_;
  const Micros hint = static_cast<Micros>(std::ceil(wait));
  return hint < kMinWait ? kMinWait : hint;
}

void AdmissionController::TokenBucket::Commit() {
  if (active()) level_ -= 1.0;
}

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         cloud::UsageMeter& meter,
                                         common::MetricRegistry& metrics,
                                         common::Tracer& tracer)
    : config_(config),
      meter_(meter),
      tracer_(tracer),
      admitted_metric_(*metrics.GetCounter("admission.admitted.count")),
      deferred_metric_(*metrics.GetCounter("admission.deferred.count")),
      backpressure_metric_(
          *metrics.GetCounter("admission.backpressure.count")),
      limit_gauge_(*metrics.GetGauge("admission.concurrency_limit")),
      global_bucket_(config.global_rate, config.global_burst),
      concurrency_limit_(config.initial_concurrency) {
  if (config_.initial_concurrency > 0) {
    limit_gauge_.Set(static_cast<double>(concurrency_limit_));
  }
}

AdmissionController::TokenBucket& AdmissionController::TenantBucket(
    const std::string& tenant) {
  auto it = tenant_buckets_.find(tenant);
  if (it == tenant_buckets_.end()) {
    it = tenant_buckets_
             .emplace(tenant, TokenBucket(config_.per_tenant_rate,
                                          config_.per_tenant_burst))
             .first;
  }
  return it->second;
}

void AdmissionController::Prune(Micros now) {
  in_flight_.erase(std::remove_if(in_flight_.begin(), in_flight_.end(),
                                  [now](const auto& iv) {
                                    return iv.second <= now;
                                  }),
                   in_flight_.end());
}

int AdmissionController::InFlightAt(Micros now) const {
  int n = 0;
  for (const auto& iv : in_flight_) {
    if (iv.second > now) ++n;
  }
  return n;
}

Micros AdmissionController::GateWait(Micros now, const std::string& tenant) {
  // Concurrency first: a full fleet makes bucket tokens moot, and the
  // probe consumes nothing so ordering cannot leak tokens.
  if (config_.initial_concurrency > 0) {
    Prune(now);
    if (!in_flight_.empty() &&
        static_cast<int>(in_flight_.size()) >= concurrency_limit_) {
      Micros earliest_end = in_flight_.front().second;
      for (const auto& iv : in_flight_) {
        earliest_end = std::min(earliest_end, iv.second);
      }
      const Micros wait = earliest_end - now;
      return wait < kMinWait ? kMinWait : wait;
    }
  }
  TokenBucket& tenant_bucket = TenantBucket(tenant);
  const Micros tenant_wait = tenant_bucket.Probe(now);
  if (tenant_wait > 0) return tenant_wait;
  const Micros global_wait = global_bucket_.Probe(now);
  if (global_wait > 0) return global_wait;
  // Every gate open: consume both tokens atomically.
  tenant_bucket.Commit();
  global_bucket_.Commit();
  return 0;
}

AdmissionDecision AdmissionController::Admit(cloud::SimAgent& agent,
                                             const std::string& tenant,
                                             uint64_t query_id) {
  AdmissionDecision decision;
  if (!config_.enabled) return decision;
  const Micros arrival = agent.now();
  const Micros deadline =
      config_.deadline_micros > 0 ? arrival + config_.deadline_micros : arrival;
  for (;;) {
    const Micros now = agent.now();
    const Micros wait = GateWait(now, tenant);
    if (wait == 0) {
      decision.waited = now - arrival;
      admitted_metric_.Add(1);
      return decision;
    }
    if (now + wait > deadline) {
      // Past the budget: shed with a typed rejection instead of letting
      // the caller discover a timeout.  The shed itself costs nothing —
      // billing stays with the SQS round trips the caller makes.
      decision.admitted = false;
      decision.status =
          Status::Overloaded("admission rejected: over capacity");
      meter_.mutable_usage().shed_queries += 1;
      cloud::MeteredSpan span(tracer_, meter_, agent, "admission.shed");
      span.AddAttr("query_id", static_cast<double>(query_id));
      span.AddAttr("waited_us", static_cast<double>(agent.now() - arrival));
      return decision;
    }
    // Defer: the gate names the exact virtual time it reopens (a token
    // refill or the earliest in-flight completion), so waiting that long
    // always makes progress.
    deferred_metric_.Add(1);
    agent.Advance(wait);
  }
}

void AdmissionController::OnCompleted(Micros start, Micros end,
                                      bool saw_throttle) {
  if (!config_.enabled) return;
  if (config_.initial_concurrency > 0 && end > start) {
    in_flight_.emplace_back(start, end);
  }
  if (config_.initial_concurrency <= 0) return;
  if (saw_throttle) {
    const int decreased = static_cast<int>(std::floor(
        static_cast<double>(concurrency_limit_) * config_.decrease_factor));
    concurrency_limit_ = std::max(config_.min_concurrency, decreased);
  } else {
    concurrency_limit_ = std::min(config_.max_concurrency,
                                  concurrency_limit_ + 1);
  }
  limit_gauge_.Set(static_cast<double>(concurrency_limit_));
}

Micros AdmissionController::IndexerBackoff(Micros now, uint64_t queue_depth,
                                           uint64_t throttled_total) {
  (void)now;
  if (!config_.enabled || config_.backpressure_queue_depth == 0) return 0;
  const bool fresh_throttles = throttled_total > last_throttled_seen_;
  last_throttled_seen_ = throttled_total;
  if (!fresh_throttles || queue_depth < config_.backpressure_queue_depth) {
    return 0;
  }
  backpressure_metric_.Add(1);
  return config_.backpressure_pause;
}

}  // namespace webdex::engine
