#ifndef WEBDEX_CLOUD_CLOUD_ENV_H_
#define WEBDEX_CLOUD_CLOUD_ENV_H_

#include <memory>
#include <string>

#include "cloud/autoscaler.h"
#include "cloud/circuit_breaker.h"
#include "cloud/deployment.h"
#include "cloud/dynamodb.h"
#include "cloud/fault.h"
#include "cloud/instance.h"
#include "cloud/object_store.h"
#include "cloud/pricing.h"
#include "cloud/queue_service.h"
#include "cloud/simpledb.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// Durable maintenance bookkeeping that travels with the cloud state
/// (cloud/snapshot.h): where an interrupted compaction pass
/// left off, and the high-water mark of allocated mutation generations.
/// Both survive a planned crash + restore, so a resumed pass continues
/// instead of restarting and new mutations keep stamping monotonically.
struct MaintenanceState {
  /// Last document URI a compaction pass fully completed; empty = no
  /// pass in flight (fresh start or clean completion).
  std::string compact_cursor;
  /// Highest mutation generation ever allocated (0 = static corpus).
  uint64_t generation_watermark = 0;
};

/// All tunables of the simulated cloud in one place.
struct CloudConfig {
  Pricing pricing = Pricing::AwsSingaporeOct2012();
  uint64_t seed = 42;
  ObjectStoreConfig s3;
  DynamoDbConfig dynamodb;
  SimpleDbConfig simpledb;
  QueueServiceConfig sqs;
  WorkModel work;
  /// Deterministic chaos schedule (docs/FAULTS.md).  The default plan
  /// injects nothing and reproduces fault-free runs bit-identically.
  FaultPlan faults;
  /// Per-resource circuit breakers over the cloud clients.  Enabled by
  /// default: fault-free runs never produce the consecutive failures
  /// that trip one, so they stay bit-identical.
  CircuitBreakerConfig breaker;
  /// Reactive DynamoDB capacity autoscaler (docs/OVERLOAD.md).  Disabled
  /// by default: capacity never moves and no capacity-hours are billed.
  AutoscalerConfig autoscale;
  /// Deployment shape: capacity mode, shard count, read replicas
  /// (docs/ARCHITECTURES.md).  The default spec is the paper's layout and
  /// reproduces existing runs bit-identically.
  ArchitectureSpec arch;
};

/// The simulated cloud region: one S3, one DynamoDB, one SimpleDB, one
/// SQS, a shared usage meter, and a deterministic random stream.  All
/// simulated components of a single experiment share one CloudEnv.
class CloudEnv {
 public:
  explicit CloudEnv(const CloudConfig& config = CloudConfig())
      : config_(config),
        deployment_(config.arch),
        meter_(config.pricing),
        injector_(config.faults, config.seed, &meter_),
        breaker_(config.breaker, &meter_, &tracer_),
        s3_(config.s3, &meter_, &injector_, &metrics_),
        dynamodb_(EffectiveDynamoConfig(config), &meter_, &injector_,
                  &metrics_),
        simpledb_(config.simpledb, &meter_, &injector_, &metrics_),
        sqs_(config.sqs, &meter_, &injector_, &metrics_),
        autoscaler_(EffectiveAutoscale(config), &dynamodb_, &meter_,
                    &metrics_, &tracer_),
        rng_(config.seed) {
    if (autoscaler_.active()) dynamodb_.set_autoscaler(&autoscaler_);
  }

  /// The per-table DynamoDB capacity implied by the deployment shape: a
  /// sharded deployment provisions each logical table's rates on every
  /// shard (so the pool scales with the shard count), replicas multiply
  /// the read pool, and on-demand mode swaps provisioned rental for
  /// per-request billing behind a burst ceiling that starts at twice the
  /// configured baseline.  The default spec returns `config.dynamodb`
  /// unchanged.
  static DynamoDbConfig EffectiveDynamoConfig(const CloudConfig& config) {
    DynamoDbConfig ddb = config.dynamodb;
    const ArchitectureSpec& arch = config.arch;
    const int shards = arch.shards < 1 ? 1 : arch.shards;
    const int replicas = arch.replicas < 0 ? 0 : arch.replicas;
    if (ddb.write_units_per_second > 0) {
      ddb.write_units_per_second *= shards;
    }
    if (ddb.read_units_per_second > 0) {
      ddb.read_units_per_second *= shards * (1 + replicas);
    }
    if (arch.capacity == CapacityMode::kOnDemand) {
      ddb.on_demand = true;
      if (ddb.write_units_per_second > 0) ddb.write_units_per_second *= 2;
      if (ddb.read_units_per_second > 0) ddb.read_units_per_second *= 2;
    }
    return ddb;
  }

  /// On-demand capacity has no provisioned rates to move, so the
  /// autoscaler is force-disabled under it (the burst ceiling plays its
  /// role); otherwise the configured policy passes through.
  static AutoscalerConfig EffectiveAutoscale(const CloudConfig& config) {
    AutoscalerConfig autoscale = config.autoscale;
    if (config.arch.capacity == CapacityMode::kOnDemand) {
      autoscale.enabled = false;
      autoscale.bill_capacity = false;
    }
    return autoscale;
  }

  CloudEnv(const CloudEnv&) = delete;
  CloudEnv& operator=(const CloudEnv&) = delete;

  const CloudConfig& config() const { return config_; }
  Deployment& deployment() { return deployment_; }
  const Deployment& deployment() const { return deployment_; }
  UsageMeter& meter() { return meter_; }
  ObjectStore& s3() { return s3_; }
  DynamoDb& dynamodb() { return dynamodb_; }
  SimpleDb& simpledb() { return simpledb_; }
  QueueService& sqs() { return sqs_; }
  Rng& rng() { return rng_; }
  FaultInjector& fault_injector() { return injector_; }
  CircuitBreaker& breaker() { return breaker_; }
  Autoscaler& autoscaler() { return autoscaler_; }
  common::MetricRegistry& metrics() { return metrics_; }
  common::Tracer& tracer() { return tracer_; }
  MaintenanceState& maintenance() { return maintenance_; }
  const MaintenanceState& maintenance() const { return maintenance_; }

  /// Mirrors every Usage field into a `usage.<field>` gauge so readers
  /// that only speak the registry (webdex stats, bench rows, Prometheus
  /// scrapes) see the same numbers the billing meter holds.  Usage stays
  /// the source of truth; call this before reading the gauges.
  void PublishUsageMetrics() {
    meter_.usage().ForEachField([this](const char* name, auto value) {
      metrics_.GetGauge(std::string("usage.") + name)
          ->Set(static_cast<double>(value));
    });
    const ArchitectureSpec& arch = deployment_.spec();
    metrics_.GetGauge("deploy.shards")->Set(arch.shards);
    metrics_.GetGauge("deploy.replicas")->Set(arch.replicas);
    metrics_.GetGauge("deploy.ondemand")
        ->Set(arch.capacity == CapacityMode::kOnDemand ? 1 : 0);
    metrics_.GetGauge("deploy.replication_lag_us")
        ->Set(static_cast<double>(arch.replication_lag));
  }

 private:
  CloudConfig config_;
  /// Shard routing, physical naming and replication watermarks shared by
  /// the decorator stores, the planner and snapshot v5.
  Deployment deployment_;
  UsageMeter meter_;
  /// Declared before the services so their ctors may resolve metric
  /// handles; same single-event-loop-thread contract as `meter_`.
  common::MetricRegistry metrics_;
  common::Tracer tracer_;
  FaultInjector injector_;
  CircuitBreaker breaker_;
  ObjectStore s3_;
  DynamoDb dynamodb_;
  SimpleDb simpledb_;
  QueueService sqs_;
  /// After dynamodb_: re-provisions its limiters and observes its
  /// consumption (set_autoscaler back-pointer wired in the ctor body).
  Autoscaler autoscaler_;
  Rng rng_;
  MaintenanceState maintenance_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_CLOUD_ENV_H_
