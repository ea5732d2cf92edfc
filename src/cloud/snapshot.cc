#include "cloud/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/varint.h"

namespace webdex::cloud {
namespace {

// The one snapshot format: the durable stores, then the chaos sections
// (FaultInjector stream cursors, circuit-breaker trackers), the
// maintenance section (compaction cursor, generation watermark), the
// autoscaler control-loop state and the deployment section (architecture
// spec, replication watermarks, on-demand burst-ceiling state), so every
// run resumes bit-identically.  Any other header is rejected.
constexpr char kMagic[] = "WDXSNAP5";
constexpr size_t kMagicLen = 8;

// Doubles travel as the varint of their IEEE-754 bit pattern: exact
// round-trip, no locale/format ambiguity.
void PutDouble(std::string* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutVarint64(out, bits);
}

Result<double> GetDouble(const std::string& data, size_t* offset) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t bits, GetVarint64(data, offset));
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void PutString(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string> GetString(const std::string& data, size_t* offset) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t length, GetVarint64(data, offset));
  if (length > data.size() - *offset) {
    return Status::Corruption("truncated string in snapshot");
  }
  std::string out = data.substr(*offset, length);
  *offset += length;
  return out;
}

void SerializeKvStore(const KvStore& store, std::string* out) {
  const auto tables = store.TableNames();
  PutVarint64(out, tables.size());
  for (const auto& table : tables) PutString(out, table);
  uint64_t item_count = 0;
  for (const auto& table : tables) item_count += store.ItemCount(table);
  PutVarint64(out, item_count);
  for (const auto& table : tables) {
    store.ForEachItem(table, [&](const ItemView& item) {
      PutString(out, table);
      PutString(out, item.hash_key);
      // The rest of an item's section is its record's attribute bytes.
      PutString(out, item.range_key());
      out->append(item.record().substr(item.range_key().size()));
    });
  }
}

Status RestoreKvStore(const std::string& data, size_t* offset,
                      KvStore* store) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t table_count, GetVarint64(data, offset));
  for (uint64_t t = 0; t < table_count; ++t) {
    WEBDEX_ASSIGN_OR_RETURN(std::string table, GetString(data, offset));
    WEBDEX_RETURN_IF_ERROR(store->RestoreTable(table));
  }
  WEBDEX_ASSIGN_OR_RETURN(uint64_t item_count, GetVarint64(data, offset));
  for (uint64_t i = 0; i < item_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string table, GetString(data, offset));
    WEBDEX_ASSIGN_OR_RETURN(std::string hash_key, GetString(data, offset));
    WEBDEX_ASSIGN_OR_RETURN(std::string range_key, GetString(data, offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t attr_count, GetVarint64(data, offset));
    ItemBuilder builder(std::move(hash_key), range_key, attr_count);
    for (uint64_t a = 0; a < attr_count; ++a) {
      WEBDEX_ASSIGN_OR_RETURN(std::string name, GetString(data, offset));
      WEBDEX_ASSIGN_OR_RETURN(uint64_t value_count,
                              GetVarint64(data, offset));
      builder.AddAttribute(name, value_count);
      for (uint64_t v = 0; v < value_count; ++v) {
        WEBDEX_ASSIGN_OR_RETURN(std::string value, GetString(data, offset));
        builder.AddValue(value);
      }
    }
    const Item item = std::move(builder).Build();
    if (!store->HasTable(table)) {
      return Status::Corruption("snapshot item references unknown table");
    }
    store->RestoreItem(table, item);
  }
  return Status::OK();
}

}  // namespace

std::string SerializeSnapshot(CloudEnv& env) {
  std::string out(kMagic, kMagicLen);

  // File store section: bucket names first (so empty buckets survive),
  // then the objects.
  const auto buckets = env.s3().BucketNames();
  PutVarint64(&out, buckets.size());
  for (const auto& bucket : buckets) PutString(&out, bucket);
  uint64_t object_count = 0;
  for (const auto& bucket : buckets) {
    object_count += env.s3().ObjectCount(bucket);
  }
  PutVarint64(&out, object_count);
  env.s3().ForEachObject([&](const std::string& bucket,
                             const std::string& key,
                             const std::string& data) {
    PutString(&out, bucket);
    PutString(&out, key);
    PutString(&out, data);
  });

  // Index store sections.
  SerializeKvStore(env.dynamodb(), &out);
  SerializeKvStore(env.simpledb(), &out);

  // Chaos sections: injector stream cursors, then breaker trackers, so a
  // restored run resumes the identical fault schedule mid-stream.
  const auto streams = env.fault_injector().SaveStreams();
  PutVarint64(&out, streams.size());
  for (const auto& [site, state] : streams) {
    PutString(&out, site);
    for (uint64_t word : state) PutVarint64(&out, word);
  }
  const auto trackers = env.breaker().SaveTrackers();
  PutVarint64(&out, trackers.size());
  for (const auto& [resource, tracker] : trackers) {
    PutString(&out, resource);
    PutVarint64(&out, static_cast<uint64_t>(tracker.state));
    PutVarint64(&out, static_cast<uint64_t>(tracker.consecutive_failures));
    PutVarint64(&out, static_cast<uint64_t>(tracker.consecutive_successes));
    PutVarint64(&out, static_cast<uint64_t>(tracker.opened_at));
  }

  // Maintenance section: the compaction resume cursor and the
  // mutation-generation watermark are durable like the stores — a
  // crashed compaction resumes after restore, and new mutations keep
  // stamping monotonically above everything ever allocated.
  PutString(&out, env.maintenance().compact_cursor);
  PutVarint64(&out, env.maintenance().generation_watermark);

  // Autoscaler section: durable control-loop state.  All zeros when
  // the autoscaler is inactive; restoring that is a no-op.
  const AutoscalerState& scaler = env.autoscaler().state();
  PutDouble(&out, scaler.write_units);
  PutDouble(&out, scaler.read_units);
  PutVarint64(&out, static_cast<uint64_t>(scaler.window_start));
  PutVarint64(&out, static_cast<uint64_t>(scaler.last_scale_up));
  PutVarint64(&out, static_cast<uint64_t>(scaler.last_scale_down));
  PutDouble(&out, scaler.window_write_units);
  PutDouble(&out, scaler.window_read_units);
  PutVarint64(&out, scaler.window_write_throttles);
  PutVarint64(&out, scaler.window_read_throttles);
  PutVarint64(&out, scaler.started);

  // Deployment section: the architecture spec (so restore can refuse
  // an incompatible environment), the replication watermarks, and the
  // on-demand burst-ceiling trajectory.
  const ArchitectureSpec& arch = env.deployment().spec();
  PutVarint64(&out, static_cast<uint64_t>(arch.capacity));
  PutVarint64(&out, static_cast<uint64_t>(arch.shards));
  PutVarint64(&out, static_cast<uint64_t>(arch.replicas));
  PutVarint64(&out, static_cast<uint64_t>(arch.replication_lag));
  const auto& watermarks = env.deployment().watermarks();
  PutVarint64(&out, watermarks.size());
  for (const auto& [table, at] : watermarks) {
    PutString(&out, table);
    PutVarint64(&out, static_cast<uint64_t>(at));
  }
  const DynamoDb::OnDemandState& ondemand = env.dynamodb().ondemand_state();
  PutDouble(&out, ondemand.write_ceiling);
  PutDouble(&out, ondemand.read_ceiling);
  PutDouble(&out, ondemand.peak_write);
  PutDouble(&out, ondemand.peak_read);
  PutVarint64(&out, static_cast<uint64_t>(ondemand.window_start));
  PutDouble(&out, ondemand.window_write_units);
  PutDouble(&out, ondemand.window_read_units);
  return out;
}

namespace {

Status RestoreChaosState(const std::string& snapshot, size_t* offset,
                         CloudEnv* env) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t stream_count,
                          GetVarint64(snapshot, offset));
  std::vector<FaultInjector::StreamState> streams;
  for (uint64_t i = 0; i < stream_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string site, GetString(snapshot, offset));
    std::array<uint64_t, 4> state;
    for (auto& word : state) {
      WEBDEX_ASSIGN_OR_RETURN(word, GetVarint64(snapshot, offset));
    }
    streams.emplace_back(std::move(site), state);
  }
  env->fault_injector().RestoreStreams(streams);

  WEBDEX_ASSIGN_OR_RETURN(uint64_t tracker_count,
                          GetVarint64(snapshot, offset));
  std::vector<CircuitBreaker::TrackerState> trackers;
  for (uint64_t i = 0; i < tracker_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string resource,
                            GetString(snapshot, offset));
    HealthTracker tracker;
    WEBDEX_ASSIGN_OR_RETURN(uint64_t state, GetVarint64(snapshot, offset));
    if (state > static_cast<uint64_t>(BreakerState::kHalfOpen)) {
      return Status::Corruption("invalid breaker state in snapshot");
    }
    tracker.state = static_cast<BreakerState>(state);
    WEBDEX_ASSIGN_OR_RETURN(uint64_t failures, GetVarint64(snapshot, offset));
    tracker.consecutive_failures = static_cast<int>(failures);
    WEBDEX_ASSIGN_OR_RETURN(uint64_t successes,
                            GetVarint64(snapshot, offset));
    tracker.consecutive_successes = static_cast<int>(successes);
    WEBDEX_ASSIGN_OR_RETURN(uint64_t opened_at, GetVarint64(snapshot, offset));
    tracker.opened_at = static_cast<Micros>(opened_at);
    trackers.emplace_back(std::move(resource), tracker);
  }
  env->breaker().RestoreTrackers(trackers);
  return Status::OK();
}

}  // namespace

Status RestoreSnapshot(const std::string& snapshot, CloudEnv* env) {
  if (snapshot.compare(0, kMagicLen, kMagic) != 0) {
    return Status::Corruption("not a webdex snapshot");
  }
  if (!env->s3().Empty() || !env->dynamodb().Empty() ||
      !env->simpledb().Empty()) {
    return Status::AlreadyExists(
        "snapshot must be restored into a fresh CloudEnv");
  }
  size_t offset = kMagicLen;
  WEBDEX_ASSIGN_OR_RETURN(uint64_t bucket_count,
                          GetVarint64(snapshot, &offset));
  for (uint64_t i = 0; i < bucket_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string bucket, GetString(snapshot, &offset));
    env->s3().RestoreBucket(bucket);
  }
  WEBDEX_ASSIGN_OR_RETURN(uint64_t object_count,
                          GetVarint64(snapshot, &offset));
  for (uint64_t i = 0; i < object_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string bucket, GetString(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(std::string key, GetString(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(std::string data, GetString(snapshot, &offset));
    env->s3().RestoreObject(bucket, key, std::move(data));
  }
  WEBDEX_RETURN_IF_ERROR(RestoreKvStore(snapshot, &offset, &env->dynamodb()));
  WEBDEX_RETURN_IF_ERROR(RestoreKvStore(snapshot, &offset, &env->simpledb()));
  WEBDEX_RETURN_IF_ERROR(RestoreChaosState(snapshot, &offset, env));
  WEBDEX_ASSIGN_OR_RETURN(env->maintenance().compact_cursor,
                          GetString(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(env->maintenance().generation_watermark,
                          GetVarint64(snapshot, &offset));
  AutoscalerState scaler;
  WEBDEX_ASSIGN_OR_RETURN(scaler.write_units, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.read_units, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(uint64_t window_start,
                          GetVarint64(snapshot, &offset));
  scaler.window_start = static_cast<Micros>(window_start);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t last_up, GetVarint64(snapshot, &offset));
  scaler.last_scale_up = static_cast<Micros>(last_up);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t last_down,
                          GetVarint64(snapshot, &offset));
  scaler.last_scale_down = static_cast<Micros>(last_down);
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_write_units,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_read_units,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_write_throttles,
                          GetVarint64(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_read_throttles,
                          GetVarint64(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.started, GetVarint64(snapshot, &offset));
  env->autoscaler().Restore(scaler);
  ArchitectureSpec arch;
  WEBDEX_ASSIGN_OR_RETURN(uint64_t capacity, GetVarint64(snapshot, &offset));
  if (capacity > static_cast<uint64_t>(CapacityMode::kOnDemand)) {
    return Status::Corruption("invalid capacity mode in snapshot");
  }
  arch.capacity = static_cast<CapacityMode>(capacity);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t shards, GetVarint64(snapshot, &offset));
  arch.shards = static_cast<int>(shards);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t replicas, GetVarint64(snapshot, &offset));
  arch.replicas = static_cast<int>(replicas);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t lag, GetVarint64(snapshot, &offset));
  arch.replication_lag = static_cast<Micros>(lag);
  // Restoring into a different deployment shape would scatter items
  // across the wrong physical tables; demand an exact match.
  if (!(arch == env->deployment().spec())) {
    return Status::InvalidArgument(
        "snapshot architecture " + arch.Name() +
        " does not match environment " + env->deployment().spec().Name());
  }
  WEBDEX_ASSIGN_OR_RETURN(uint64_t watermark_count,
                          GetVarint64(snapshot, &offset));
  for (uint64_t i = 0; i < watermark_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string table, GetString(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t at, GetVarint64(snapshot, &offset));
    env->deployment().RestoreWatermark(table, static_cast<Micros>(at));
  }
  DynamoDb::OnDemandState ondemand;
  WEBDEX_ASSIGN_OR_RETURN(ondemand.write_ceiling,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.read_ceiling,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.peak_write, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.peak_read, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(uint64_t ondemand_start,
                          GetVarint64(snapshot, &offset));
  ondemand.window_start = static_cast<Micros>(ondemand_start);
  WEBDEX_ASSIGN_OR_RETURN(ondemand.window_write_units,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.window_read_units,
                          GetDouble(snapshot, &offset));
  if (arch.capacity == CapacityMode::kOnDemand) {
    env->dynamodb().RestoreOnDemand(ondemand);
  }
  if (offset != snapshot.size()) {
    return Status::Corruption("trailing bytes in snapshot");
  }
  return Status::OK();
}

Status SaveSnapshotFile(CloudEnv& env, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  const std::string snapshot = SerializeSnapshot(env);
  file.write(snapshot.data(), static_cast<std::streamsize>(snapshot.size()));
  file.flush();
  if (!file) return Status::IOError("failed writing " + path);
  return Status::OK();
}

Status LoadSnapshotFile(const std::string& path, CloudEnv* env) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return RestoreSnapshot(std::move(contents).str(), env);
}

}  // namespace webdex::cloud
