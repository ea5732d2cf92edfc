#include "cloud/dynamodb.h"

#include "cloud/autoscaler.h"
#include "cloud/fault.h"
#include "common/strings.h"

namespace webdex::cloud {

DynamoDb::DynamoDb(const DynamoDbConfig& config, UsageMeter* meter,
                   FaultInjector* injector, common::MetricRegistry* metrics)
    : ItemStore("DynamoDB", "table",
                {.max_item_bytes = 64 * 1024,
                 .max_value_bytes = 64 * 1024,
                 .binary_values = true,
                 .batch_put = 25,
                 .batch_get = 100,
                 .max_values_per_item = 1 << 20},
                kItemOverheadBytes, /*value_overhead_bytes=*/0),
      config_(config),
      meter_(meter),
      endpoint_{ServiceId::kDynamoDb, meter, injector, config.request_latency,
                metrics == nullptr
                    ? nullptr
                    : metrics->GetCounter("service.dynamodb.throttled.count")},
      batch_put_metrics_(OpMetrics::For(metrics, "service.dynamodb.batch_put")),
      batch_get_metrics_(OpMetrics::For(metrics, "service.dynamodb.batch_get")),
      scan_metrics_(OpMetrics::For(metrics, "service.dynamodb.scan")),
      delete_metrics_(OpMetrics::For(metrics, "service.dynamodb.delete_item")),
      create_table_metrics_(
          OpMetrics::For(metrics, "service.dynamodb.create_table")),
      write_limiter_(config.write_units_per_second),
      read_limiter_(config.read_units_per_second) {
  if (config_.on_demand) {
    ondemand_.write_ceiling = config_.write_units_per_second;
    ondemand_.read_ceiling = config_.read_units_per_second;
  }
}

Status DynamoDb::CreateTable(SimAgent& agent, const std::string& table) {
  // A faulted create bills its API round trip like every other faulted
  // control call; a successful create is free and instantaneous (AWS
  // control plane), which keeps fault-free runs bit-identical.
  BilledCall call(endpoint_, agent, create_table_metrics_,
                  &Usage::ddb_put_requests);
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("ddb.createtable:", table));
  Status created = Create(table);
  call.Record(/*error=*/!created.ok());
  return created;
}

double DynamoDb::WriteUnits(uint64_t item_bytes) {
  const double size = static_cast<double>(item_bytes);
  return (size < kMinWriteBytes ? kMinWriteBytes : size) / 1024.0;
}

double DynamoDb::ReadUnits(uint64_t item_bytes) {
  const double size = static_cast<double>(item_bytes);
  return (size < kMinReadBytes ? kMinReadBytes : size) / 4096.0;
}

void DynamoDb::SetProvisionedCapacity(double write_units_per_second,
                                      double read_units_per_second,
                                      Micros at) {
  config_.write_units_per_second = write_units_per_second;
  config_.read_units_per_second = read_units_per_second;
  write_limiter_.SetRate(write_units_per_second, at);
  read_limiter_.SetRate(read_units_per_second, at);
}

void DynamoDb::OnDemandTick(Micros now) {
  if (!config_.on_demand) return;
  constexpr Micros kWindow = kMicrosPerSecond;
  while (now >= ondemand_.window_start + kWindow) {
    const Micros boundary = ondemand_.window_start + kWindow;
    // One window's consumption over one second IS the sustained rate.
    if (ondemand_.window_write_units > ondemand_.peak_write) {
      ondemand_.peak_write = ondemand_.window_write_units;
    }
    if (ondemand_.window_read_units > ondemand_.peak_read) {
      ondemand_.peak_read = ondemand_.window_read_units;
    }
    const double write_target = 2.0 * ondemand_.peak_write;
    const double read_target = 2.0 * ondemand_.peak_read;
    if (write_target > ondemand_.write_ceiling) {
      ondemand_.write_ceiling = write_target;
      config_.write_units_per_second = write_target;
      write_limiter_.SetRate(write_target, boundary);
    }
    if (read_target > ondemand_.read_ceiling) {
      ondemand_.read_ceiling = read_target;
      config_.read_units_per_second = read_target;
      read_limiter_.SetRate(read_target, boundary);
    }
    ondemand_.window_write_units = 0;
    ondemand_.window_read_units = 0;
    ondemand_.window_start = boundary;
    // After one settled window the remaining gap is all-idle; jump to
    // the last full boundary instead of iterating second by second.
    if (now >= ondemand_.window_start + 2 * kWindow) {
      ondemand_.window_start =
          now - ((now - ondemand_.window_start) % kWindow) - kWindow;
    }
  }
}

void DynamoDb::MeterWriteUnits(double units) {
  if (config_.on_demand) {
    meter_->mutable_usage().ddb_ondemand_write_units += units;
    meter_->mutable_usage().ondemand_requests += 1;
    ondemand_.window_write_units += units;
  } else {
    meter_->mutable_usage().ddb_write_units += units;
  }
  if (autoscaler_ != nullptr) autoscaler_->ObserveWrite(units);
}

void DynamoDb::MeterReadUnits(double units) {
  if (config_.on_demand) {
    meter_->mutable_usage().ddb_ondemand_read_units += units;
    meter_->mutable_usage().ondemand_requests += 1;
    ondemand_.window_read_units += units;
  } else {
    meter_->mutable_usage().ddb_read_units += units;
  }
  if (autoscaler_ != nullptr) autoscaler_->ObserveRead(units);
}

void DynamoDb::RestoreOnDemand(const OnDemandState& state) {
  ondemand_ = state;
  if (!config_.on_demand) return;
  if (state.write_ceiling > 0) {
    config_.write_units_per_second = state.write_ceiling;
    write_limiter_.SetRate(state.write_ceiling, state.window_start);
  }
  if (state.read_ceiling > 0) {
    config_.read_units_per_second = state.read_ceiling;
    read_limiter_.SetRate(state.read_ceiling, state.window_start);
  }
}

Status DynamoDb::Admit(BilledCall& call, std::string_view site,
                       const std::string& table, const RateLimiter& limiter,
                       bool write) {
  WEBDEX_RETURN_IF_ERROR(call.FaultGate(site, table));
  // The control loop advances on every billed call, throttled or not, so
  // capacity can change at a window boundary *before* this request is
  // judged against the (possibly new) backlog.
  if (autoscaler_ != nullptr) autoscaler_->Tick(call.now());
  OnDemandTick(call.now());
  Status throttled = call.ThrottleGate(limiter, config_.max_backlog_micros,
                                       "provisioned throughput exceeded");
  if (!throttled.ok() && autoscaler_ != nullptr) {
    autoscaler_->ObserveThrottle(write);
  }
  return throttled;
}

Status DynamoDb::ValidateItem(const Item& item) const {
  if (item.hash_key.empty()) {
    return Status::InvalidArgument("empty hash key");
  }
  if (item.range_key.empty()) {
    return Status::InvalidArgument("empty range key");
  }
  if (item.hash_key.size() > 2048) {
    return Status::InvalidArgument("hash key exceeds 2KB");
  }
  if (item.range_key.size() > 1024) {
    return Status::InvalidArgument("range key exceeds 1KB");
  }
  if (item.SizeBytes() > Limits().max_item_bytes) {
    return Status::InvalidArgument(
        StrFormat("item exceeds 64KB (%llu bytes) for hash key %s",
                  static_cast<unsigned long long>(item.SizeBytes()),
                  item.hash_key.c_str()));
  }
  return Status::OK();
}

Status DynamoDb::BatchPut(SimAgent& agent, const std::string& table,
                          std::span<const Item> items,
                          std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  WEBDEX_ASSIGN_OR_RETURN(ItemTable* t, Open(table));
  for (const auto& item : items) {
    WEBDEX_RETURN_IF_ERROR(ValidateItem(item));
  }
  FaultInjector* injector = endpoint_.active_injector();
  const int batch_limit = Limits().batch_put;
  size_t index = 0;
  while (index < items.size()) {
    const size_t batch_end =
        std::min(items.size(), index + static_cast<size_t>(batch_limit));
    // A rejected page (fault or throttle) consumes no write capacity (AWS
    // rejects before writing); everything not yet stored is reported back.
    BilledCall call(endpoint_, agent, batch_put_metrics_,
                    &Usage::ddb_put_requests);
    Status admitted =
        Admit(call, "ddb.batchput:", table, write_limiter_, /*write=*/true);
    if (!admitted.ok()) {
      if (unprocessed != nullptr) {
        unprocessed->insert(unprocessed->end(), items.begin() + index,
                            items.end());
      }
      return admitted;
    }
    size_t commit_end = batch_end;
    if (injector != nullptr && unprocessed != nullptr) {
      // Partial batch failure: the page "succeeds" but a trailing subset
      // comes back as UnprocessedItems the caller must re-batch.  Only
      // injected when the caller can observe it.
      const size_t bounced =
          injector->UnprocessedCount(ServiceId::kDynamoDb,
                                     "ddb.unprocessed:" + table,
                                     batch_end - index);
      commit_end = batch_end - bounced;
    }
    double batch_units = 0;
    for (size_t i = index; i < commit_end; ++i) {
      t->Put(items[i]);
      batch_units += WriteUnits(items[i].SizeBytes());
    }
    meter_->mutable_usage().ddb_items_written += commit_end - index;
    MeterWriteUnits(batch_units);
    call.Succeed({&write_limiter_, batch_units});
    if (commit_end < batch_end) {
      unprocessed->insert(unprocessed->end(), items.begin() + commit_end,
                          items.begin() + batch_end);
    }
    index = batch_end;
  }
  return Status::OK();
}

Result<std::vector<Item>> DynamoDb::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  WEBDEX_ASSIGN_OR_RETURN(const ItemTable* t, Open(table));
  std::vector<Item> out;
  const int batch_limit = Limits().batch_get;
  size_t index = 0;
  while (index < hash_keys.size()) {
    const size_t batch_end = std::min(
        hash_keys.size(), index + static_cast<size_t>(batch_limit));
    BilledCall call(endpoint_, agent, batch_get_metrics_,
                    &Usage::ddb_get_requests);
    WEBDEX_RETURN_IF_ERROR(
        Admit(call, "ddb.batchget:", table, read_limiter_, /*write=*/false));
    double units = 0;
    for (size_t i = index; i < batch_end; ++i) {
      const size_t first = out.size();
      t->AppendItems(hash_keys[i], &out);
      for (size_t j = first; j < out.size(); ++j) {
        units += ReadUnits(out[j].SizeBytes());
      }
    }
    if (units == 0) units = ReadUnits(0);  // a miss still does a seek
    MeterReadUnits(units);
    call.Succeed({&read_limiter_, units});
    index = batch_end;
  }
  return out;
}

Result<std::vector<Item>> DynamoDb::Scan(SimAgent& agent,
                                        const std::string& table) {
  WEBDEX_ASSIGN_OR_RETURN(const ItemTable* t, Open(table));
  std::vector<Item> out;
  t->AppendAll(&out);
  // Page through at the 1 MB scan limit; every page is a billed request
  // that consumes read capacity for the bytes it returns.
  constexpr uint64_t kScanPageBytes = 1024 * 1024;
  size_t index = 0;
  do {
    BilledCall call(endpoint_, agent, scan_metrics_, &Usage::ddb_get_requests);
    WEBDEX_RETURN_IF_ERROR(
        Admit(call, "ddb.scan:", table, read_limiter_, /*write=*/false));
    uint64_t page_bytes = 0;
    double units = 0;
    while (index < out.size() && page_bytes < kScanPageBytes) {
      const uint64_t bytes = out[index].SizeBytes();
      page_bytes += bytes;
      units += ReadUnits(bytes);
      ++index;
    }
    if (units == 0) units = ReadUnits(0);  // an empty table still seeks
    MeterReadUnits(units);
    call.Succeed({&read_limiter_, units});
  } while (index < out.size());
  return out;
}

Status DynamoDb::DeleteItem(SimAgent& agent, const std::string& table,
                            const std::string& hash_key,
                            const std::string& range_key) {
  WEBDEX_ASSIGN_OR_RETURN(ItemTable* t, Open(table));
  BilledCall call(endpoint_, agent, delete_metrics_, &Usage::ddb_put_requests);
  WEBDEX_RETURN_IF_ERROR(
      Admit(call, "ddb.delete:", table, write_limiter_, /*write=*/true));
  // Deletes consume write capacity sized by the deleted item (AWS);
  // deleting an absent key still pays the minimum.
  const double units = WriteUnits(t->Erase(hash_key, range_key).value_or(0));
  MeterWriteUnits(units);
  call.Succeed({&write_limiter_, units});
  return Status::OK();
}

}  // namespace webdex::cloud
