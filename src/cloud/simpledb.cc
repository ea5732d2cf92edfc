#include "cloud/simpledb.h"

#include <cctype>

#include "cloud/fault.h"
#include "common/strings.h"

namespace webdex::cloud {
namespace {

bool IsTextual(const std::string& value) {
  for (unsigned char c : value) {
    if (c < 0x09) return false;  // NUL and other control bytes
  }
  return true;
}

}  // namespace

SimpleDb::SimpleDb(const SimpleDbConfig& config, UsageMeter* meter,
                   FaultInjector* injector, common::MetricRegistry* metrics)
    : ItemStore("SimpleDB", "domain",
                {.max_item_bytes = 256 * 1024,
                 .max_value_bytes = 1024,
                 .binary_values = false,
                 .batch_put = 25,
                 .batch_get = 20,
                 .max_values_per_item = 255},
                kPerItemOverheadBytes, kPerAttributeOverheadBytes),
      config_(config),
      meter_(meter),
      endpoint_{ServiceId::kSimpleDb, meter, injector, config.request_latency,
                metrics == nullptr
                    ? nullptr
                    : metrics->GetCounter("service.simpledb.throttled.count")},
      batch_put_metrics_(OpMetrics::For(metrics, "service.simpledb.batch_put")),
      get_metrics_(OpMetrics::For(metrics, "service.simpledb.get")),
      scan_metrics_(OpMetrics::For(metrics, "service.simpledb.scan")),
      delete_metrics_(OpMetrics::For(metrics, "service.simpledb.delete_item")),
      create_table_metrics_(
          OpMetrics::For(metrics, "service.simpledb.create_domain")),
      request_limiter_(config.requests_per_second) {}

Status SimpleDb::Admit(BilledCall& call, std::string_view site,
                       const std::string& table) {
  WEBDEX_RETURN_IF_ERROR(call.FaultGate(site, table));
  return call.ThrottleGate(request_limiter_, config_.max_backlog_micros,
                           "request rate exceeded");
}

Status SimpleDb::CreateTable(SimAgent& agent, const std::string& table) {
  // Same contract as DynamoDb::CreateTable: a faulted create bills its
  // round trip, a successful one is free (keeps legacy runs identical).
  BilledCall call(endpoint_, agent, create_table_metrics_,
                  &Usage::sdb_put_requests);
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("sdb.createdomain:", table));
  Status created = Create(table);
  call.Record(/*error=*/!created.ok());
  return created;
}

Status SimpleDb::ValidateItem(const Item& item) const {
  if (item.hash_key.empty() || item.range_key.empty()) {
    return Status::InvalidArgument("empty key");
  }
  if (item.hash_key.size() + item.range_key.size() > 1024) {
    return Status::InvalidArgument("item name exceeds 1KB");
  }
  if (ItemTable::CountValues(item.attrs) > 256) {
    return Status::InvalidArgument("more than 256 attributes per item");
  }
  for (const auto& [name, values] : item.attrs) {
    if (name.size() > Limits().max_value_bytes) {
      return Status::InvalidArgument("attribute name exceeds 1KB");
    }
    for (const auto& v : values) {
      if (v.size() > Limits().max_value_bytes) {
        return Status::InvalidArgument(
            StrFormat("attribute value exceeds 1KB (%zu bytes)", v.size()));
      }
      if (!IsTextual(v)) {
        return Status::InvalidArgument(
            "SimpleDB values must be text; armour binary data first");
      }
    }
  }
  return Status::OK();
}

Status SimpleDb::BatchPut(SimAgent& agent, const std::string& table,
                          std::span<const Item> items,
                          std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  WEBDEX_ASSIGN_OR_RETURN(ItemTable* t, Open(table));
  for (const auto& item : items) {
    WEBDEX_RETURN_IF_ERROR(ValidateItem(item));
  }
  const int batch_limit = Limits().batch_put;
  size_t index = 0;
  while (index < items.size()) {
    const size_t batch_end =
        std::min(items.size(), index + static_cast<size_t>(batch_limit));
    // A rejected page bills its API round trip but no box usage (the
    // data-proportional term); nothing of the page commits, and
    // everything not yet stored is reported back for re-batching.
    BilledCall call(endpoint_, agent, batch_put_metrics_,
                    &Usage::sdb_put_requests);
    Status admitted = Admit(call, "sdb.batchput:", table);
    if (!admitted.ok()) {
      if (unprocessed != nullptr) {
        unprocessed->insert(unprocessed->end(), items.begin() + index,
                            items.end());
      }
      return admitted;
    }
    double box_hours = 0;
    for (size_t i = index; i < batch_end; ++i) {
      t->Put(items[i]);
      box_hours += meter_->pricing().simpledb_box_hours_per_put;
    }
    // SimpleDB bills every item of a batch put as one put request.
    call.Bill(batch_end - index);
    meter_->mutable_usage().sdb_box_hours += box_hours;
    call.Charge({&request_limiter_, 1.0});
    call.Record(/*error=*/false);
    index = batch_end;
  }
  return Status::OK();
}

Status SimpleDb::SelectKey(SimAgent& agent, const std::string& table,
                           const std::string& hash_key,
                           std::vector<Item>* out) {
  WEBDEX_ASSIGN_OR_RETURN(const ItemTable* t, Open(table));
  BilledCall call(endpoint_, agent, get_metrics_, &Usage::sdb_get_requests);
  WEBDEX_RETURN_IF_ERROR(Admit(call, "sdb.get:", table));
  const size_t first = out->size();
  t->AppendItems(hash_key, out);
  // SimpleDB's select paginates at 2500 attributes / 1 MB; model one extra
  // request round trip per page.
  uint64_t attr_total = 0;
  for (size_t i = first; i < out->size(); ++i) {
    attr_total += ItemTable::CountValues((*out)[i].attrs);
  }
  const uint64_t pages = attr_total == 0 ? 1 : (attr_total + 2499) / 2500;
  call.Bill(pages);
  meter_->mutable_usage().sdb_box_hours +=
      meter_->pricing().simpledb_box_hours_per_get *
      static_cast<double>(pages);
  for (uint64_t i = 0; i < pages; ++i) call.Charge({&request_limiter_, 1.0});
  call.Record(/*error=*/false);
  return Status::OK();
}

Result<std::vector<Item>> SimpleDb::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  std::vector<Item> out;
  for (const auto& key : hash_keys) {
    WEBDEX_RETURN_IF_ERROR(SelectKey(agent, table, key, &out));
  }
  return out;
}

Result<std::vector<Item>> SimpleDb::Scan(SimAgent& agent,
                                        const std::string& table) {
  WEBDEX_ASSIGN_OR_RETURN(const ItemTable* t, Open(table));
  std::vector<Item> out;
  t->AppendAll(&out);
  const uint64_t attr_total = t->value_count();
  // A full select paginates at 2500 attributes, like SelectKey.
  const uint64_t pages = attr_total == 0 ? 1 : (attr_total + 2499) / 2500;
  for (uint64_t page = 0; page < pages; ++page) {
    BilledCall call(endpoint_, agent, scan_metrics_, &Usage::sdb_get_requests);
    WEBDEX_RETURN_IF_ERROR(Admit(call, "sdb.scan:", table));
    meter_->mutable_usage().sdb_box_hours +=
        meter_->pricing().simpledb_box_hours_per_get;
    call.Succeed({&request_limiter_, 1.0});
  }
  return out;
}

Status SimpleDb::DeleteItem(SimAgent& agent, const std::string& table,
                            const std::string& hash_key,
                            const std::string& range_key) {
  WEBDEX_ASSIGN_OR_RETURN(ItemTable* t, Open(table));
  BilledCall call(endpoint_, agent, delete_metrics_, &Usage::sdb_put_requests);
  WEBDEX_RETURN_IF_ERROR(Admit(call, "sdb.delete:", table));
  t->Erase(hash_key, range_key);
  meter_->mutable_usage().sdb_box_hours +=
      meter_->pricing().simpledb_box_hours_per_put;
  call.Succeed({&request_limiter_, 1.0});
  return Status::OK();
}

}  // namespace webdex::cloud
