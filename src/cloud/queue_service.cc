#include "cloud/queue_service.h"

#include <algorithm>

namespace webdex::cloud {

QueueService::QueueService(const QueueServiceConfig& config, UsageMeter& meter,
                           FaultInjector& injector,
                           common::MetricRegistry& metrics)
    : config_(config),
      meter_(meter),
      endpoint_{ServiceId::kSqs, meter, injector, config.request_latency},
      send_metrics_(OpMetrics::For(metrics, "service.sqs.send")),
      receive_metrics_(OpMetrics::For(metrics, "service.sqs.receive")),
      delete_metrics_(OpMetrics::For(metrics, "service.sqs.delete")),
      renew_metrics_(OpMetrics::For(metrics, "service.sqs.renew")) {}

Status QueueService::CreateQueue(const std::string& queue) {
  auto [it, inserted] = queues_.try_emplace(queue);
  (void)it;
  if (!inserted) return Status::AlreadyExists("queue exists: " + queue);
  return Status::OK();
}

Status QueueService::Send(SimAgent& agent, const std::string& queue,
                          std::string body) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("no such queue: " + queue);
  BilledCall call(endpoint_, agent, send_metrics_, &Usage::sqs_requests);
  call.Settle();  // before the gate: an outage check sees now + latency
  // A faulted send is billed, and nothing is enqueued.
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("sqs.send:", queue));
  Micros delay = 0;
  if (FaultInjector* injector = endpoint_.active_injector()) {
    delay = injector->DeliveryDelay(ServiceId::kSqs, "sqs.delay:" + queue);
  }
  call.Succeed();
  PendingMessage msg;
  msg.body = std::move(body);
  msg.visible_at = agent.now() + delay;
  it->second.push_back(std::move(msg));
  return Status::OK();
}

Result<std::optional<ReceivedMessage>> QueueService::Receive(
    SimAgent& agent, const std::string& queue) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("no such queue: " + queue);
  BilledCall call(endpoint_, agent, receive_metrics_, &Usage::sqs_requests);
  call.Settle();  // before the gate: an outage check sees now + latency
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("sqs.receive:", queue));
  call.Succeed();
  for (auto& msg : it->second) {
    if (msg.visible_at <= agent.now()) {
      msg.visible_at = agent.now() + config_.visibility_timeout;
      msg.receipt = next_receipt_++;
      msg.delivery_count += 1;
      if (msg.delivery_count > 1) meter_.mutable_usage().sqs_redeliveries += 1;
      ReceivedMessage out;
      out.body = msg.body;
      out.receipt = msg.receipt;
      out.delivery_count = msg.delivery_count;
      FaultInjector* injector = endpoint_.active_injector();
      if (injector != nullptr &&
          injector->ShouldDuplicate(ServiceId::kSqs, "sqs.dup:" + queue)) {
        // At-least-once duplicate: the message stays deliverable, so the
        // receipt just handed out is already stale — this delivery's
        // Delete will hit "receipt expired" and the work is redone.
        msg.visible_at = agent.now();
      }
      return std::optional<ReceivedMessage>(std::move(out));
    }
  }
  return std::optional<ReceivedMessage>(std::nullopt);
}

Status QueueService::Delete(SimAgent& agent, const std::string& queue,
                            uint64_t receipt) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("no such queue: " + queue);
  BilledCall call(endpoint_, agent, delete_metrics_, &Usage::sqs_requests);
  call.Settle();  // before the gate: an outage check sees now + latency
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("sqs.delete:", queue));
  call.Succeed();
  auto& msgs = it->second;
  for (auto iter = msgs.begin(); iter != msgs.end(); ++iter) {
    if (iter->receipt == receipt && receipt != 0) {
      // A receipt is only honoured while its lease is still running; after
      // expiry the message may have been handed to another worker.
      if (iter->visible_at <= agent.now()) {
        return Status::NotFound("receipt expired");
      }
      msgs.erase(iter);
      return Status::OK();
    }
  }
  return Status::NotFound("unknown receipt");
}

Status QueueService::RenewLease(SimAgent& agent, const std::string& queue,
                                uint64_t receipt) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("no such queue: " + queue);
  BilledCall call(endpoint_, agent, renew_metrics_, &Usage::sqs_requests);
  call.Settle();  // before the gate: an outage check sees now + latency
  WEBDEX_RETURN_IF_ERROR(call.FaultGate("sqs.renew:", queue));
  call.Succeed();
  for (auto& msg : it->second) {
    if (msg.receipt == receipt && receipt != 0) {
      if (msg.visible_at <= agent.now()) {
        return Status::NotFound("receipt expired");
      }
      msg.visible_at = agent.now() + config_.visibility_timeout;
      return Status::OK();
    }
  }
  return Status::NotFound("unknown receipt");
}

bool QueueService::Drained(const std::string& queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() || it->second.empty();
}

std::optional<Micros> QueueService::NextDeliverableAt(
    const std::string& queue) const {
  auto it = queues_.find(queue);
  if (it == queues_.end() || it->second.empty()) return std::nullopt;
  Micros earliest = it->second.front().visible_at;
  for (const auto& msg : it->second) {
    earliest = std::min(earliest, msg.visible_at);
  }
  return earliest;
}

size_t QueueService::Count(const std::string& queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.size();
}

std::vector<std::string> QueueService::PeekBodies(
    const std::string& queue) const {
  std::vector<std::string> bodies;
  auto it = queues_.find(queue);
  if (it == queues_.end()) return bodies;
  bodies.reserve(it->second.size());
  for (const auto& msg : it->second) bodies.push_back(msg.body);
  return bodies;
}

}  // namespace webdex::cloud
