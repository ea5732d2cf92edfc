#ifndef WEBDEX_CLOUD_QUEUE_SERVICE_H_
#define WEBDEX_CLOUD_QUEUE_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/billed_call.h"
#include "cloud/sim.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace webdex::cloud {

/// A message delivered by `QueueService::Receive`.
struct ReceivedMessage {
  std::string body;
  /// Receipt handle identifying this *delivery*; pass it to Delete or
  /// RenewLease.  A later redelivery of the same message carries a fresh
  /// receipt and invalidates this one.
  uint64_t receipt = 0;
  /// How many times this message has been delivered (1 on the first
  /// delivery).  Greater than 1 signals a redelivery after a worker crash
  /// or an expired lease, which is how the paper's architecture obtains
  /// fault tolerance (Section 3).
  int delivery_count = 0;
};

struct QueueServiceConfig {
  Micros request_latency = 4'000;
  /// How long a received message stays invisible before the service
  /// assumes the worker died and makes it deliverable again.
  Micros visibility_timeout = 120 * kMicrosPerSecond;
};

/// Simulated Amazon SQS: named queues with at-least-once delivery and
/// visibility timeouts.  The warehouse uses three queues (Section 3):
/// loader requests, query requests and query responses.
///
/// Every billed API call (send, receive — including empty receives —
/// delete, lease renewal) advances the caller's virtual clock and
/// increments the usage meter, because SQS charges per request (QS$ in
/// Table 3).
class QueueService {
 public:
  /// `injector` may be null (no fault injection); `metrics` may be null
  /// (no per-op `service.sqs.*` metrics).
  QueueService(const QueueServiceConfig& config, UsageMeter* meter,
               FaultInjector* injector = nullptr,
               common::MetricRegistry* metrics = nullptr);

  QueueService(const QueueService&) = delete;
  QueueService& operator=(const QueueService&) = delete;

  Status CreateQueue(const std::string& queue);

  /// Enqueues a message; it becomes immediately visible.
  Status Send(SimAgent& agent, const std::string& queue, std::string body);

  /// Delivers the oldest message visible at the agent's current virtual
  /// time, starting its visibility timeout; returns nullopt (still billed)
  /// if nothing is deliverable right now.
  Result<std::optional<ReceivedMessage>> Receive(SimAgent& agent,
                                                 const std::string& queue);

  /// Acknowledges (permanently removes) a delivered message.  Fails with
  /// NotFound if the receipt is stale — i.e. the lease expired and the
  /// message was redelivered to someone else, exactly SQS's behaviour.
  Status Delete(SimAgent& agent, const std::string& queue, uint64_t receipt);

  /// Extends the visibility timeout of an in-flight message from the
  /// agent's current time.
  Status RenewLease(SimAgent& agent, const std::string& queue,
                    uint64_t receipt);

  /// True when the queue holds no messages at all (neither visible nor
  /// in flight).  Metadata-only: not billed, used by the scheduler.
  bool Drained(const std::string& queue) const;

  /// Earliest virtual time at which some message will be deliverable, or
  /// nullopt if the queue is drained.  Metadata-only (scheduler use).
  std::optional<Micros> NextDeliverableAt(const std::string& queue) const;

  /// Number of undeleted messages (visible + in flight).  Metadata-only.
  size_t Count(const std::string& queue) const;

  /// Bodies of every undeleted message (visible and in flight), oldest
  /// first.  Metadata-only, not billed: host-side tooling used by the
  /// extraction pipeline to speculate on upcoming work without touching
  /// the at-least-once delivery protocol.
  std::vector<std::string> PeekBodies(const std::string& queue) const;

 private:
  struct PendingMessage {
    std::string body;
    Micros visible_at = 0;   // deliverable when agent time >= visible_at
    uint64_t receipt = 0;    // receipt of the current delivery, 0 if none
    int delivery_count = 0;
  };

  QueueServiceConfig config_;
  UsageMeter* meter_;
  ServiceEndpoint endpoint_;
  OpMetrics send_metrics_;
  OpMetrics receive_metrics_;
  OpMetrics delete_metrics_;
  OpMetrics renew_metrics_;
  uint64_t next_receipt_ = 1;
  std::map<std::string, std::deque<PendingMessage>> queues_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_QUEUE_SERVICE_H_
