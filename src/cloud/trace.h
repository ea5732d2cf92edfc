#ifndef WEBDEX_CLOUD_TRACE_H_
#define WEBDEX_CLOUD_TRACE_H_

#include <string>
#include <string_view>

#include "cloud/sim.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// RAII span over virtual time *and* metered usage.  Snapshots the meter
/// at construction and attributes the delta when the span ends: one
/// `usage.<field>` attribute per non-zero field plus the conventional
/// `usd` attribute holding the delta's metered bill, which
/// common::Tracer::CostRollup prices subtrees with.  Because the event
/// loop meters single-threadedly, a parent span's delta is exactly the
/// sum of its children's deltas plus whatever it metered itself — the
/// invariant behind the cost-rollup acceptance check in
/// observability_test.cc.
///
/// With the tracer disabled (the default) construction is one branch and
/// no snapshot is taken.
class MeteredSpan {
 public:
  MeteredSpan(common::Tracer& tracer, UsageMeter& meter,
              const SimAgent& agent, std::string_view name);
  ~MeteredSpan() { End(); }
  MeteredSpan(const MeteredSpan&) = delete;
  MeteredSpan& operator=(const MeteredSpan&) = delete;

  /// Idempotent early close (the destructor calls it too).
  void End();

  void AddAttr(std::string_view key, double value);
  uint64_t id() const { return id_; }

 private:
  common::Tracer& tracer_;
  UsageMeter& meter_;
  const SimAgent& agent_;
  uint64_t id_ = 0;
  Usage before_;
};

/// Per-operation service metrics: `<prefix>.requests`, `<prefix>.errors`
/// and `<prefix>.latency_us` (virtual time observed by the calling
/// agent, rate-limiter waits included).  Services resolve these once at
/// construction.
struct OpMetrics {
  common::Counter& requests;
  common::Counter& errors;
  common::Histogram& latency;

  static OpMetrics For(common::MetricRegistry& registry,
                       const std::string& prefix);

  /// Records one operation that started at agent time `start`.
  void Record(const SimAgent& agent, Micros start, bool error) const;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_TRACE_H_
