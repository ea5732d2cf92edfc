#include "cloud/trace.h"

namespace webdex::cloud {

MeteredSpan::MeteredSpan(common::Tracer& tracer, UsageMeter& meter,
                         const SimAgent& agent, std::string_view name)
    : tracer_(tracer), meter_(meter), agent_(agent) {
  if (!tracer.enabled()) return;
  id_ = tracer.BeginSpan(name, agent.now());
  before_ = meter.Snapshot();
}

void MeteredSpan::End() {
  if (id_ == 0) return;
  const Usage delta = meter_.usage() - before_;
  delta.ForEachField([&](const char* name, auto value) {
    const double v = static_cast<double>(value);
    if (v != 0) tracer_.AddAttr(id_, std::string("usage.") + name, v);
  });
  tracer_.AddAttr(id_, "usd", meter_.ComputeBill(delta).total());
  tracer_.EndSpan(id_, agent_.now());
  id_ = 0;
}

void MeteredSpan::AddAttr(std::string_view key, double value) {
  if (id_ != 0) tracer_.AddAttr(id_, key, value);
}

OpMetrics OpMetrics::For(common::MetricRegistry& registry,
                         const std::string& prefix) {
  return {*registry.GetCounter(prefix + ".requests"),
          *registry.GetCounter(prefix + ".errors"),
          *registry.GetHistogram(prefix + ".latency_us")};
}

void OpMetrics::Record(const SimAgent& agent, Micros start, bool error) const {
  requests.Add(1);
  if (error) errors.Add(1);
  latency.Record(static_cast<double>(agent.now() - start));
}

}  // namespace webdex::cloud
