#include "spans.h"

#include <cstdio>

#include "alloc_counter.h"
#include "common/strings.h"

namespace webdex::perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t SpanRecorder::Begin(std::string_view name, uint64_t request) {
  HostSpan span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.request = request;
  span.name = std::string(name);
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  open_allocs_.push_back(AllocCount());
  // Stamp the start last, so the bookkeeping above is not inside the span.
  spans_.back().start_ns = NowNs();
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now = NowNs();
  const uint64_t allocs = AllocCount();
  // Close any inner span left open, then `id` itself.
  while (!open_.empty()) {
    const uint64_t top = open_.back();
    HostSpan& span = spans_[top - 1];
    span.end_ns = now;
    span.allocs = allocs - open_allocs_.back();
    open_.pop_back();
    open_allocs_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, LayerTotals> SpanRecorder::Totals() const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const HostSpan& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerTotals> totals;
  for (const HostSpan& span : spans_) {
    LayerTotals& t = totals[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    t.calls += 1;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - child_ns[span.id]) / 1e6;
    t.allocs += span.allocs;
  }
  return totals;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const HostSpan& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"allocs\":%llu}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 JsonEscape(span.name).c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.allocs));
  }
  return std::fclose(out) == 0;
}

}  // namespace webdex::perfbench
