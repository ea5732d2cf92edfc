#ifndef WEBDEX_PERFBENCH_SPANS_H_
#define WEBDEX_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace webdex::perfbench {

/// One host-time interval around a benchmark call into a layer.  Spans of
/// one benchmark op (a document or a query) share `request`.
struct HostSpan {
  uint64_t id = 0;      // 1-based creation ordinal
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the recorder's origin
  int64_t end_ns = 0;
  uint64_t allocs = 0;  // operator new calls inside the span, children too
};

/// What the spans of one name add up to.  Self time is each span's
/// duration minus the part its child spans cover.
struct LayerTotals {
  uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
  uint64_t allocs = 0;
};

/// Records host spans in memory on the benchmark's own thread; nesting
/// follows an explicit stack of open spans.  Written out once, as JSONL,
/// when the run ends.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t Begin(std::string_view name, uint64_t request);
  void End(uint64_t id);

  std::map<std::string, LayerTotals> Totals() const;

  /// One JSON object per line, in id order.  False if `path` cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<HostSpan> spans_;  // spans_[id - 1]
  std::vector<uint64_t> open_;
  std::vector<uint64_t> open_allocs_;
};

/// RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, uint64_t request)
      : recorder_(recorder), id_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

/// Host stopwatch for the untraced end-to-end runs.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double Seconds() const { return Ms() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace webdex::perfbench

#endif  // WEBDEX_PERFBENCH_SPANS_H_
