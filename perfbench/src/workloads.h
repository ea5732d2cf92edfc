#ifndef WEBDEX_PERFBENCH_WORKLOADS_H_
#define WEBDEX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "inputs.h"

namespace webdex::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  int host_threads = 4;
  /// Where the traced run writes its spans (JSONL); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run measured.  An op is one document committed or one query
/// answered; it fails if it returns an error or disagrees with the
/// oracle.
struct RunResult {
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Count(bool ok) {
    ops += 1;
    if (!ok) failed_ops += 1;
  }
};

/// Host set-up is repeated this many times per run; `setup_s` is the
/// median.
inline constexpr int kSetupRepeats = 5;

/// The untraced end-to-end run of `spec` (build, query or mutate).
Result<RunResult> RunWorkload(const WorkloadSpec& spec,
                              const RunOptions& options);

/// The traced run (layers.cc): the workload's inputs re-issued through
/// each layer's public calls, timed from outside by host spans.
Result<RunResult> RunTraced(const WorkloadSpec& spec,
                            const RunOptions& options);

/// Process high-water resident set, in MB.
double PeakRssMb();

}  // namespace webdex::perfbench

#endif  // WEBDEX_PERFBENCH_WORKLOADS_H_
