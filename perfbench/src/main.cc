// webdex_perfbench: one workload per process.
//
//   webdex_perfbench --workload build|query|mutate --seed N --seconds S
//                    [--trace 0|1] [--smoke] [--host-threads N]
//                    [--spans out.jsonl]
//
// Prints a header stamped with the machine and build, one
// `metric <name> <value> <unit>` line per measured metric, `ops` and
// `failed_ops`, and last a JSON object with `correct`, `attempted`,
// `failed` and the benchmark's named metrics: the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1 (README.md).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/strings.h"
#include "index/strategy.h"
#include "inputs.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace webdex::perfbench {
namespace {

// The metrics BENCHMARK.json names, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "host_ms_per_op", "peak_rss_mb", "allocs_per_op",
    "usd_per_op"};

const std::vector<std::string> kPerLayer = {
    "xml.parse_ms_per_mb",       "xml.parse_allocs_per_doc",
    "index.extract_ms_per_doc",  "index.extract_allocs_per_doc",
    "index.items_ms_per_doc",    "index.items_per_doc",
    "index.item_bytes_per_doc",  "kv.put_us_per_item",
    "kv.put_allocs_per_item",    "kv.get_us_per_key",
    "kv.requests_per_query",     "index.lookup_ms_per_query",
    "index.docs_per_query",      "index.useful_doc_ratio",
    "planner.plan_ms_per_query", "query.parse_us_per_query",
    "query.eval_ms_per_query",   "query.result_bytes_per_query",
    "s3.get_us_per_doc",         "sqs.us_per_message",
    "engine.run_indexers_ms",    "engine.parse_share_pct",
    "engine.extract_share_pct",  "engine.items_share_pct",
    "engine.kv_put_share_pct",   "engine.loop_residual_pct",
    "compact.ms_per_pass",       "compact.gc_items_per_pass",
    "trace.overhead_pct"};

struct Args {
  std::string workload;
  RunOptions run;
  bool trace = false;
  bool smoke = false;
};

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: webdex_perfbench --workload "
               "build|query|mutate --seed N --seconds S [--trace 0|1] "
               "[--smoke] [--host-threads N] [--spans FILE]\n",
               error);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool has_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value, nullptr, 10);
      has_seed = true;
    } else if (flag == "--seconds") {
      args->run.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--host-threads") {
      args->run.host_threads = std::atoi(value);
    } else if (flag == "--spans") {
      args->run.spans_path = value;
    } else {
      return false;
    }
  }
  return has_seed && !args->workload.empty() && args->run.seconds > 0 &&
         args->run.host_threads > 0;
}

void PrintHeader(const Args& args, const WorkloadSpec& spec) {
  std::printf(
      "# webdex perfbench workload=%s seed=%llu seconds=%g trace=%d "
      "smoke=%d\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.run.seed),
      args.run.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0);
  std::printf(
      "# layout: strategy=%s arch=%s corpus=%d docs x %d entities (%s) "
      "index_instances=%d query_instances=%d host_threads=%d "
      "loop=closed, 1 client\n",
      index::StrategyKindName(spec.strategy), spec.arch.Name().c_str(),
      spec.corpus.num_documents, spec.corpus.entities_per_document,
      spec.corpus.split_sections ? "fragments" : "full sites",
      spec.index_instances, spec.query_instances, args.run.host_threads);
  std::printf("# machine: nproc=%ld compiler=\"%s\" build_type=%s "
              "alloc_counting=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
              PERFBENCH_BUILD_TYPE, kCountsAllocs ? "on" : "off");
}

std::string JsonNumber(double value) {
  // Every digit as measured; NaN/inf are not JSON.
  if (value != value || value - value != 0) return "null";
  return StrFormat("%.17g", value);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, args.smoke, &spec)) {
    return Usage("unknown workload");
  }
  PrintHeader(args, spec);
  std::fflush(stdout);

  Result<RunResult> run = args.trace ? RunTraced(spec, args.run)
                                     : RunWorkload(spec, args.run);
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  RunResult& result = run.value();
  result.Add("failed_op_share",
             result.ops == 0 ? 1.0
                             : static_cast<double>(result.failed_ops) /
                                   static_cast<double>(result.ops),
             "ratio");
  for (const Metric& m : result.metrics) {
    std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("ops %llu\nfailed_ops %llu\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.failed_ops));

  std::string metrics;
  for (const std::string& name : args.trace ? kPerLayer : kEndToEnd) {
    for (const Metric& m : result.metrics) {
      if (m.name != name) continue;
      if (!metrics.empty()) metrics += ", ";
      metrics += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                           JsonEscape(m.name).c_str(),
                           JsonNumber(m.value).c_str(),
                           JsonEscape(m.unit).c_str());
    }
  }
  const bool correct = result.ops > 0 && result.failed_ops == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(result.ops),
      static_cast<unsigned long long>(result.failed_ops), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace webdex::perfbench

int main(int argc, char** argv) { return webdex::perfbench::Main(argc, argv); }
