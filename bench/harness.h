#ifndef WEBDEX_BENCH_HARNESS_H_
#define WEBDEX_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include <sys/resource.h>

#include "cloud/cloud_env.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "index/intern.h"
#include "index/strategy.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

// --- Allocation counting -------------------------------------------------
//
// Each bench binary is a single translation unit including this header,
// so defining the replacement global operator new/delete here gives every
// bench an `allocs` column for free: heap allocations are the cost the
// arena-interned index core removes, and the counter makes regressions
// (a reintroduced per-key std::string, say) show up in BENCH_*.json
// trajectories.  Sanitizer builds intercept operator new themselves, so
// the counter is compiled out there and AllocCount() reports 0.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WEBDEX_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WEBDEX_BENCH_COUNT_ALLOCS 0
#else
#define WEBDEX_BENCH_COUNT_ALLOCS 1
#endif
#else
#define WEBDEX_BENCH_COUNT_ALLOCS 1
#endif

namespace webdex::bench {

inline std::atomic<uint64_t>& AllocCounter() {
  static std::atomic<uint64_t> count{0};
  return count;
}

/// Heap allocations since process start (0 under ASan/TSan, where the
/// replacement operators are compiled out).
inline uint64_t AllocCount() {
  return AllocCounter().load(std::memory_order_relaxed);
}

}  // namespace webdex::bench

#if WEBDEX_BENCH_COUNT_ALLOCS
void* operator new(std::size_t size) {
  webdex::bench::AllocCounter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  webdex::bench::AllocCounter().fetch_add(1, std::memory_order_relaxed);
  // posix_memalign, not aligned_alloc: the latter demands size be a
  // multiple of the alignment, which operator new does not guarantee.
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align),
                                  sizeof(void*)),
                     size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // WEBDEX_BENCH_COUNT_ALLOCS

namespace webdex::bench {

/// Scale of the benchmark corpus.  The paper used 20,000 documents / 40 GB
/// on AWS; the simulated reproduction defaults to a laptop-scale corpus
/// with the same document shape and heterogeneity.  Override with
/// WEBDEX_BENCH_DOCS / WEBDEX_BENCH_ENTITIES / WEBDEX_BENCH_SEED.
inline xmark::GeneratorConfig CorpusConfig() {
  xmark::GeneratorConfig config;
  // Fragment documents (XMark split mode), like the paper's corpus: each
  // document carries one section of the auction site, which is what gives
  // queries document-level selectivity.
  config.split_sections = true;
  config.num_documents = 240;
  config.entities_per_document = 40;
  if (const char* docs = std::getenv("WEBDEX_BENCH_DOCS")) {
    config.num_documents = std::atoi(docs);
  }
  if (const char* entities = std::getenv("WEBDEX_BENCH_ENTITIES")) {
    config.entities_per_document = std::atoi(entities);
  }
  if (const char* seed = std::getenv("WEBDEX_BENCH_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  return config;
}

/// Corpus used by the *indexing* experiments (Table 4, Figures 7-8,
/// Table 6): fewer but much larger documents (~330 KB), so per-key index
/// payloads differentiate by strategy the way the paper's 2 MB documents
/// did.  The paper's single corpus had both properties at once (2 MB
/// documents *and* 20,000 of them); at laptop scale each experiment
/// keeps the dimension it depends on.  Override with
/// WEBDEX_BENCH_IDX_DOCS / WEBDEX_BENCH_IDX_ENTITIES.
inline xmark::GeneratorConfig IndexingCorpusConfig() {
  xmark::GeneratorConfig config;
  config.split_sections = false;
  config.num_documents = 60;
  config.entities_per_document = 600;
  if (const char* docs = std::getenv("WEBDEX_BENCH_IDX_DOCS")) {
    config.num_documents = std::atoi(docs);
  }
  if (const char* entities = std::getenv("WEBDEX_BENCH_IDX_ENTITIES")) {
    config.entities_per_document = std::atoi(entities);
  }
  if (const char* seed = std::getenv("WEBDEX_BENCH_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  return config;
}

/// The 10-query workload.  The paper's exact q1-q10 live in an
/// unavailable technical report; these preserve the published profile
/// (Section 8.2): ~10 nodes per query, a selective point query (q1),
/// path-structure-sensitive queries where LUP/LUI beat LU (q3, q5, q7),
/// optional-element-sensitive queries (q4), full-text predicates (q2,
/// q6), and three value-join queries (q8-q10).
inline const std::vector<std::string>& Workload() {
  static const std::vector<std::string>* queries =
      new std::vector<std::string>{
          // q1: point query on a valued attribute key.
          "//regions//item[/@id='item42', //name:val]",
          // q2: rare full-text word, large `cont` results.
          "//closed_auction[/annotation:cont, "
          "/annotation/description~'amber']",
          // q3: path-sensitive (mutated documents drop the mailbox
          // wrapper, so /mailbox/mail prunes them) + rare word.
          "//item[/name:val, /mailbox/mail/from:val, "
          "/description~'lantern']",
          // q4: optional-element sensitive (reserve/privacy dropped in
          // heterogeneous documents) + rare word.
          "//open_auctions/open_auction[/initial:val, /reserve, /privacy, "
          "/annotation/description~'obelisk']",
          // q5: equality + structure (mutated docs move city out of
          // address).
          "//person[/name:val, /address[/city='Paris'], /creditcard]",
          // q6: rare full-text containment under a branch.
          "//open_auction[/annotation/description~'gossamer', /seller]",
          // q7: matches only path-mutated documents.
          "//item[/description/name:val]",
          // q8-q10: value joins (Section 5.5); with fragment documents
          // the joined patterns live in *different* documents.
          "//open_auction[/seller/@person#s, /initial:val, "
          "/annotation/description~'marble']; "
          "//people/person[/@id#p, /name:val] where #s=#p",
          "//closed_auction[/itemref/@item#i, /price:val, "
          "/annotation/description~'laurel']; "
          "//regions//item[/@id#j, //name:val] where #i=#j",
          "//person[/watches/watch/@open_auction#w, /name:val, "
          "/address/country='France']; "
          "//open_auction[/@id#a, /current:val] where #w=#a",
      };
  return *queries;
}

/// Host threads for the warehouse's extraction pipeline (wall-clock
/// only; virtual results are identical for every value).  Defaults to
/// auto (one per core); override with WEBDEX_HOST_THREADS, e.g.
/// WEBDEX_HOST_THREADS=1 for the legacy serial path when measuring the
/// pipeline's speedup.
inline int HostThreadsFromEnv() {
  if (const char* threads = std::getenv("WEBDEX_HOST_THREADS")) {
    return std::atoi(threads);
  }
  return 0;
}

// --- Machine-readable results (--json out.json) --------------------------
//
// Every bench main() may call ParseJsonFlag(&argc, argv) before
// benchmark::Initialize and FlushJson() before exiting.  Rows recorded
// with RecordJson land in one JSON array, ready for BENCH_*.json
// trajectory tracking:
//   [{"bench": "table4/LUP", "wall_ms": 512.3, "makespan_s": 190.1,
//     "cost_dollars": 0.84, ...}, ...]

struct JsonRow {
  std::string bench;
  std::vector<std::pair<std::string, double>> metrics;
  /// String-valued columns (e.g. the planner's chosen access path).
  std::vector<std::pair<std::string, std::string>> labels;
};

inline std::string& JsonOutputPath() {
  static auto* path = new std::string();
  return *path;
}

inline std::vector<JsonRow>& JsonRows() {
  static auto* rows = new std::vector<JsonRow>();
  return *rows;
}

/// Consumes `--json <path>` / `--json=<path>` from argv so the remaining
/// flags can go to benchmark::Initialize untouched.
inline void ParseJsonFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      JsonOutputPath() = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      JsonOutputPath() = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

inline void RecordJson(
    std::string bench, std::vector<std::pair<std::string, double>> metrics,
    std::vector<std::pair<std::string, std::string>> labels = {}) {
  JsonRows().push_back(
      {std::move(bench), std::move(metrics), std::move(labels)});
}

/// Peak resident set size of the process in KB (getrusage; Linux reports
/// ru_maxrss in kilobytes).  Monotone over the process lifetime.
inline uint64_t PeakRssKb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss);
}

/// Appends host-resource columns to a row: `allocs` (heap allocations
/// performed during the measured region — pass the AllocCount() snapshot
/// taken before it) and `peak_rss_kb`.  Wall-clock-side observability for
/// the native index core: virtual results never depend on these.
inline void AppendResourceColumns(
    uint64_t allocs_before,
    std::vector<std::pair<std::string, double>>* metrics) {
  metrics->emplace_back("allocs",
                        static_cast<double>(AllocCount() - allocs_before));
  metrics->emplace_back("peak_rss_kb", static_cast<double>(PeakRssKb()));
}

/// Appends the global key/path interner's footprint to a row:
/// `intern_keys` / `intern_bytes` / `intern_paths` / `intern_path_bytes`.
/// The interner is process-global, so values are cumulative across the
/// deployments a bench binary runs (deterministic for a fixed bench
/// order).
inline void AppendInternColumns(
    std::vector<std::pair<std::string, double>>* metrics) {
  const index::InternCore& core = index::InternCore::Global();
  const index::InternStats stats = core.keys().Stats();
  metrics->emplace_back("intern_keys", static_cast<double>(stats.keys));
  metrics->emplace_back("intern_bytes", static_cast<double>(stats.bytes));
  metrics->emplace_back("intern_paths",
                        static_cast<double>(core.paths().size()));
  metrics->emplace_back("intern_path_bytes",
                        static_cast<double>(core.paths().bytes()));
}

/// Appends the chaos-layer counters (docs/FAULTS.md) to a row's metrics:
/// all zero under the default empty fault plan, so trajectory tracking
/// flags any run where faults started firing or retries crept in.
inline void AppendFaultColumns(
    const cloud::Usage& usage,
    std::vector<std::pair<std::string, double>>* metrics) {
  metrics->emplace_back("retries",
                        static_cast<double>(usage.retried_requests));
  metrics->emplace_back("redeliveries",
                        static_cast<double>(usage.sqs_redeliveries));
  metrics->emplace_back("faulted_requests",
                        static_cast<double>(usage.faulted_requests));
  metrics->emplace_back("degraded_queries",
                        static_cast<double>(usage.degraded_queries));
  metrics->emplace_back("breaker_opens",
                        static_cast<double>(usage.breaker_opens));
  metrics->emplace_back("scrub_repaired",
                        static_cast<double>(usage.scrub_repaired));
  // Mutable-corpus maintenance (docs/MUTABILITY.md): zero in the static
  // benches, so the trajectory flags a bench that starts mutating.
  metrics->emplace_back("tombstones_written",
                        static_cast<double>(usage.tombstones_written));
  metrics->emplace_back("compact_gc_items",
                        static_cast<double>(usage.compact_gc_items));
  metrics->emplace_back("compact_uris",
                        static_cast<double>(usage.compact_uris));
}

/// Appends the metric registry's counters to a row's metrics as
/// `metric.<name>` columns (service request/error totals, retry
/// attempts, ...).  Gauges and histograms are skipped: the gauges
/// mirror Usage fields (Usage alone counts faults, retries and bytes,
/// see AppendFaultColumns), and a histogram has no single-number column.  std::map iteration makes the column set
/// sorted, so rows stay diff-stable run over run.
inline void AppendMetricColumns(
    const common::MetricRegistry& registry,
    std::vector<std::pair<std::string, double>>* metrics) {
  for (const auto& name : registry.Names()) {
    if (const common::Counter* counter = registry.FindCounter(name)) {
      metrics->emplace_back("metric." + name,
                            static_cast<double>(counter->value()));
    }
  }
}

/// Writes the recorded rows to the --json path (no-op when unset).
/// Column order inside a row is deterministic — "bench" first, then
/// metrics and labels each sorted by name — and every string is escaped,
/// so the files diff cleanly across runs and survive quotes/backslashes
/// in bench names or label values.
inline void FlushJson() {
  if (JsonOutputPath().empty()) return;
  std::FILE* out = std::fopen(JsonOutputPath().c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", JsonOutputPath().c_str());
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < JsonRows().size(); ++i) {
    JsonRow row = JsonRows()[i];
    std::stable_sort(
        row.metrics.begin(), row.metrics.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::stable_sort(
        row.labels.begin(), row.labels.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::fprintf(out, "  {\"bench\": \"%s\"",
                 JsonEscape(row.bench).c_str());
    for (const auto& [name, value] : row.metrics) {
      // NaN/inf are not JSON; null keeps the row parseable and the
      // broken metric visible.
      if (value == value && value - value == 0) {
        std::fprintf(out, ", \"%s\": %.6g",
                     JsonEscape(name).c_str(), value);
      } else {
        std::fprintf(out, ", \"%s\": null",
                     JsonEscape(name).c_str());
      }
    }
    for (const auto& [name, value] : row.labels) {
      std::fprintf(out, ", \"%s\": \"%s\"",
                   JsonEscape(name).c_str(),
                   JsonEscape(value).c_str());
    }
    std::fprintf(out, "}%s\n", i + 1 < JsonRows().size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("json results written to %s\n", JsonOutputPath().c_str());
}

/// A fully-loaded warehouse plus its private cloud.
struct Deployment {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<engine::Warehouse> warehouse;
  engine::IndexingRunReport indexing;
  /// Charges for uploading the documents to the file store (ud$ terms).
  cloud::Bill upload_bill;
  /// Charges for the index build phase only (Table 6's decomposition).
  cloud::Bill indexing_bill;
  /// Host wall-clock spent inside RunIndexers() — the quantity the
  /// host-parallel extraction pipeline shrinks (virtual results are
  /// unaffected by it).
  double indexing_wall_ms = 0;
};

/// Builds a warehouse over the benchmark corpus and (if `use_index`)
/// runs the indexing fleet.  `index_instances` is the paper's 8-large
/// build fleet by default.
inline Deployment Deploy(index::StrategyKind strategy, bool use_index,
                         int query_instances, cloud::InstanceType type,
                         const xmark::GeneratorConfig& corpus,
                         engine::IndexBackend backend =
                             engine::IndexBackend::kDynamoDb,
                         bool full_text = true, int index_instances = 8,
                         const cloud::CloudConfig& cloud_config =
                             cloud::CloudConfig(),
                         engine::PlannerForce planner_force =
                             engine::PlannerForce::kAuto) {
  Deployment d;
  d.env = std::make_unique<cloud::CloudEnv>(cloud_config);
  engine::WarehouseConfig config;
  config.strategy = strategy;
  config.planner_force = planner_force;
  config.use_index = use_index;
  config.num_instances = use_index ? index_instances : query_instances;
  config.instance_type = cloud::InstanceType::kLarge;  // build fleet
  config.backend = backend;
  config.extract.include_words = full_text;
  config.host_threads = HostThreadsFromEnv();
  // Build phase uses large instances (paper Section 8.2: DynamoDB is the
  // bottleneck, so xl would not help); query phase re-deploys below.
  d.warehouse =
      std::make_unique<engine::Warehouse>(d.env.get(), config);
  Status status = d.warehouse->Setup();
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  xmark::XmarkGenerator generator(corpus);
  const cloud::Usage before_upload = d.env->meter().Snapshot();
  for (int i = 0; i < corpus.num_documents; ++i) {
    auto doc = generator.Generate(i);
    status = d.warehouse->SubmitDocument(doc.uri, std::move(doc.text));
    if (!status.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
  const cloud::Usage before_indexing = d.env->meter().Snapshot();
  d.upload_bill =
      d.env->meter().ComputeBill(before_indexing - before_upload);
  if (use_index) {
    const auto wall_start = std::chrono::steady_clock::now();
    auto report = d.warehouse->RunIndexers();
    d.indexing_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (!report.ok()) {
      std::fprintf(stderr, "indexing failed: %s\n",
                   report.status().ToString().c_str());
      std::abort();
    }
    d.indexing = report.value();
    d.indexing_bill = d.env->meter().ComputeBill(
        d.env->meter().Snapshot() - before_indexing);
  }
  // Query phase: swap the fleet configuration by rebuilding the facade
  // over the same cloud (documents and index tables persist in the
  // simulated services).
  engine::WarehouseConfig query_config = config;
  query_config.num_instances = query_instances;
  query_config.instance_type = type;
  auto fresh = std::make_unique<engine::Warehouse>(d.env.get(),
                                                   query_config);
  // Re-register documents without re-uploading.
  fresh->AdoptExistingData(*d.warehouse);
  d.warehouse = std::move(fresh);
  return d;
}

/// Ground truth for Table 5's "# docs with results" column: evaluates
/// the query over the whole corpus without any index and counts the
/// distinct documents contributing to some result row (for value-join
/// queries a row draws on one document per tree pattern).
inline uint64_t DocsWithResults(const query::Query& query,
                                const xmark::GeneratorConfig& corpus) {
  xmark::XmarkGenerator generator(corpus);
  std::vector<xml::Document> docs;
  for (int i = 0; i < corpus.num_documents; ++i) {
    auto generated = generator.Generate(i);
    auto doc = xml::ParseDocument(generated.uri, generated.text);
    if (doc.ok()) docs.push_back(std::move(doc).value());
  }
  std::vector<const xml::Document*> ptrs;
  ptrs.reserve(docs.size());
  for (const auto& doc : docs) ptrs.push_back(&doc);
  return query::Evaluator::Evaluate(query, ptrs).ContributingDocuments();
}

/// Formats seconds (virtual) with two decimals.
inline std::string Secs(cloud::Micros micros) {
  return StrFormat("%.2f", static_cast<double>(micros) / 1e6);
}

/// Prints a separator + table title the way the paper labels tables.
inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

}  // namespace webdex::bench

#endif  // WEBDEX_BENCH_HARNESS_H_
