#ifndef WEBDEX_PERFBENCH_INPUTS_H_
#define WEBDEX_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_env.h"
#include "common/result.h"
#include "common/rng.h"
#include "engine/warehouse.h"
#include "index/strategy.h"
#include "query/evaluator.h"
#include "query/tree_pattern.h"
#include "xmark/xmark_generator.h"
#include "xml/dom.h"

namespace webdex::perfbench {

/// Everything that defines one workload besides its seed.
struct WorkloadSpec {
  std::string name;
  index::StrategyKind strategy = index::StrategyKind::k2LUPI;
  cloud::ArchitectureSpec arch;
  /// The corpus: the generator's default seed, so every run of a
  /// workload indexes the same documents (README.md, "Seeds").
  xmark::GeneratorConfig corpus;
  /// Simulated L instances of the indexing fleet.
  int index_instances = 8;
  /// Simulated L instances answering queries (the query workload swaps
  /// the fleet after the build, as the paper's experiments do).
  int query_instances = 1;
  /// Host threads of the extraction pipeline (wall clock only).
  int host_threads = 4;
  /// Timed units every run completes even past its time budget; the
  /// deterministic metrics (virtual time, $, allocations) are taken over
  /// exactly these, so they repeat run after run.
  int fixed_units = 3;
  /// mutate: per round, documents upserted and deleted, and how many
  /// rounds make one unit (the last round of a unit also compacts).
  int upserts_per_round = 8;
  int deletes_per_round = 2;
  int rounds_per_unit = 3;
};

/// The named workload at full or smoke scale; false if `name` is unknown.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* spec);

/// q1-q10 of the paper-profile query workload, pinned here so the
/// benchmark's inputs cannot drift with the library's own benches.
const std::vector<std::string>& QueryTexts();

/// A seeded permutation of [0, n).
std::vector<int> SeededOrder(Rng& rng, int n);

/// Replacement content for `doc_index` in mutation round `round` of a run
/// seeded `seed`: the same corpus shape drawn from a round-specific seed.
std::string RoundDocumentText(const xmark::GeneratorConfig& corpus,
                              uint64_t seed, int round, int doc_index);

/// Order-insensitive FNV-1a digest of a result's rows.
uint64_t RowDigest(const query::QueryResult& result);

/// The correctness oracle: the current corpus parsed host-side, answering
/// queries by a full scan with Evaluator::Evaluate, no index involved.
class ScanOracle {
 public:
  Status Put(const std::string& uri, const std::string& text);
  void Erase(const std::string& uri) { docs_.erase(uri); }
  const xml::Document* Find(const std::string& uri) const;
  query::QueryResult Evaluate(const query::Query& query) const;
  size_t size() const { return docs_.size(); }

 private:
  std::map<std::string, std::unique_ptr<xml::Document>> docs_;
};

/// Parses every QueryTexts() entry; fails on the first parse error.
Result<std::vector<query::Query>> ParseQueries();

/// A simulated cloud plus a warehouse over it.
struct Deployment {
  Deployment() = default;
  Deployment(Deployment&&) = default;
  /// Drops the old warehouse before the cloud it points into.
  Deployment& operator=(Deployment&& other) noexcept {
    warehouse = std::move(other.warehouse);
    env = std::move(other.env);
    return *this;
  }

  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<engine::Warehouse> warehouse;
};

/// A fresh cloud of the workload's layout, its random streams (UUID range
/// keys, retry jitter) seeded `seed`, with an empty warehouse on it
/// (Setup() done): the indexing fleet, `host_threads` host threads.
Result<Deployment> DeployEmpty(const WorkloadSpec& spec, uint64_t seed,
                               int host_threads);

/// Submits every document and runs the indexers.
Status LoadCorpus(engine::Warehouse& warehouse,
                  const std::vector<xmark::GeneratedDocument>& docs);

/// Swaps in a query fleet of `instances` over the same cloud.
void SwapFleet(int instances, Deployment* deployment);

/// Billed dollars of a usage delta.
double Dollars(cloud::CloudEnv& env, const cloud::Usage& before);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The value at quantile `q` in [0, 1] (nearest rank; 0 when empty).
double Quantile(std::vector<double> values, double q);

}  // namespace webdex::perfbench

#endif  // WEBDEX_PERFBENCH_INPUTS_H_
