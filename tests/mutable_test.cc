// Chaos-equivalence contract of the mutable corpus (docs/MUTABILITY.md):
// any interleaving of upserts, deletes and compaction — under a seeded
// FaultPlan of transient service faults, duplicate/delayed deliveries
// and instance crashes, including a *planned* mid-compaction crash with
// a snapshot save/restore in the middle — must converge to index
// tables and a document bucket byte-identical to a from-scratch build of
// the final corpus, answering queries identically, at a strictly higher
// bill than the fault-free incremental run.  And as everywhere else in
// the simulator, host parallelism is wall-clock only: serial and
// host-parallel mutable chaos runs are bit-identical.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/deployment.h"
#include "cloud/snapshot.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "xmark/xmark_generator.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

constexpr int kNumDocs = 8;

/// Indexed query whose answer set crosses the mutated documents.  The
/// convergence checks deliberately use an *indexed* query: a degraded
/// scan path orders candidates by the (converged) registry either way,
/// and rows are bit-identical by the engine's degradation contract.
const char* kQuery = "//item[/name:val]";

std::string DocUri(int doc) { return StrFormat("xmark-%06d.xml", doc); }

/// Content of document `doc` at mutation `version`: every version is a
/// fresh deterministic corpus (same URIs, different text), so an upsert
/// genuinely replaces what the index must answer from.
std::string DocText(int doc, int version) {
  xmark::GeneratorConfig config;
  config.num_documents = kNumDocs;
  config.entities_per_document = 6;
  config.seed += static_cast<uint64_t>(version) * 1000003ull;
  return xmark::XmarkGenerator(config).Generate(doc).text;
}

struct Step {
  bool is_delete = false;
  int doc = 0;
  int version = 0;  // content version for upserts
};

/// Two mutation batches derived deterministically from `seed`, plus the
/// final corpus they leave behind (doc -> version; absent = deleted).
struct Schedule {
  std::vector<Step> first;
  std::vector<Step> second;
  std::map<int, int> final_docs;
  int deletes = 0;
};

Schedule MakeSchedule(uint64_t seed) {
  Schedule schedule;
  // Self-contained LCG: the schedule is a pure function of the seed.
  uint64_t x = seed * 2862933555777941757ull + 3037000493ull;
  const auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  std::map<int, int> alive;  // doc -> latest version
  for (int d = 0; d < kNumDocs; ++d) alive[d] = 0;
  int version = 0;
  const auto upsert = [&](std::vector<Step>* batch, int doc) {
    alive[doc] = ++version;
    batch->push_back(Step{false, doc, version});
  };
  const auto random_step = [&](std::vector<Step>* batch) {
    const int doc = static_cast<int>(next() % kNumDocs);
    if (alive.count(doc) > 0 && next() % 3 == 0) {
      alive.erase(doc);
      batch->push_back(Step{true, doc, 0});
      schedule.deletes += 1;
    } else {
      upsert(batch, doc);  // fresh content; revives a deleted doc
    }
  };
  // Each batch opens with two upserts of distinct documents so the final
  // compaction always has at least two URIs of work — enough for the
  // planned crash at the second URI boundary to leave a resumable tail.
  upsert(&schedule.first, 0);
  upsert(&schedule.first, 1);
  random_step(&schedule.first);
  random_step(&schedule.first);
  upsert(&schedule.second, 2);
  upsert(&schedule.second, 3);
  random_step(&schedule.second);
  random_step(&schedule.second);
  schedule.final_docs = alive;
  return schedule;
}

void ApplyBatch(Warehouse& warehouse, const std::vector<Step>& batch) {
  for (const Step& step : batch) {
    if (step.is_delete) {
      ASSERT_TRUE(warehouse.DeleteDocument(DocUri(step.doc)).ok());
    } else {
      ASSERT_TRUE(
          warehouse
              .UpsertDocument(DocUri(step.doc), DocText(step.doc, step.version))
              .ok());
    }
  }
}

/// Everything two runs must agree on (state) or be ordered on (cost).
struct Fingerprint {
  std::vector<std::string> index_dump;
  std::vector<std::string> data_dump;  // data-bucket objects
  std::vector<std::vector<std::string>> rows;
  double dollars = 0;
  uint64_t faulted_requests = 0;
  uint64_t retried_requests = 0;
  uint64_t tombstones_written = 0;
  uint64_t compact_gc_items = 0;
  bool crashed_pass = false;
  std::string resume_cursor;
  uint64_t resumed_documents = 0;
};

void CaptureState(cloud::CloudEnv& env, Warehouse& warehouse,
                  Fingerprint* fp) {
  warehouse.index_store().ForEachItem(
      [fp](const std::string& table, const cloud::Item& item) {
        std::string line = table + "|" + item.hash_key + "|" + item.range_key;
        for (const auto& [name, values] : item.attrs) {
          line += "|" + name + "=";
          for (const auto& value : values) line += value + ",";
        }
        fp->index_dump.push_back(std::move(line));
      });
  const std::string bucket = warehouse.config().data_bucket;
  env.s3().ForEachObject([fp, &bucket](const std::string& b,
                                       const std::string& key,
                                       const std::string& data) {
    if (b != bucket) return;
    fp->data_dump.push_back(StrFormat(
        "%s|%zu|%016llx", key.c_str(), data.size(),
        static_cast<unsigned long long>(cloud::Fnv1a64(data))));
  });
}

void AccumulateUsage(cloud::CloudEnv& env, Fingerprint* fp) {
  const cloud::Usage& usage = env.meter().usage();
  fp->faulted_requests += usage.faulted_requests;
  fp->retried_requests += usage.retried_requests;
  fp->tombstones_written += usage.tombstones_written;
  fp->compact_gc_items += usage.compact_gc_items;
}

/// The moderately hostile cloud of chaos_test, plus plan-driven crashes
/// at the legacy engine crash points.  The mid-compaction crash stays at
/// probability 0 here: the *planned* one comes from the test hook, so
/// every schedule crashes exactly once, deterministically.
cloud::FaultPlan MutableChaosPlan() {
  cloud::FaultPlan plan;
  plan.seed = 7;
  plan.s3.error_probability = 0.05;
  plan.s3.throttle_share = 0.3;
  plan.dynamodb.error_probability = 0.05;
  plan.dynamodb.throttle_share = 0.7;
  plan.dynamodb.unprocessed_probability = 0.15;
  plan.sqs.error_probability = 0.04;
  plan.sqs.duplicate_probability = 0.06;
  plan.sqs.delay_probability = 0.2;
  plan.sqs.max_delay = 2 * cloud::kMicrosPerSecond;
  plan.crash.before_delete_probability = 0.03;
  plan.crash.between_batch_put_pages_probability = 0.03;
  return plan;
}

struct RunOptions {
  StrategyKind strategy;
  uint64_t schedule_seed = 0;
  bool faulted = false;
  int host_threads = 1;
};

/// The incremental lifecycle under test: build the base corpus, apply
/// the first mutation batch, GC-compact, queue the second batch *around*
/// another GC pass (mutations in flight while the compactor runs), index,
/// then fully compact.  The faulted variant runs it all under
/// MutableChaosPlan and cuts the full compaction short with a planned
/// crash, saves a v3 snapshot, restores it into a fresh CloudEnv, and
/// resumes from the durable cursor.
Fingerprint RunIncremental(const RunOptions& opt) {
  const Schedule schedule = MakeSchedule(opt.schedule_seed);
  cloud::CloudConfig cloud_config;
  if (opt.faulted) cloud_config.faults = MutableChaosPlan();
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = opt.strategy;
  config.num_instances = 2;
  config.host_threads = opt.host_threads;
  auto armed = std::make_shared<bool>(false);
  auto boundaries = std::make_shared<int>(0);
  auto crashes_remaining = std::make_shared<int>(opt.faulted ? 1 : 0);
  config.crash_plan = [armed, boundaries, crashes_remaining](
                          cloud::CrashPoint point, int, const std::string&) {
    if (point != cloud::CrashPoint::kMidCompaction) return false;
    if (!*armed || *crashes_remaining == 0) return false;
    if (++*boundaries < 2) return false;  // let the first URI complete
    --*crashes_remaining;
    return true;
  };
  auto warehouse = std::make_unique<Warehouse>(env.get(), config);
  EXPECT_TRUE(warehouse->Setup().ok());
  for (int d = 0; d < kNumDocs; ++d) {
    EXPECT_TRUE(warehouse->SubmitDocument(DocUri(d), DocText(d, 0)).ok());
  }
  EXPECT_TRUE(warehouse->RunIndexers().ok());
  ApplyBatch(*warehouse, schedule.first);
  EXPECT_TRUE(warehouse->RunIndexers().ok());
  EXPECT_TRUE(warehouse->Compact(/*full=*/false).ok());
  ApplyBatch(*warehouse, schedule.second);
  // Interleaved maintenance: this GC pass runs while the second batch is
  // queued but not yet indexed.
  EXPECT_TRUE(warehouse->Compact(/*full=*/false).ok());
  EXPECT_TRUE(warehouse->RunIndexers().ok());

  Fingerprint fp;
  *armed = true;
  auto pass = warehouse->Compact(/*full=*/true);
  EXPECT_TRUE(pass.ok()) << pass.status().ToString();
  if (!pass.ok()) return fp;
  if (opt.faulted) {
    EXPECT_TRUE(pass.value().crashed);
    fp.crashed_pass = pass.value().crashed;
    fp.resume_cursor = env->maintenance().compact_cursor;
    // The crash killed the front end mid-maintenance: persist the cloud
    // (v3 carries the compaction cursor and generation watermark), bill
    // the dead deployment, and bring up a fresh facade on the restored
    // state.
    const std::string snapshot = cloud::SerializeSnapshot(*env);
    fp.dollars += env->meter().ComputeBill().total();
    AccumulateUsage(*env, &fp);
    auto restored = std::make_unique<cloud::CloudEnv>(cloud_config);
    EXPECT_TRUE(cloud::RestoreSnapshot(snapshot, restored.get()).ok());
    WarehouseConfig attach_config = config;
    attach_config.crash_plan = nullptr;
    auto attached = std::make_unique<Warehouse>(restored.get(), attach_config);
    EXPECT_TRUE(attached->AttachToExistingCloud().ok());
    auto resumed = attached->Compact(/*full=*/true);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
    if (resumed.ok()) {
      EXPECT_FALSE(resumed.value().crashed);
      fp.resumed_documents = resumed.value().documents_checked;
    }
    env = std::move(restored);
    warehouse = std::move(attached);
  } else {
    EXPECT_FALSE(pass.value().crashed);
  }
  // Converged: cursor cleared, no mutated generations left, index back
  // to the canonical static layout.
  EXPECT_TRUE(env->maintenance().compact_cursor.empty());
  EXPECT_TRUE(warehouse->GenerationSnapshot()->empty());
  CaptureState(*env, *warehouse, &fp);
  auto outcome = warehouse->ExecuteQuery(kQuery);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (outcome.ok()) fp.rows = outcome.value().result.rows;
  fp.dollars += env->meter().ComputeBill().total();
  AccumulateUsage(*env, &fp);
  return fp;
}

/// A from-scratch build of the schedule's *final* corpus: the oracle the
/// incremental runs must match byte for byte.
Fingerprint BuildFromScratch(StrategyKind strategy, const Schedule& schedule) {
  auto env = std::make_unique<cloud::CloudEnv>(cloud::CloudConfig());
  WarehouseConfig config;
  config.strategy = strategy;
  config.num_instances = 2;
  config.host_threads = 1;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& [doc, version] : schedule.final_docs) {
    EXPECT_TRUE(
        warehouse.SubmitDocument(DocUri(doc), DocText(doc, version)).ok());
  }
  EXPECT_TRUE(warehouse.RunIndexers().ok());
  Fingerprint fp;
  CaptureState(*env, warehouse, &fp);
  auto outcome = warehouse.ExecuteQuery(kQuery);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (outcome.ok()) fp.rows = outcome.value().result.rows;
  fp.dollars = env->meter().ComputeBill().total();
  return fp;
}

/// (strategy, schedule seed): three randomized mutation schedules per
/// strategy.
class MutableChaosTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint64_t>> {
 protected:
  StrategyKind strategy() const { return std::get<0>(GetParam()); }
  uint64_t schedule_seed() const { return std::get<1>(GetParam()); }
};

// The headline contract: fault-free and faulted incremental histories
// both land exactly on the from-scratch build of the final corpus —
// index tables, document bucket and query answers — and the faulted
// history pays strictly more for the privilege.
TEST_P(MutableChaosTest, ChaosMutationsConvergeToFreshBuild) {
  const Schedule schedule = MakeSchedule(schedule_seed());
  const Fingerprint fresh = BuildFromScratch(strategy(), schedule);
  const Fingerprint clean =
      RunIncremental({strategy(), schedule_seed(), /*faulted=*/false, 1});
  const Fingerprint faulted =
      RunIncremental({strategy(), schedule_seed(), /*faulted=*/true, 1});

  // The chaos actually bit: transient faults fired, retries happened,
  // the planned mid-compaction crash cut the pass short after at least
  // one completed URI, and the restored deployment finished the rest.
  EXPECT_GT(faulted.faulted_requests, 0u);
  EXPECT_GT(faulted.retried_requests, 0u);
  EXPECT_TRUE(faulted.crashed_pass);
  EXPECT_FALSE(faulted.resume_cursor.empty());
  EXPECT_GE(faulted.resumed_documents, 1u);
  EXPECT_GE(faulted.tombstones_written,
            static_cast<uint64_t>(schedule.deletes));
  EXPECT_GT(faulted.compact_gc_items, 0u);

  // Convergence, byte for byte.
  ASSERT_FALSE(fresh.index_dump.empty());
  EXPECT_EQ(clean.index_dump, fresh.index_dump);
  EXPECT_EQ(faulted.index_dump, fresh.index_dump);
  EXPECT_EQ(clean.data_dump, fresh.data_dump);
  EXPECT_EQ(faulted.data_dump, fresh.data_dump);
  ASSERT_FALSE(fresh.rows.empty());
  EXPECT_EQ(clean.rows, fresh.rows);
  EXPECT_EQ(faulted.rows, fresh.rows);

  // Recovery is paid for, never profited from.
  EXPECT_GT(faulted.dollars, clean.dollars);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndSchedules, MutableChaosTest,
    ::testing::Combine(::testing::ValuesIn(index::AllStrategyKinds()),
                       ::testing::Values(101u, 202u, 303u)),
    [](const ::testing::TestParamInfo<std::tuple<StrategyKind, uint64_t>>&
           info) {
      return std::string(index::StrategyKindName(std::get<0>(info.param))) +
             "_Schedule" + std::to_string(std::get<1>(info.param));
    });

/// Host parallelism must stay wall-clock-only through the whole mutable
/// lifecycle, crash, snapshot and resume included.
class MutableParallelTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(MutableParallelTest, SerialAndParallelMutableChaosRunsAreBitIdentical) {
  const Fingerprint serial =
      RunIncremental({GetParam(), 101u, /*faulted=*/true, /*host_threads=*/1});
  const Fingerprint parallel =
      RunIncremental({GetParam(), 101u, /*faulted=*/true, /*host_threads=*/8});
  EXPECT_EQ(serial.index_dump, parallel.index_dump);
  EXPECT_EQ(serial.data_dump, parallel.data_dump);
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_DOUBLE_EQ(serial.dollars, parallel.dollars);
  EXPECT_EQ(serial.faulted_requests, parallel.faulted_requests);
  EXPECT_EQ(serial.retried_requests, parallel.retried_requests);
  EXPECT_EQ(serial.tombstones_written, parallel.tombstones_written);
  EXPECT_EQ(serial.compact_gc_items, parallel.compact_gc_items);
  EXPECT_EQ(serial.resume_cursor, parallel.resume_cursor);
  EXPECT_EQ(serial.resumed_documents, parallel.resumed_documents);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MutableParallelTest,
                         ::testing::ValuesIn(index::AllStrategyKinds()),
                         [](const ::testing::TestParamInfo<StrategyKind>&
                                info) {
                           return std::string(
                               index::StrategyKindName(info.param));
                         });

}  // namespace
}  // namespace webdex::engine
