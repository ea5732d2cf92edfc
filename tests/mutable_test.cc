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
#include <vector>

#include "index/generation.h"
#include "scenario.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

constexpr int kNumDocs = 8;
constexpr int kEntities = 6;

/// Indexed query whose answer set crosses the mutated documents.  The
/// convergence checks deliberately use an *indexed* query: a degraded
/// scan path orders candidates by the (converged) registry either way,
/// and rows are bit-identical by the engine's degradation contract.
const char* kQuery = "//item[/name:val]";

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
      const std::string text =
          DocText(kNumDocs, kEntities, step.doc, step.version);
      ASSERT_TRUE(warehouse.UpsertDocument(DocUri(step.doc), text).ok());
    }
  }
}

/// chaos_test's cloud without SimpleDB faults and with fewer
/// plan-driven crashes at the legacy engine crash points.  The
/// mid-compaction crash stays at probability 0 here: the *planned* one
/// comes from the test hook, so every schedule crashes exactly once,
/// deterministically.
cloud::FaultPlan MutableChaosPlan() {
  cloud::FaultPlan plan = ChaosPlan();
  plan.simpledb = cloud::ServiceFaults();
  plan.crash.before_delete_probability = 0.03;
  plan.crash.between_batch_put_pages_probability = 0.03;
  return plan;
}

/// The crash the incremental lifecycle plans into its full compaction:
/// once armed, at the second URI boundary.
struct PlannedCrash {
  bool armed = false;
  int boundaries = 0;
  int remaining = 0;
};

/// The incremental lifecycle under test: build the base corpus, apply
/// the first mutation batch, GC-compact, queue the second batch *around*
/// another GC pass (mutations in flight while the compactor runs), index,
/// then fully compact.  The faulted variant runs it all under
/// MutableChaosPlan and cuts the full compaction short with a planned
/// crash, restarts from a snapshot of the cloud and resumes from the
/// durable cursor, noting the cursor and the resumed pass.
Scenario Incremental(StrategyKind strategy, uint64_t schedule_seed,
                     bool faulted) {
  Scenario scenario;
  if (faulted) scenario.cloud.faults = MutableChaosPlan();
  scenario.warehouse.strategy = strategy;
  scenario.warehouse.num_instances = 2;
  scenario.warehouse.host_threads = 1;
  for (int d = 0; d < kNumDocs; ++d) {
    scenario.documents.push_back(
        {DocUri(d), DocText(kNumDocs, kEntities, d, 0)});
  }
  scenario.queries = {kQuery};
  auto crash = std::make_shared<PlannedCrash>();
  scenario.warehouse.crash_plan = [crash](cloud::CrashPoint point, int,
                                          const std::string&) {
    if (point != cloud::CrashPoint::kMidCompaction) return false;
    if (!crash->armed || crash->remaining == 0) return false;
    if (++crash->boundaries < 2) return false;  // let the first URI complete
    --crash->remaining;
    return true;
  };
  scenario.after_index = [crash, schedule_seed, faulted](Outcome& run) {
    *crash = PlannedCrash();
    crash->remaining = faulted ? 1 : 0;
    const Schedule schedule = MakeSchedule(schedule_seed);
    Warehouse& warehouse = run.warehouse();
    ApplyBatch(warehouse, schedule.first);
    EXPECT_TRUE(warehouse.RunIndexers().ok());
    EXPECT_TRUE(warehouse.Compact(/*full=*/false).ok());
    ApplyBatch(warehouse, schedule.second);
    // Interleaved maintenance: this GC pass runs while the second batch
    // is queued but not yet indexed.
    EXPECT_TRUE(warehouse.Compact(/*full=*/false).ok());
    EXPECT_TRUE(warehouse.RunIndexers().ok());

    crash->armed = true;
    auto pass = warehouse.Compact(/*full=*/true);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    // The planned crash cut the pass short after at least one completed
    // URI, and the restarted deployment finished the rest.
    EXPECT_EQ(pass.value().crashed, faulted);
    if (faulted) {
      const std::string cursor = run.env().maintenance().compact_cursor;
      EXPECT_FALSE(cursor.empty());
      Restart(run);
      auto resumed = run.warehouse().Compact(/*full=*/true);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_FALSE(resumed.value().crashed);
      EXPECT_GE(resumed.value().documents_checked, 1u);
      run.notes = {cursor, resumed.value().ToString()};
    }
    // Converged: cursor cleared, no mutated generations left, index back
    // to the canonical static layout.
    EXPECT_TRUE(run.env().maintenance().compact_cursor.empty());
    EXPECT_TRUE(run.warehouse().GenerationSnapshot()->empty());
  };
  return scenario;
}

/// A from-scratch build of the schedule's *final* corpus: the oracle the
/// incremental runs must match byte for byte.
Scenario FromScratch(StrategyKind strategy, const Schedule& schedule) {
  Scenario scenario;
  scenario.warehouse.strategy = strategy;
  scenario.warehouse.num_instances = 2;
  scenario.warehouse.host_threads = 1;
  for (const auto& [doc, version] : schedule.final_docs) {
    scenario.documents.push_back(
        {DocUri(doc), DocText(kNumDocs, kEntities, doc, version)});
  }
  scenario.queries = {kQuery};
  return scenario;
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
  const Outcome fresh = RunScenario(FromScratch(strategy(), schedule));
  const Outcome clean =
      RunScenario(Incremental(strategy(), schedule_seed(), /*faulted=*/false));
  const Outcome faulted =
      RunScenario(Incremental(strategy(), schedule_seed(), /*faulted=*/true));

  // The chaos actually bit: transient faults fired, retries happened,
  // and the crashed and resumed passes (checked in Incremental) left
  // their notes.
  EXPECT_GT(faulted.usage.faulted_requests, 0u);
  EXPECT_GT(faulted.usage.retried_requests, 0u);
  EXPECT_EQ(faulted.notes.size(), 2u);
  EXPECT_GE(faulted.usage.tombstones_written,
            static_cast<uint64_t>(schedule.deletes));
  EXPECT_GT(faulted.usage.compact_gc_items, 0u);

  // Convergence, byte for byte.
  ASSERT_FALSE(fresh.dump.empty());
  ASSERT_FALSE(fresh.rows[0].empty());
  ExpectSameState(fresh, clean);
  ExpectSameState(fresh, faulted);

  // Recovery is paid for, never profited from.
  EXPECT_GT(faulted.bill, clean.bill);
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
  ExpectSerialEqualsParallel(Incremental(GetParam(), 101u, /*faulted=*/true));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MutableParallelTest,
                         ::testing::ValuesIn(index::AllStrategyKinds()),
                         [](const ::testing::TestParamInfo<StrategyKind>&
                                info) {
                           return std::string(
                               index::StrategyKindName(info.param));
                         });

constexpr int kSites = 4;

/// Four one-person XMark sites; after indexing, document 1 is deleted,
/// the delete committed, and its URI submitted again (`resubmit`) or
/// upserted with the same text.
Scenario Revived(bool resubmit) {
  Scenario scenario;
  scenario.warehouse.strategy = StrategyKind::kLUP;
  for (int d = 0; d < kSites; ++d) {
    scenario.documents.push_back({DocUri(d), DocText(kSites, 5, d, 0)});
  }
  scenario.queries = {"//people/person[/name:val]"};
  scenario.after_index = [resubmit](Outcome& run) {
    Warehouse& warehouse = run.warehouse();
    ASSERT_TRUE(warehouse.DeleteDocument(DocUri(1)).ok());
    ASSERT_TRUE(warehouse.RunIndexers().ok());
    const std::string text = DocText(kSites, 5, 1, 0);
    ASSERT_TRUE((resubmit ? warehouse.SubmitDocument(DocUri(1), text)
                          : warehouse.UpsertDocument(DocUri(1), text))
                    .ok());
    ASSERT_TRUE(warehouse.RunIndexers().ok());
  };
  return scenario;
}

// A committed delete keeps the URI's registry entry, so submitting the
// URI again is an upsert: a generation-0 load would stay hidden behind
// the tombstone.  The path summary still counts the document once.
TEST(ResubmitTest, ResubmittingADeletedUriIsAnUpsert) {
  const Outcome upserted = RunScenario(Revived(/*resubmit=*/false));
  const Outcome resubmitted = RunScenario(Revived(/*resubmit=*/true));
  ASSERT_EQ(upserted.rows.size(), 1u);
  EXPECT_EQ(upserted.rows[0].size(), 4u);
  EXPECT_EQ(resubmitted.rows, upserted.rows);
  EXPECT_FALSE(resubmitted.queries.outcomes[0].degraded);
  EXPECT_EQ(resubmitted.warehouse().path_summary().documents(), 4u);
  EXPECT_EQ(resubmitted.warehouse().document_uris().size(), 4u);
}

// A revival queued behind its own delete commits after it and leaves the
// document live: the registry follows the generation view, not the order
// the two tasks commit in.
TEST(ResubmitTest, RevivalQueuedBehindItsDeleteStaysLive) {
  Scenario scenario = Revived(/*resubmit=*/false);
  scenario.after_index = [](Outcome& run) {
    Warehouse& warehouse = run.warehouse();
    ASSERT_TRUE(warehouse.DeleteDocument(DocUri(1)).ok());
    ASSERT_TRUE(
        warehouse.UpsertDocument(DocUri(1), DocText(kSites, 5, 1, 0)).ok());
    ASSERT_TRUE(warehouse.RunIndexers().ok());
  };
  const Outcome run = RunScenario(scenario);
  EXPECT_EQ(run.warehouse().document_uris().size(), size_t{kSites});
  ASSERT_EQ(run.rows.size(), 1u);
  EXPECT_EQ(run.rows[0].size(), size_t{kSites});
}

// Generation stamps are strict decimals: the meta rows and posting
// stamps read back from the store never wrap or parse a prefix.  A
// malformed stamp reads as unstamped, and a malformed meta row is
// skipped rather than folded in at a wrapped generation.
TEST(GenerationStampTest, MalformedStampsAreRejected) {
  EXPECT_EQ(index::ParseGenerationStamp("42").value(), 42u);
  EXPECT_EQ(index::ParseGenerationStamp("18446744073709551615").value(),
            UINT64_MAX);
  for (const char* bad :
       {"", "12abc", "-1", " 7", "18446744073709551616",
        "99999999999999999999999"}) {
    EXPECT_TRUE(
        index::ParseGenerationStamp(bad).status().IsInvalidArgument())
        << bad;
    const cloud::Item posting("key", "r", {{"doc.xml", {"1"}},
                                           {index::kGenAttr, {bad}}});
    EXPECT_EQ(index::StampOf(posting), 0u) << bad;
    index::GenerationMap map;
    index::ApplyMetaItem(
        cloud::Item("doc.xml", "g", {{index::kGenAttr, {bad}}}), &map);
    EXPECT_TRUE(map.empty()) << bad;
  }
}

}  // namespace
}  // namespace webdex::engine
