// Layered query engine (docs/PLANNER.md): the cost-based planner's
// 2LUPI side choice, bit-identical equivalence of planner-on/off
// execution (healthy and browned out), estimate accuracy against the
// metered bill, and the EXPLAIN rendering.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "common/rng.h"
#include "engine/warehouse.h"
#include "index/strategy.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"

namespace webdex::engine {
namespace {

using cloud::Micros;
using index::StrategyKind;

// Fragment XMark documents (split sections) as in the Table 5 bench:
// path mutations and optional elements give the planner real LUP-vs-LUI
// discrimination.
xmark::GeneratorConfig Corpus(int documents, int entities) {
  xmark::GeneratorConfig config;
  config.split_sections = true;
  config.num_documents = documents;
  config.entities_per_document = entities;
  return config;
}

// A single-path query: LUP path matching is exact, so the planner must
// keep the cheaper paths-side look-up.
const char* kPathSelective = "//item[/description/name:val]";
// A branching twig whose linear paths are common but rarely co-occur
// (Section 8.5): only the ids-side holistic join prunes it.
const char* kBranchingTwig =
    "//item[/name:val, /mailbox/mail/from:val, /description~'lantern']";

struct Deployed {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
  StrategyKind kind = StrategyKind::kLU;
  Micros index_end = 0;
};

Deployed Deploy(const xmark::GeneratorConfig& corpus, StrategyKind kind,
                PlannerForce force = PlannerForce::kAuto,
                const cloud::CloudConfig& cloud_config = cloud::CloudConfig()) {
  Deployed d;
  d.kind = kind;
  d.env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = kind;
  config.planner_force = force;
  d.warehouse = std::make_unique<Warehouse>(d.env.get(), config);
  EXPECT_TRUE(d.warehouse->Setup().ok());
  xmark::XmarkGenerator generator(corpus);
  for (int i = 0; i < corpus.num_documents; ++i) {
    auto doc = generator.Generate(i);
    EXPECT_TRUE(
        d.warehouse->SubmitDocument(doc.uri, std::move(doc.text)).ok());
  }
  auto report = d.warehouse->RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  d.index_end = d.warehouse->front_end().now();
  return d;
}

/// A second warehouse facade over the same simulated cloud (documents
/// and index tables persist), with a different planner configuration.
std::unique_ptr<Warehouse> Facade(const Deployed& d, PlannerForce force) {
  WarehouseConfig config;
  config.strategy = d.kind;
  config.planner_force = force;
  auto facade = std::make_unique<Warehouse>(d.env.get(), config);
  facade->AdoptExistingData(*d.warehouse);
  return facade;
}

// --- 2LUPI: the planner exploits both tables --------------------------------

TEST(TwoLupiPlannerTest, PathSelectiveQueryChoosesLupSide) {
  Deployed d = Deploy(Corpus(36, 24), StrategyKind::k2LUPI);
  auto outcome = d.warehouse->ExecuteQuery(kPathSelective);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().chosen_path, "2LUPI/lup");

  auto explain = d.warehouse->ExplainQuery(kPathSelective);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("chose 2LUPI/lup"), std::string::npos)
      << explain.value();
}

TEST(TwoLupiPlannerTest, BranchingTwigChoosesLuiSide) {
  Deployed d = Deploy(Corpus(36, 24), StrategyKind::k2LUPI);
  auto outcome = d.warehouse->ExecuteQuery(kBranchingTwig);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().chosen_path, "2LUPI/lui");

  auto explain = d.warehouse->ExplainQuery(kBranchingTwig);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("chose 2LUPI/lui"), std::string::npos)
      << explain.value();
  // The rejected alternative is printed with its estimate.
  EXPECT_NE(explain.value().find("rejected: costlier"), std::string::npos)
      << explain.value();
}

// The losing side of the 2LUPI index is never billed: the winning
// side's look-up consumes exactly the index units a forced run on that
// side consumes, and the rows are identical everywhere.
TEST(TwoLupiPlannerTest, LosingSideIsNeverBilled) {
  Deployed d = Deploy(Corpus(36, 24), StrategyKind::k2LUPI);
  auto lup = Facade(d, PlannerForce::kLup);
  auto lui = Facade(d, PlannerForce::kLui);
  auto off = Facade(d, PlannerForce::kOff);

  for (const char* query : {kPathSelective, kBranchingTwig}) {
    auto chosen = d.warehouse->ExecuteQuery(query);
    auto forced_lup = lup->ExecuteQuery(query);
    auto forced_lui = lui->ExecuteQuery(query);
    auto semijoin = off->ExecuteQuery(query);
    ASSERT_TRUE(chosen.ok() && forced_lup.ok() && forced_lui.ok() &&
                semijoin.ok());
    EXPECT_EQ(forced_lup.value().chosen_path, "2LUPI/lup");
    EXPECT_EQ(forced_lui.value().chosen_path, "2LUPI/lui");
    EXPECT_EQ(semijoin.value().chosen_path, "2LUPI");
    // The planner's run bills exactly the chosen side's look-up units —
    // nothing from the loser's table.
    const QueryOutcome& same_side =
        chosen.value().chosen_path == "2LUPI/lup" ? forced_lup.value()
                                                  : forced_lui.value();
    const QueryOutcome& other_side =
        chosen.value().chosen_path == "2LUPI/lup" ? forced_lui.value()
                                                  : forced_lup.value();
    EXPECT_EQ(chosen.value().index_get_units, same_side.index_get_units)
        << query;
    EXPECT_NE(chosen.value().index_get_units, other_side.index_get_units)
        << query;
    // Bit-identical rows regardless of side, and identical to the
    // Figure 5 semijoin the planner-off plan runs.
    EXPECT_EQ(chosen.value().result.rows, forced_lup.value().result.rows);
    EXPECT_EQ(chosen.value().result.rows, forced_lui.value().result.rows);
    EXPECT_EQ(chosen.value().result.rows, semijoin.value().result.rows);
  }
}

// With the planner off, a 2LUPI query runs the Figure 5 semijoin as a
// one-candidate plan: EXPLAIN shows exactly the plan that runs, and the
// look-up reads exactly what the strategy's reference LookupPattern does.
TEST(TwoLupiPlannerTest, PlannerOffExplainsAndRunsTheSemijoin) {
  Deployed d = Deploy(Corpus(36, 24), StrategyKind::k2LUPI, PlannerForce::kOff);
  auto planned = Facade(d, PlannerForce::kAuto);
  // Every indexed route carries an estimate, so the planner's report card
  // covers planner-off queries too.
  auto ratios = [&d]() -> uint64_t {
    const common::Histogram* ratio =
        d.env->metrics().FindHistogram("planner.estimate_error_ratio");
    return ratio == nullptr ? 0 : ratio->count();
  };
  for (const char* query : {kPathSelective, kBranchingTwig}) {
    auto explain = d.warehouse->ExplainQuery(query);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain.value().find("physical: strategy 2LUPI, planner off\n"),
              std::string::npos)
        << explain.value();
    EXPECT_NE(explain.value().find("  pattern 1: chose 2LUPI\n"),
              std::string::npos)
        << explain.value();
    EXPECT_EQ(explain.value().find("2LUPI/l"), std::string::npos)
        << explain.value();

    const uint64_t ratios_before = ratios();
    auto outcome = d.warehouse->ExecuteQuery(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(ratios(), ratios_before + 1);
    EXPECT_EQ(outcome.value().chosen_path, "2LUPI");
    EXPECT_GT(outcome.value().estimated_cost_usd, 0.0);
    auto auto_outcome = planned->ExecuteQuery(query);
    ASSERT_TRUE(auto_outcome.ok());
    EXPECT_EQ(outcome.value().result.rows, auto_outcome.value().result.rows);

    auto parsed = query::ParseQuery(query);
    ASSERT_TRUE(parsed.ok());
    auto strategy = index::IndexingStrategy::Create(StrategyKind::k2LUPI);
    cloud::SimAgent& agent = d.warehouse->front_end();
    const cloud::Usage before = d.env->meter().Snapshot();
    index::LookupStats stats;
    auto uris = strategy->LookupPattern(
        agent, d.warehouse->index_store(), parsed.value().patterns()[0],
        d.warehouse->config().extract, &stats);
    ASSERT_TRUE(uris.ok());
    const cloud::Usage delta = d.env->meter().Snapshot() - before;
    EXPECT_EQ(outcome.value().index_get_units, delta.ddb_read_units) << query;
    EXPECT_EQ(outcome.value().lookup.items_fetched, stats.items_fetched);
    EXPECT_EQ(outcome.value().lookup.twig_id_ops, stats.twig_id_ops);
    EXPECT_EQ(outcome.value().docs_from_index, uris.value().size());
  }
}

// --- Planner on/off x outage on/off: bit-identical rows ---------------------

constexpr Micros kForever = 3600 * cloud::kMicrosPerSecond;

/// Labels that occur in the XMark corpus plus a few that never do, so
/// some random patterns are unsatisfiable.
const char* kLabels[] = {"item", "name", "person", "address", "city",
                         "open_auction", "seller", "mailbox", "mail",
                         "description", "initial", "nothere"};

std::string RandomPattern(Rng& rng) {
  std::string out = "//";
  out += kLabels[rng.NextBelow(std::size(kLabels))];
  const int branches = 1 + static_cast<int>(rng.NextBelow(3));
  out += "[";
  for (int b = 0; b < branches; ++b) {
    if (b > 0) out += ", ";
    out += rng.NextBool(0.5) ? "/" : "//";
    out += kLabels[rng.NextBelow(std::size(kLabels))];
    if (rng.NextBool(0.3)) {
      out += "/";
      out += kLabels[rng.NextBelow(std::size(kLabels))];
    }
    if (b == 0) out += ":val";
  }
  out += "]";
  return out;
}

std::vector<std::string> SweepWorkload(uint64_t seed) {
  std::vector<std::string> queries = {
      kPathSelective, kBranchingTwig,
      // A value join across fragment documents.
      "//open_auction[/seller/@person#s, /initial:val]; "
      "//people/person[/@id#p, /name:val] where #s=#p"};
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) queries.push_back(RandomPattern(rng));
  return queries;
}

class PlannerSweepTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PlannerSweepTest, RowsBitIdenticalAcrossPlannerAndOutage) {
  const auto corpus = Corpus(12, 8);
  const auto workload = SweepWorkload(20260805);

  // Healthy deployment; the planner toggle is a facade over the same
  // cloud, so both runs answer from the very same index bytes.
  Deployed healthy = Deploy(corpus, GetParam());
  auto healthy_off = Facade(healthy, PlannerForce::kOff);

  // Browned-out deployments: a sustained index-store outage covering
  // the whole query phase (indexing is deterministic, so the healthy
  // run's index_end pins where the query phase starts).
  cloud::CloudConfig outage_config;
  cloud::OutageWindow window;
  window.service = cloud::ServiceId::kDynamoDb;
  window.start = healthy.index_end;
  window.end = healthy.index_end + kForever;
  outage_config.faults.outages.push_back(window);
  Deployed outage_planned =
      Deploy(corpus, GetParam(), PlannerForce::kAuto, outage_config);
  Deployed outage_off =
      Deploy(corpus, GetParam(), PlannerForce::kOff, outage_config);

  auto planned = healthy.warehouse->ExecuteQueries(workload);
  auto off = healthy_off->ExecuteQueries(workload);
  auto browned_planned = outage_planned.warehouse->ExecuteQueries(workload);
  auto browned_off = outage_off.warehouse->ExecuteQueries(workload);
  ASSERT_TRUE(planned.ok() && off.ok() && browned_planned.ok() &&
              browned_off.ok());

  ASSERT_EQ(planned.value().outcomes.size(), workload.size());
  for (size_t q = 0; q < workload.size(); ++q) {
    const auto& rows = planned.value().outcomes[q].result.rows;
    EXPECT_EQ(rows, off.value().outcomes[q].result.rows)
        << workload[q] << " (planner off)";
    EXPECT_EQ(rows, browned_planned.value().outcomes[q].result.rows)
        << workload[q] << " (planner on, outage)";
    EXPECT_EQ(rows, browned_off.value().outcomes[q].result.rows)
        << workload[q] << " (planner off, outage)";
    EXPECT_TRUE(browned_planned.value().outcomes[q].degraded);
    EXPECT_TRUE(browned_off.value().outcomes[q].degraded);
  }
  // Under the outage neither mode burns attempts against an open breaker
  // — planner off is a one-candidate plan behind the same plan-time gate
  // — and every query records at least one fallback to the scan path
  // (value-join queries fall back once per tree pattern).
  EXPECT_EQ(outage_planned.env->meter().usage().breaker_short_circuits, 0u);
  EXPECT_EQ(outage_off.env->meter().usage().breaker_short_circuits, 0u);
  EXPECT_GE(browned_planned.value().planner_fallbacks, workload.size());
  EXPECT_GE(browned_off.value().planner_fallbacks, workload.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PlannerSweepTest,
    ::testing::ValuesIn(index::AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

// --- Estimates vs the metered bill ------------------------------------------

// On the fault-free path the planner's estimate must be within a fixed
// factor of the metered per-query cost — both are dominated by the
// fetch tail, and the estimate's document counts come from summary
// statistics, not an oracle.
TEST(PlannerEstimateTest, EstimateWithinFixedFactorOfBilledCost) {
  constexpr double kFactor = 32.0;
  for (StrategyKind kind : index::AllStrategyKinds()) {
    Deployed d = Deploy(Corpus(36, 24), kind);
    for (const auto& query : SweepWorkload(7)) {
      auto outcome = d.warehouse->ExecuteQuery(query);
      ASSERT_TRUE(outcome.ok()) << query;
      const double est = outcome.value().estimated_cost_usd;
      const double actual = outcome.value().actual_cost_usd;
      EXPECT_GT(est, 0.0) << query;
      EXPECT_GT(actual, 0.0) << query;
      EXPECT_LE(actual, est * kFactor)
          << index::StrategyKindName(kind) << " " << query;
      EXPECT_LE(est, actual * kFactor)
          << index::StrategyKindName(kind) << " " << query;
    }
  }
}

// --- EXPLAIN golden output --------------------------------------------------

// The exact rendering `webdex_cli explain` prints: logical plan, every
// candidate with its estimate, the chosen path, rejected alternatives,
// and the estimated totals.  Everything upstream is deterministic
// (virtual time, seeded corpus), so the text is pinned verbatim.
TEST(ExplainTest, GoldenOutput) {
  Deployed d = Deploy(Corpus(12, 8), StrategyKind::k2LUPI);
  auto explain = d.warehouse->ExplainQuery(kBranchingTwig);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain.value(),
            "logical: 1 pattern, 0 value joins\n"
            "  pattern 1: //item[/name:val, /mailbox[/mail[/from:val]], "
            "/description~'lantern']\n"
            "    nodes=6 branches=3 outputs=2 predicates=1\n"
            "physical: strategy 2LUPI, planner auto\n"
            "  pattern 1: chose 2LUPI/lup\n"
            "    2LUPI/lup  est $0.00001388  keys 3  index-req 1  docs 2"
            "  requests 4  [chosen]\n"
            "    2LUPI/lui  est $0.00001391  keys 7  index-req 1  docs 2"
            "  requests 4  (rejected: costlier)\n"
            "    scan       est $0.00002814  keys 0  index-req 0  docs 12"
            "  requests 13  (fallback only)\n"
            "  estimated total: $0.00001388, 4 requests\n");
}

}  // namespace
}  // namespace webdex::engine
