#include <gtest/gtest.h>

#include "cost/advisor.h"
#include "xmark/xmark_generator.h"

namespace webdex::cost {
namespace {

AdvisorInput MakeInput() {
  AdvisorInput input;
  xmark::GeneratorConfig config;
  config.num_documents = 12;
  config.entities_per_document = 6;
  xmark::XmarkGenerator generator(config);
  for (const auto& doc : generator.GenerateAll()) {
    input.sample_documents.emplace_back(doc.uri, doc.text);
  }
  input.expected_documents = 1200;  // 100x the sample
  input.workload = {
      "//item[/name:val, /mailbox/mail]",
      "//person[/name:val, /address/city='Paris']",
      "//open_auction[/reserve:val, /bidder/increase]",
  };
  input.workload_runs_per_month = 50;
  return input;
}

TEST(AdvisorTest, RejectsDegenerateInput) {
  AdvisorInput empty;
  empty.expected_documents = 10;
  EXPECT_TRUE(AdviseStrategy(empty).status().IsInvalidArgument());

  AdvisorInput no_scale = MakeInput();
  no_scale.expected_documents = 0;
  EXPECT_TRUE(AdviseStrategy(no_scale).status().IsInvalidArgument());
}

TEST(AdvisorTest, ProducesEstimateForEveryStrategy) {
  auto report = AdviseStrategy(MakeInput());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().estimates.size(),
            index::AllStrategyKinds().size());
  for (const auto& estimate : report.value().estimates) {
    EXPECT_GT(estimate.build_cost, 0) << index::StrategyKindName(estimate.kind);
    EXPECT_GT(estimate.monthly_storage_cost, 0);
    EXPECT_GT(estimate.workload_cost, 0);
    EXPECT_GT(estimate.workload_seconds, 0);
  }
  EXPECT_GT(report.value().no_index_workload_cost, 0);
}

TEST(AdvisorTest, RecommendsIndexingForHeavyWorkloads) {
  auto report = AdviseStrategy(MakeInput());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().recommend_indexing);
  // The recommended strategy is one that beats the no-index baseline.
  bool found = false;
  for (const auto& estimate : report.value().estimates) {
    if (estimate.kind == report.value().recommended) {
      found = true;
      EXPECT_LT(estimate.monthly_total,
                report.value().no_index_monthly_total);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AdvisorTest, IndexedWorkloadsBeatNoIndex) {
  auto report = AdviseStrategy(MakeInput());
  ASSERT_TRUE(report.ok());
  for (const auto& estimate : report.value().estimates) {
    EXPECT_LT(estimate.workload_cost, report.value().no_index_workload_cost)
        << index::StrategyKindName(estimate.kind);
  }
}

TEST(AdvisorTest, BuildCostOrderingMatchesTable6) {
  // Table 6: LU cheapest to build, 2LUPI most expensive.
  auto report = AdviseStrategy(MakeInput());
  ASSERT_TRUE(report.ok());
  double lu = 0, two_lupi = 0, lup = 0, lui = 0;
  for (const auto& estimate : report.value().estimates) {
    switch (estimate.kind) {
      case index::StrategyKind::kLU: lu = estimate.build_cost; break;
      case index::StrategyKind::kLUP: lup = estimate.build_cost; break;
      case index::StrategyKind::kLUI: lui = estimate.build_cost; break;
      case index::StrategyKind::k2LUPI: two_lupi = estimate.build_cost; break;
    }
  }
  EXPECT_LT(lu, lup);
  EXPECT_LT(lu, lui);
  EXPECT_GT(two_lupi, lup);
  EXPECT_GT(two_lupi, lui);
}

TEST(AdvisorTest, AmortizationRunsPositiveAndFinite) {
  auto report = AdviseStrategy(MakeInput());
  ASSERT_TRUE(report.ok());
  for (const auto& estimate : report.value().estimates) {
    EXPECT_GT(estimate.amortization_runs, 0)
        << index::StrategyKindName(estimate.kind);
  }
}

TEST(AdvisorTest, ReportRendersAllRows) {
  auto report = AdviseStrategy(MakeInput());
  ASSERT_TRUE(report.ok());
  const std::string text = report.value().ToString();
  for (const char* name : {"LU", "LUP", "LUI", "2LUPI", "none",
                           "recommendation"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(AdvisorTest, DeterministicReport) {
  auto a = AdviseStrategy(MakeInput());
  auto b = AdviseStrategy(MakeInput());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ToString(), b.value().ToString());
  EXPECT_EQ(a.value().recommended, b.value().recommended);
}

}  // namespace
}  // namespace webdex::cost
