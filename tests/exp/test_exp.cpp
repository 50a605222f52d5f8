/// \file test_exp.cpp
/// \brief Tests of the experiment harness (exp/*).

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "exp/budget_levels.hpp"
#include "exp/campaign.hpp"
#include "exp/evaluate.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::exp {
namespace {

TEST(Evaluate, RunsRequestedRepetitions) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 7;
  const EvalResult r = evaluate(wf, platform, "heft-budg", 3.0, config);
  EXPECT_EQ(r.makespan.count(), 7u);
  EXPECT_EQ(r.cost.count(), 7u);
  EXPECT_GE(r.valid_fraction, 0.0);
  EXPECT_LE(r.valid_fraction, 1.0);
  EXPECT_EQ(r.algorithm, "heft-budg");
  EXPECT_DOUBLE_EQ(r.budget, 3.0);
}

TEST(Evaluate, DeterministicForSameSeed) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::ligo, {22, 2, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 5;
  config.seed = 77;
  const EvalResult a = evaluate(wf, platform, "heft", 5.0, config);
  const EvalResult b = evaluate(wf, platform, "heft", 5.0, config);
  EXPECT_DOUBLE_EQ(a.makespan.mean(), b.makespan.mean());
  EXPECT_DOUBLE_EQ(a.cost.mean(), b.cost.mean());
}

TEST(Evaluate, StochasticRunsVaryAroundPrediction) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 20;
  const EvalResult r = evaluate(wf, platform, "heft", 1e6, config);
  EXPECT_GT(r.makespan.stddev(), 0.0);  // sigma/mu = 0.5 must show
  // Conservative prediction bounds typical runs from above.
  EXPECT_GT(r.predicted_makespan, r.makespan.quantile(0.5));
}

TEST(Evaluate, CpuTimeMeasuredOnDemand) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 2;
  config.measure_cpu_time = true;
  const EvalResult r = evaluate(wf, platform, "heft-budg-plus", 3.0, config);
  EXPECT_GT(r.schedule_seconds, 0.0);
}

TEST(Evaluate, ZeroRepetitionsRejected) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EvalConfig config;
  config.repetitions = 0;
  EXPECT_THROW((void)evaluate(wf, platform, "heft", 1.0, config), InvalidArgument);
}

TEST(BudgetLevels, OrderedAndPositive) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {20, 1, 0.5});
  const auto platform = platform::paper_platform();
  const BudgetLevels levels = compute_budget_levels(wf, platform);
  EXPECT_GT(levels.min_cost, 0.0);
  EXPECT_DOUBLE_EQ(levels.low, levels.min_cost);
  EXPECT_GE(levels.baseline_reaching, levels.low);
  EXPECT_GT(levels.medium, levels.low);
  EXPECT_GT(levels.high, levels.medium);
}

TEST(BudgetLevels, BaselineReachingBudgetActuallyReaches) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {18, 2, 0.5});
  const auto platform = platform::paper_platform();
  const BudgetLevels levels = compute_budget_levels(wf, platform);
  const auto heft = sched::make_scheduler("heft")->schedule({wf, platform, 1e9});
  const auto budg =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, levels.baseline_reaching});
  EXPECT_LE(budg.predicted_makespan, heft.predicted_makespan * 1.02 + 1e-6);
}

TEST(BudgetLevels, SweepIsMonotonicAndSpansRange) {
  BudgetLevels levels;
  levels.low = 1.0;
  levels.high = 10.0;
  const auto budgets = budget_sweep(levels, 6);
  ASSERT_EQ(budgets.size(), 6u);
  EXPECT_DOUBLE_EQ(budgets.front(), 1.0);
  EXPECT_DOUBLE_EQ(budgets.back(), 10.0);
  for (std::size_t i = 1; i < budgets.size(); ++i) EXPECT_GT(budgets[i], budgets[i - 1]);
}

TEST(BudgetLevels, SweepRejectsTooFewPoints) {
  EXPECT_THROW((void)budget_sweep(BudgetLevels{}, 1), InvalidArgument);
}

TEST(Campaign, RunsAndAggregates) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "heft-budg"};
  const CampaignResult result = run_campaign(platform::paper_platform(), config);

  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.cells[0].size(), 3u);
  for (const auto& series : result.cells)
    for (const auto& cell : series) EXPECT_EQ(cell.makespan.count(), 2u);  // per instance
  EXPECT_EQ(result.min_cost.count(), 2u);
  ASSERT_EQ(result.mean_budgets.size(), 3u);
  EXPECT_GT(result.mean_budgets[2], result.mean_budgets[0]);
}

TEST(Campaign, PrintsAllMetrics) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::cybershake;
  config.tasks = 14;
  config.instances = 1;
  config.budget_points = 2;
  config.repetitions = 2;
  config.algorithms = {"heft-budg"};
  const CampaignResult result = run_campaign(platform::paper_platform(), config);
  for (const std::string metric : {"makespan", "cost", "vms", "valid", "sched_time"}) {
    std::ostringstream os;
    print_campaign_table(os, result, metric, "title " + metric);
    EXPECT_NE(os.str().find("heft-budg"), std::string::npos) << metric;
    EXPECT_NE(os.str().find("title"), std::string::npos) << metric;
  }
  std::ostringstream os;
  EXPECT_THROW(print_campaign_table(os, result, "bogus", "t"), InvalidArgument);
}

TEST(Campaign, EachMetricNamesItsOwnAccumulator) {
  // One hand-filled cell whose accumulators all differ: each metric's table
  // must show its own accumulator, cost with four decimals, the rest two.
  CampaignResult result;
  result.config.algorithms = {"heft"};
  result.mean_budgets = {1.0};
  result.min_cost.add(0.5);
  result.cells.assign(1, std::vector<CampaignCell>(1));
  CampaignCell& cell = result.cells[0][0];
  const std::pair<const char*, Accumulator*> metrics[] = {
      {"makespan", &cell.makespan},
      {"cost", &cell.cost},
      {"vms", &cell.used_vms},
      {"valid", &cell.valid},
      {"sched_time", &cell.sched_time},
      {"queue_wait_p95", &cell.queue_wait_p95},
      {"util", &cell.vm_util},
      {"retries", &cell.transfer_retries},
      {"headroom", &cell.budget_headroom},
  };
  for (std::size_t i = 0; i < std::size(metrics); ++i) metrics[i].second->add(2.125 + i);
  for (std::size_t i = 0; i < std::size(metrics); ++i) {
    const char* name = metrics[i].first;
    std::ostringstream os;
    print_campaign_table(os, result, name, "t");
    const int precision = std::string(name) == "cost" ? 4 : 2;
    const std::string expected = "| " + TablePrinter::pm(2.125 + i, 0, precision) + " |";
    EXPECT_NE(os.str().find(expected), std::string::npos) << name;
  }
}

TEST(Campaign, ValidatesConfig) {
  CampaignConfig config;
  config.algorithms = {};
  EXPECT_THROW((void)run_campaign(platform::paper_platform(), config), InvalidArgument);
}


TEST(Evaluate, DeadlineFractionsFollowEquation3) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 20;

  // No deadline: fraction defaults to 1, objective equals budget validity.
  const EvalResult no_deadline = evaluate(wf, platform, "heft-budg", 3.0, config);
  EXPECT_DOUBLE_EQ(no_deadline.deadline_fraction, 1.0);
  EXPECT_DOUBLE_EQ(no_deadline.objective_fraction, no_deadline.valid_fraction);

  // Impossible deadline: nothing meets it.
  config.deadline = 1.0;
  const EvalResult tight = evaluate(wf, platform, "heft-budg", 3.0, config);
  EXPECT_DOUBLE_EQ(tight.deadline_fraction, 0.0);
  EXPECT_DOUBLE_EQ(tight.objective_fraction, 0.0);

  // Generous deadline: everything meets it.
  config.deadline = 10.0 * no_deadline.makespan.max();
  const EvalResult loose = evaluate(wf, platform, "heft-budg", 3.0, config);
  EXPECT_DOUBLE_EQ(loose.deadline_fraction, 1.0);
  EXPECT_DOUBLE_EQ(loose.objective_fraction, loose.valid_fraction);
}

TEST(Campaign, LowBudgetFactorExtendsSweepBelowMinimum) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 1;
  config.budget_points = 3;
  config.repetitions = 2;
  config.algorithms = {"heft-budg"};
  config.low_budget_factor = 0.5;
  const CampaignResult result = run_campaign(platform::paper_platform(), config);
  EXPECT_LT(result.mean_budgets.front(), result.min_cost.mean());
}

TEST(Campaign, HighBudgetCapNarrowsSweep) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 1;
  config.budget_points = 3;
  config.repetitions = 2;
  config.algorithms = {"heft-budg"};
  config.high_budget_cap_factor = 1.5;
  const CampaignResult result = run_campaign(platform::paper_platform(), config);
  EXPECT_LE(result.mean_budgets.back(), 1.5 * result.min_cost.mean() + 1e-9);
}

}  // namespace
}  // namespace cloudwf::exp
