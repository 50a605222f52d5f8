/// \file test_algorithms.cpp
/// \brief Cross-cutting tests of every scheduling algorithm (sched/*).
///
/// Parameterized over the full registry x the three Pegasus families, these
/// tests pin the contract every algorithm must satisfy: a complete valid
/// schedule, a consistent prediction, determinism, and sane budget handling.

#include <gtest/gtest.h>

#include <tuple>

#include "common/error.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/plan.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_io.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sched {
namespace {

using Param = std::tuple<std::string, pegasus::WorkflowType>;

class AlgorithmTest : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] static dag::Workflow make_workflow(pegasus::WorkflowType type) {
    return pegasus::generate(type, {24, 11, 0.5});
  }

  [[nodiscard]] const std::string& algorithm() const { return std::get<0>(GetParam()); }
  [[nodiscard]] pegasus::WorkflowType type() const { return std::get<1>(GetParam()); }
};

TEST_P(AlgorithmTest, ProducesCompleteValidSchedule) {
  const auto wf = make_workflow(type());
  const auto platform = platform::paper_platform();
  const auto scheduler = make_scheduler(algorithm());
  const SchedulerOutput out = scheduler->schedule({wf, platform, 5.0});
  EXPECT_TRUE(out.schedule.complete());
  EXPECT_NO_THROW(out.schedule.validate(wf, platform));
  EXPECT_GT(out.schedule.used_vm_count(), 0u);
  // Compacted: no empty VMs left.
  EXPECT_EQ(out.schedule.used_vm_count(), out.schedule.vm_count());
}

TEST_P(AlgorithmTest, PredictionMatchesConservativeSimulation) {
  const auto wf = make_workflow(type());
  const auto platform = platform::paper_platform();
  const SchedulerOutput out = make_scheduler(algorithm())->schedule({wf, platform, 5.0});
  const sim::SimResult check =
      sim::Simulator(wf, platform).run(out.schedule, dag::conservative_weights(wf));
  EXPECT_NEAR(out.predicted_makespan, check.makespan, 1e-6);
  EXPECT_NEAR(out.predicted_cost, check.total_cost(), 1e-9);
}

TEST_P(AlgorithmTest, DeterministicAcrossRuns) {
  const auto wf = make_workflow(type());
  const auto platform = platform::paper_platform();
  const auto scheduler = make_scheduler(algorithm());
  const SchedulerOutput a = scheduler->schedule({wf, platform, 4.0});
  const SchedulerOutput b = scheduler->schedule({wf, platform, 4.0});
  EXPECT_DOUBLE_EQ(a.predicted_makespan, b.predicted_makespan);
  EXPECT_DOUBLE_EQ(a.predicted_cost, b.predicted_cost);
  EXPECT_EQ(a.schedule.vm_count(), b.schedule.vm_count());
}

TEST_P(AlgorithmTest, GenerousBudgetIsFeasible) {
  const auto wf = make_workflow(type());
  const auto platform = platform::paper_platform();
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
  const SchedulerOutput out =
      make_scheduler(algorithm())->schedule({wf, platform, 2.0 * levels.high});
  EXPECT_TRUE(out.budget_feasible)
      << algorithm() << " predicted $" << out.predicted_cost << " with budget $"
      << 2.0 * levels.high;
}

TEST_P(AlgorithmTest, ExecutionRespectsDependencies) {
  const auto wf = make_workflow(type());
  const auto platform = platform::paper_platform();
  const SchedulerOutput out = make_scheduler(algorithm())->schedule({wf, platform, 5.0});
  const sim::SimResult run =
      sim::Simulator(wf, platform).run(out.schedule, dag::conservative_weights(wf));
  for (const dag::Edge& e : wf.edges())
    EXPECT_LE(run.tasks[e.src].finish, run.tasks[e.dst].start + 1e-9)
        << wf.task(e.src).name << " -> " << wf.task(e.dst).name;
}

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (const std::string& algorithm : algorithm_names())
    for (const pegasus::WorkflowType type : pegasus::all_types())
      params.emplace_back(algorithm, type);
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmTest, ::testing::ValuesIn(all_params()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name = std::get<0>(info.param) + "_" +
                                              std::string(pegasus::to_string(std::get<1>(info.param)));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---- Budget-aware specifics ------------------------------------------------

class BudgetAwareTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BudgetAwareTest, TightBudgetPredictionStaysFeasible) {
  // The paper's own algorithms must respect B_ini by construction whenever
  // a feasible choice exists; at a budget just above min_cost the predicted
  // cost must not exceed the budget.  (BDT/CG are exempt: BDT overruns by
  // design; CG's gb formula does not guarantee feasibility.)
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {24, 11, 0.5});
  const auto platform = platform::paper_platform();
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
  const Dollars budget = 1.3 * levels.min_cost;
  const SchedulerOutput out = make_scheduler(GetParam())->schedule({wf, platform, budget});
  EXPECT_TRUE(out.budget_feasible)
      << GetParam() << " predicted $" << out.predicted_cost << " with budget $" << budget;
}

TEST_P(BudgetAwareTest, ConvergesToBaselineWithInfiniteBudget) {
  // Given an unlimited budget, the budget-aware extensions take the very
  // same decisions as their baseline (paper, Section V-B).
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {23, 5, 0.5});
  const auto platform = platform::paper_platform();
  const Dollars infinite = 1e9;
  const std::string baseline_name = GetParam() == "minmin-budg" ? "minmin" : "heft";
  const SchedulerOutput budgeted = make_scheduler(GetParam())->schedule({wf, platform, infinite});
  const SchedulerOutput baseline =
      make_scheduler(baseline_name)->schedule({wf, platform, infinite});
  EXPECT_NEAR(budgeted.predicted_makespan, baseline.predicted_makespan, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Variants, BudgetAwareTest,
                         ::testing::Values("minmin-budg", "heft-budg"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---- Registry ----------------------------------------------------------------

TEST(Registry, KnowsAllTenAlgorithms) {
  EXPECT_EQ(algorithm_names().size(), 10u);
  for (const std::string& name : algorithm_names()) {
    const auto scheduler = make_scheduler(name);
    EXPECT_EQ(scheduler->name(), name);
  }
}

TEST(Registry, UnknownNameRejected) {
  EXPECT_THROW((void)make_scheduler("nope"), InvalidArgument);
}

TEST(Registry, BudgetAwarenessFlags) {
  EXPECT_FALSE(is_budget_aware("minmin"));
  EXPECT_FALSE(is_budget_aware("heft"));
  EXPECT_TRUE(is_budget_aware("heft-budg"));
  EXPECT_TRUE(is_budget_aware("minmin-budg-plus"));
  EXPECT_TRUE(is_budget_aware("bdt"));
  EXPECT_TRUE(is_budget_aware("cg-plus"));
}

TEST(Registry, CapabilityRecordsMatchNameOrder) {
  const std::span<const SchedulerInfo> registry = scheduler_registry();
  const std::vector<std::string> names = algorithm_names();
  ASSERT_EQ(registry.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(registry[i].name, names[i]);
}

TEST(Registry, CapabilityFlags) {
  EXPECT_FALSE(scheduler_info("minmin").needs_budget);
  EXPECT_FALSE(scheduler_info("minmin").refining);
  EXPECT_TRUE(scheduler_info("heft-budg").needs_budget);
  EXPECT_FALSE(scheduler_info("heft-budg").refining);
  EXPECT_TRUE(scheduler_info("heft-budg-plus").refining);
  EXPECT_TRUE(scheduler_info("minmin-budg-plus").refining);
  EXPECT_TRUE(scheduler_info("cg-plus").refining);
  EXPECT_FALSE(scheduler_info("bdt").refining);
  EXPECT_FALSE(scheduler_info("cg").refining);
  // Every refining algorithm consumes a budget; the reverse does not hold.
  for (const SchedulerInfo& info : scheduler_registry())
    if (info.refining) EXPECT_TRUE(info.needs_budget) << info.name;
}

TEST(Registry, FindSchedulerIsNullSafe) {
  ASSERT_NE(find_scheduler("heft"), nullptr);
  EXPECT_EQ(find_scheduler("heft")->name, "heft");
  EXPECT_EQ(find_scheduler("nope"), nullptr);
  EXPECT_THROW((void)scheduler_info("nope"), InvalidArgument);
}

// ---- make_input --------------------------------------------------------------

TEST(MakeInput, RejectsUnfrozenWorkflowAndNegativeBudget) {
  const auto platform = platform::paper_platform();
  dag::Workflow open("open");
  (void)open.add_task("t0", 1.0, 0.1);
  EXPECT_THROW((void)make_input(open, platform, 1.0), InvalidArgument);
  open.freeze();
  EXPECT_THROW((void)make_input(open, platform, -0.5), InvalidArgument);
  EXPECT_NO_THROW((void)make_input(open, platform, 0.0));
}

TEST(MakeInput, RejectsPlanBuiltForAnotherWorkflow) {
  const auto platform = platform::paper_platform();
  const auto wf = pegasus::generate(pegasus::WorkflowType::ligo, {24, 11, 0.5});
  const auto other = pegasus::generate(pegasus::WorkflowType::ligo, {32, 11, 0.5});
  const WorkflowPlan plan = WorkflowPlan::build(other, platform);
  EXPECT_THROW((void)make_input(wf, platform, 1.0, nullptr, &plan), InvalidArgument);
  const WorkflowPlan good = WorkflowPlan::build(wf, platform);
  EXPECT_NO_THROW((void)make_input(wf, platform, 1.0, nullptr, &good));
}

// ---- WorkflowPlan / PlanCache ------------------------------------------------

/// Sharing a precomputed plan must never change a schedule: every cached
/// analysis is the exact double sequence the ad-hoc path computes.
TEST(PlanCache, PlannedSchedulesBitIdenticalToAdHoc) {
  const auto platform = platform::paper_platform();
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {40, 3, 0.5});
  PlanCache cache;
  const WorkflowPlan& plan = cache.get(wf, platform);
  EXPECT_EQ(cache.size(), 1u);
  // Same key returns the same object, not a rebuild.
  EXPECT_EQ(&plan, &cache.get(wf, platform));

  for (const SchedulerInfo& info : scheduler_registry()) {
    const auto scheduler = make_scheduler(info.name);
    const SchedulerOutput ad_hoc =
        scheduler->schedule(make_input(wf, platform, 3.0));
    const SchedulerOutput planned =
        scheduler->schedule(make_input(wf, platform, 3.0, nullptr, &plan));
    EXPECT_EQ(sim::schedule_to_json(planned.schedule, wf).dump(),
              sim::schedule_to_json(ad_hoc.schedule, wf).dump())
        << info.name;
    EXPECT_EQ(planned.predicted_makespan, ad_hoc.predicted_makespan) << info.name;
    EXPECT_EQ(planned.predicted_cost, ad_hoc.predicted_cost) << info.name;
  }
}

}  // namespace
}  // namespace cloudwf::sched
