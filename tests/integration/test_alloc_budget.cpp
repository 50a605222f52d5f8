/// \file test_alloc_budget.cpp
/// \brief Heap-allocation budgets of the simulator and the workflow parsers.
///
/// A passing precondition must cost one branch and no allocation (see
/// common/error.hpp), and a Simulator re-running a schedule reuses the
/// execution state it owns (sim/simulator.hpp).  These tests count the heap
/// allocations of the second run on one Simulator and of parsing a
/// 1000-task workflow, and hold each under a committed bound, so a check
/// that starts composing its message on every call, or engine state that
/// goes back to being rebuilt per run, shows up here as a deterministic
/// count rather than as a few percent of noisy wall time.
///
/// Counts (gcc 12, libstdc++, Release; bounds in parentheses).  The first
/// column predates messages built only on failure, the second predates the
/// Simulator-owned execution state, the third is the current code:
///   run_conservative, 90-task CyberShake heft-budg:  3,772 ->    427 ->  3 (8)
///   run, 1000-task CyberShake, sampled weights:          - ->  4,397 ->  3 (8)
///   run_with_faults, 300-task Montage, contention 4:     - ->  2,405 -> 20 (40)
///   dag::from_json, 1000-task CyberShake:          649,701 -> 13,715 (25,000)
///   dag::from_dax, the same instance:              426,885 -> 47,079 (51,500)
/// Three allocations are left per simulation: the two vectors of the
/// returned SimResult and Schedule::validate's position table.  The fault
/// run also grows the state to the VMs that crash recovery provisions
/// beyond the warm-up run's.
///
/// The counter (bench/alloc_counter.hpp) replaces the global operator new,
/// which is why this file is its own test executable.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "alloc_counter.hpp"

#include "common/rng.hpp"
#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace cloudwf {
namespace {

using alloc_counter::allocations_of;

TEST(AllocBudget, ConservativeRunOf90TaskCyberShake) {
  sim::set_post_run_check(nullptr);
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {90, 1, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const sched::SchedulerOutput out =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, budget});
  sim::Simulator simulator(wf, platform);
  const Seconds warm = simulator.run_conservative(out.schedule).makespan;

  Seconds makespan = 0;
  const std::size_t count =
      allocations_of([&] { makespan = simulator.run_conservative(out.schedule).makespan; });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(makespan, warm);
  EXPECT_GT(count, 0u) << "the allocation counter is not wired";
  EXPECT_LE(count, 8u);
}

TEST(AllocBudget, SampledRunOf1000TaskCyberShake) {
  sim::set_post_run_check(nullptr);
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {1000, 1, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const sched::SchedulerOutput out =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, budget});
  const Rng base(7);
  Rng first = base.fork(0);
  Rng second = base.fork(1);
  const dag::WeightRealization warm_weights = dag::sample_weights(wf, first);
  const dag::WeightRealization weights = dag::sample_weights(wf, second);
  sim::Simulator simulator(wf, platform);
  (void)simulator.run(out.schedule, warm_weights);

  Seconds makespan = 0;
  const std::size_t count =
      allocations_of([&] { makespan = simulator.run(out.schedule, weights).makespan; });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(makespan, sim::Simulator(wf, platform).run(out.schedule, weights).makespan);
  EXPECT_GT(count, 0u) << "the allocation counter is not wired";
  EXPECT_LE(count, 8u);
}

TEST(AllocBudget, FaultRunOf300TaskMontageUnderContention) {
  sim::set_post_run_check(nullptr);
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::montage, {300, 1, 0.5});
  const platform::Platform platform = platform::paper_platform_with_contention(4);
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const sched::SchedulerOutput out =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, budget});
  sim::FaultModel faults;
  faults.p_boot_fail = 0.05;
  faults.lambda_crash = 0.25;
  faults.p_transfer_fail = 0.005;
  sim::RecoveryPolicy recovery;
  recovery.budget_cap = 1.5 * budget;
  const Rng base(7);
  Rng first = base.fork(0);
  Rng second = base.fork(1);
  const dag::WeightRealization warm_weights = dag::sample_weights(wf, first);
  const dag::WeightRealization weights = dag::sample_weights(wf, second);
  sim::Simulator simulator(wf, platform);
  (void)simulator.run_with_faults(out.schedule, warm_weights, faults.for_repetition(0), recovery);

  const sim::FaultModel counted = faults.for_repetition(1);
  sim::SimResult result;
  const std::size_t count = allocations_of(
      [&] { result = simulator.run_with_faults(out.schedule, weights, counted, recovery); });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_GT(result.faults.crashes, 0u) << "the counted run must exercise crash recovery";
  EXPECT_GT(count, 0u) << "the allocation counter is not wired";
  EXPECT_LE(count, 40u);
}

class ParseBudget : public ::testing::Test {
 protected:
  const dag::Workflow wf_ =
      pegasus::generate(pegasus::WorkflowType::cybershake, {1000, 1, 0.5});
};

TEST_F(ParseBudget, FromJsonOf1000TaskCyberShake) {
  const std::string text = dag::to_json(wf_);
  std::size_t tasks = 0;
  const std::size_t count = allocations_of([&] { tasks = dag::from_json(text).task_count(); });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(tasks, wf_.task_count());
  EXPECT_LE(count, 25'000u);
}

TEST_F(ParseBudget, FromDaxOf1000TaskCyberShake) {
  const std::string text = dag::to_dax(wf_);
  std::size_t tasks = 0;
  const std::size_t count = allocations_of([&] { tasks = dag::from_dax(text).task_count(); });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(tasks, wf_.task_count());
  EXPECT_LE(count, 51'500u);
}

}  // namespace
}  // namespace cloudwf
