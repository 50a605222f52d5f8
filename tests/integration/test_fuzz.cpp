/// \file test_fuzz.cpp
/// \brief Randomized property tests: the engine's invariants must hold for
/// arbitrary valid schedules of arbitrary generated workflows, offline and
/// online.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dag/analysis.hpp"
#include "dag/stochastic.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sim/simulator.hpp"

namespace cloudwf {
namespace {

/// Builds a random but structurally valid schedule: random VM pool with
/// random categories, random task placement, bottom-level priorities (which
/// guarantee same-VM producer-before-consumer order).
sim::Schedule random_schedule(const dag::Workflow& wf, const platform::Platform& platform,
                              Rng& rng) {
  sim::Schedule schedule(wf.task_count());
  const std::size_t vm_pool = 1 + rng.below(std::max<std::uint64_t>(1, wf.task_count() / 2));
  for (std::size_t v = 0; v < vm_pool; ++v)
    schedule.add_vm(static_cast<platform::CategoryId>(rng.below(platform.category_count())));

  const dag::RankParams params{platform.mean_speed(), platform.bandwidth(), true};
  const auto ranks = dag::bottom_levels(wf, params);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) schedule.set_priority(t, ranks[t]);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    schedule.assign(t, static_cast<sim::VmId>(rng.below(vm_pool)));
  return schedule;
}

void check_invariants(const dag::Workflow& wf, const platform::Platform& platform,
                      const sim::SimResult& r) {
  // Every task ran, with a positive duration, inside the global window.
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    const sim::TaskRecord& task = r.tasks[t];
    EXPECT_LT(task.start, task.finish) << wf.task(t).name;
    EXPECT_GE(task.start, r.start_first - 1e-9);
    EXPECT_LE(task.finish, r.end_last + 1e-9);
  }
  // Dependencies: producers finish before consumers start, with a strictly
  // positive gap when data crosses VMs (upload + download time).
  for (const dag::Edge& e : wf.edges()) {
    EXPECT_LE(r.tasks[e.src].finish, r.tasks[e.dst].start + 1e-9);
    if (r.tasks[e.src].vm != r.tasks[e.dst].vm && e.bytes > 0)
      EXPECT_LT(r.tasks[e.src].finish, r.tasks[e.dst].start);
  }
  // VM records: boot duration is exact; billing windows contain the busy
  // time; used VMs counted consistently.
  std::size_t billed = 0;
  Dollars vm_time = 0;
  for (const sim::VmRecord& vm : r.vms) {
    if (vm.task_count == 0 && vm.end == 0) continue;  // never booked
    ++billed;
    EXPECT_NEAR(vm.boot_done - vm.boot_request, platform.boot_delay(), 1e-9);
    EXPECT_GE(vm.end, vm.boot_done - 1e-9);
    EXPECT_LE(vm.busy,
              (vm.end - vm.boot_done) * platform.category(vm.category).processors + 1e-6);
    vm_time += (vm.end - vm.boot_done) * platform.category(vm.category).price_per_second;
  }
  EXPECT_EQ(billed, r.used_vms);
  EXPECT_NEAR(vm_time, r.cost.vm_time, 1e-6);
  // Cost components are non-negative and consistent.
  EXPECT_GE(r.cost.vm_setup, 0.0);
  EXPECT_GE(r.cost.dc_time, 0.0);
  EXPECT_GE(r.cost.dc_transfer, 0.0);
  EXPECT_NEAR(r.total_cost(),
              r.cost.vm_time + r.cost.vm_setup + r.cost.dc_time + r.cost.dc_transfer, 1e-9);
  // Makespan identity and a physical lower bound: the longest single task.
  EXPECT_NEAR(r.makespan, r.end_last - r.start_first, 1e-9);
  Seconds longest = 0;
  for (const sim::TaskRecord& task : r.tasks)
    longest = std::max(longest, task.finish - task.start);
  EXPECT_GE(r.makespan, longest - 1e-9);
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomScheduleInvariantsHold) {
  Rng rng(GetParam());
  const auto types = pegasus::all_types();
  const pegasus::WorkflowType type = types[rng.below(types.size())];
  const std::size_t tasks = 12 + rng.below(40);
  const dag::Workflow wf =
      pegasus::generate(type, {tasks, GetParam() * 7 + 1, rng.uniform(0.0, 1.0)});
  const platform::Platform platform = platform::paper_platform();

  const sim::Schedule schedule = random_schedule(wf, platform, rng);
  schedule.validate(wf, platform);
  sim::Simulator simulator(wf, platform);

  Rng weight_rng = rng.fork(1);
  const dag::WeightRealization weights = dag::sample_weights(wf, weight_rng);
  const sim::SimResult offline = simulator.run(schedule, weights);
  check_invariants(wf, platform, offline);
  EXPECT_EQ(offline.migrations, 0u);

  // Determinism: identical rerun.
  const sim::SimResult again = simulator.run(schedule, weights);
  EXPECT_DOUBLE_EQ(offline.makespan, again.makespan);
  EXPECT_DOUBLE_EQ(offline.total_cost(), again.total_cost());
}

TEST_P(FuzzTest, RandomScheduleInvariantsHoldOnline) {
  Rng rng(GetParam() ^ 0xABCDEFULL);
  const auto types = pegasus::all_types();
  const pegasus::WorkflowType type = types[rng.below(types.size())];
  const std::size_t tasks = 12 + rng.below(30);
  const dag::Workflow wf = pegasus::generate(type, {tasks, GetParam() * 13 + 5, 1.0});
  const platform::Platform platform = platform::paper_platform();

  const sim::Schedule schedule = random_schedule(wf, platform, rng);
  sim::Simulator simulator(wf, platform);
  Rng weight_rng = rng.fork(2);
  const dag::WeightRealization weights = dag::sample_weights(wf, weight_rng);

  sim::OnlinePolicy policy;
  policy.timeout_sigmas = 1.5;  // aggressive: force plenty of migrations
  policy.max_restarts = 2;
  const sim::SimResult online = simulator.run_online(schedule, weights, policy);
  check_invariants(wf, platform, online);
  for (const sim::TaskRecord& task : online.tasks) EXPECT_LE(task.restarts, 2u);
}

TEST_P(FuzzTest, ContentionModePreservesInvariantsAndSlowsTransfers) {
  Rng rng(GetParam() + 99);
  const dag::Workflow wf =
      pegasus::generate(pegasus::WorkflowType::ligo, {30, GetParam() + 1, 0.5});
  const platform::Platform open = platform::paper_platform();
  const platform::Platform tight = platform::paper_platform_with_contention(1.5);

  const sim::Schedule schedule = random_schedule(wf, open, rng);
  Rng weight_rng = rng.fork(3);
  const dag::WeightRealization weights = dag::sample_weights(wf, weight_rng);

  const sim::SimResult free_run = sim::Simulator(wf, open).run(schedule, weights);
  const sim::SimResult tight_run = sim::Simulator(wf, tight).run(schedule, weights);
  check_invariants(wf, tight, tight_run);
  // Shared capacity delays completion (tiny tolerance: slower transfers can
  // reorder FIFO link queues, which may shift events by epsilon-sized
  // scheduling anomalies).
  EXPECT_GE(tight_run.makespan, free_run.makespan * 0.99);
}

/// Invariants that must survive arbitrary fault injection.  Weaker than
/// check_invariants: failed tasks never ran to completion, so only the
/// surviving part of the execution is constrained.
void check_fault_invariants(const dag::Workflow& wf, const platform::Platform& platform,
                            const sim::RecoveryPolicy& recovery, const sim::SimResult& r) {
  std::size_t failed = 0;
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    const sim::TaskRecord& task = r.tasks[t];
    if (task.failed) {
      ++failed;
      continue;
    }
    // Non-failed tasks ran exactly once to completion, within their bounded
    // number of crash-induced restarts.
    EXPECT_LT(task.start, task.finish) << wf.task(t).name;
    EXPECT_LE(task.restarts, recovery.max_task_retries) << wf.task(t).name;
  }
  EXPECT_EQ(failed, r.faults.failed_tasks);
  EXPECT_EQ(r.success(), failed == 0);
  // Failure cascades: a consumer of a failed producer cannot have finished.
  for (const dag::Edge& e : wf.edges()) {
    if (r.tasks[e.src].failed) EXPECT_TRUE(r.tasks[e.dst].failed);
    if (!r.tasks[e.src].failed && !r.tasks[e.dst].failed)
      EXPECT_LE(r.tasks[e.src].finish, r.tasks[e.dst].start + 1e-9);
  }
  // Billing: every VM that came up bills at least its busy time; crashed VMs
  // froze their billing at the crash and never resumed.
  for (const sim::VmRecord& vm : r.vms) {
    if (vm.boot_attempts == 0 || vm.end <= 0) continue;  // never came up
    EXPECT_GE(vm.end, vm.boot_done - 1e-9);
    EXPECT_LE(vm.busy,
              (vm.end - vm.boot_done) * platform.category(vm.category).processors + 1e-6);
  }
  EXPECT_GE(r.faults.wasted_compute, 0.0);
  EXPECT_GE(r.faults.recovery_cost, 0.0);
  EXPECT_GE(r.cost.vm_time, 0.0);
  EXPECT_NEAR(r.total_cost(),
              r.cost.vm_time + r.cost.vm_setup + r.cost.dc_time + r.cost.dc_transfer, 1e-9);
}

TEST_P(FuzzTest, FaultInjectionInvariantsHold) {
  Rng rng(GetParam() ^ 0xFA177ULL);
  const auto types = pegasus::all_types();
  const pegasus::WorkflowType type = types[rng.below(types.size())];
  const std::size_t tasks = 12 + rng.below(30);
  const dag::Workflow wf = pegasus::generate(type, {tasks, GetParam() * 17 + 3, 0.8});
  const platform::Platform platform = platform::paper_platform();

  const sim::Schedule schedule = random_schedule(wf, platform, rng);
  sim::Simulator simulator(wf, platform);
  Rng weight_rng = rng.fork(4);
  const dag::WeightRealization weights = dag::sample_weights(wf, weight_rng);

  sim::FaultModel model;
  model.p_boot_fail = rng.uniform(0.0, 0.3);
  model.lambda_crash = rng.uniform(0.1, 4.0);
  model.p_transfer_fail = rng.uniform(0.0, 0.2);
  model.acquisition_delay = rng.uniform(0.0, 120.0);
  model.seed = GetParam() * 31 + 7;
  sim::RecoveryPolicy recovery;
  if (rng.below(2) == 0) recovery.budget_cap = rng.uniform(0.5, 20.0);

  const sim::SimResult r = simulator.run_with_faults(schedule, weights, model, recovery);
  check_fault_invariants(wf, platform, recovery, r);

  // Determinism: an identical rerun is bit-identical.
  const sim::SimResult again = simulator.run_with_faults(schedule, weights, model, recovery);
  EXPECT_DOUBLE_EQ(r.makespan, again.makespan);
  EXPECT_DOUBLE_EQ(r.total_cost(), again.total_cost());
  EXPECT_EQ(r.faults.crashes, again.faults.crashes);
  EXPECT_EQ(r.faults.failed_tasks, again.faults.failed_tasks);
  EXPECT_DOUBLE_EQ(r.faults.wasted_compute, again.faults.wasted_compute);

  // A disabled model routed through run_with_faults matches the plain run.
  const sim::SimResult plain = simulator.run(schedule, weights);
  const sim::SimResult zero = simulator.run_with_faults(schedule, weights, sim::FaultModel{});
  EXPECT_DOUBLE_EQ(plain.makespan, zero.makespan);
  EXPECT_DOUBLE_EQ(plain.total_cost(), zero.total_cost());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace cloudwf
