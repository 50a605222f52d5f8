/// \file test_simulator.cpp
/// \brief Hand-computed scenarios for the discrete-event engine (sim/simulator).
///
/// All scenarios use the toy platform: boot 10 s, bandwidth 1e6 B/s,
/// category 0 "slow" (speed 1, $1/s, setup $0.5), category 1 "fast"
/// (speed 2, $2/s, setup $0.5), free datacenter.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "sched/registry.hpp"
#include "sim/trace.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

using dag::TaskId;

TEST(Simulator, ChainOnSingleVmTimesExactly) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);

  Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));

  // boot 0..10, A 10..110, B 110..310, C 310..710; no transfers.
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, 110.0);
  EXPECT_DOUBLE_EQ(r.tasks[1].start, 110.0);
  EXPECT_DOUBLE_EQ(r.tasks[2].finish, 710.0);
  EXPECT_DOUBLE_EQ(r.start_first, 0.0);
  EXPECT_DOUBLE_EQ(r.end_last, 710.0);
  EXPECT_DOUBLE_EQ(r.makespan, 710.0);
  EXPECT_EQ(r.used_vms, 1u);
  EXPECT_EQ(r.transfers.count, 0u);
  // Billing starts at boot completion (boot is uncharged): 700 s * $1 + $0.5.
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 700.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 0.5);
  EXPECT_DOUBLE_EQ(r.total_cost(), 700.5);
}

TEST(Simulator, DiamondAcrossTwoVmsTimesExactly) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const TaskId a = wf.find_task("A");
  const TaskId b = wf.find_task("B");
  const TaskId c = wf.find_task("C");
  const TaskId d = wf.find_task("D");

  Schedule s(4);
  const VmId vm0 = s.add_vm(0);  // slow: A, B, D
  const VmId vm1 = s.add_vm(1);  // fast: C
  s.set_priority(a, 4);
  s.set_priority(b, 3);
  s.set_priority(c, 3.5);
  s.set_priority(d, 1);
  s.assign(a, vm0);
  s.assign(b, vm0);
  s.assign(d, vm0);
  s.assign(c, vm1);

  Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));

  // vm0: boot 0..10; ext-input download 10..14; A 14..114.
  EXPECT_DOUBLE_EQ(r.tasks[a].start, 14.0);
  EXPECT_DOUBLE_EQ(r.tasks[a].finish, 114.0);
  // A->C upload 114..116; vm1 boots 116..126, download 126..128, C 128..278.
  EXPECT_DOUBLE_EQ(r.tasks[c].start, 128.0);
  EXPECT_DOUBLE_EQ(r.tasks[c].finish, 278.0);
  // B local after A: 114..314.
  EXPECT_DOUBLE_EQ(r.tasks[b].start, 114.0);
  EXPECT_DOUBLE_EQ(r.tasks[b].finish, 314.0);
  // C->D upload 278..279, prefetched download on vm0 279..280;
  // D waits for B: 314..414; external output upload 414..416.
  EXPECT_DOUBLE_EQ(r.tasks[d].start, 314.0);
  EXPECT_DOUBLE_EQ(r.tasks[d].finish, 414.0);
  EXPECT_DOUBLE_EQ(r.end_last, 416.0);
  EXPECT_DOUBLE_EQ(r.makespan, 416.0);

  // vm0 billed [10, 416] at $1/s; vm1 billed [126, 279] at $2/s.
  EXPECT_DOUBLE_EQ(r.vms[vm0].boot_done, 10.0);
  EXPECT_DOUBLE_EQ(r.vms[vm0].end, 416.0);
  EXPECT_DOUBLE_EQ(r.vms[vm1].boot_request, 116.0);
  EXPECT_DOUBLE_EQ(r.vms[vm1].boot_done, 126.0);
  EXPECT_DOUBLE_EQ(r.vms[vm1].end, 279.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 406.0 + 153.0 * 2.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 1.0);

  // 3 uploads (A->C, C->D, D ext) + 3 downloads (A ext, C in, D in).
  EXPECT_EQ(r.transfers.count, 6u);
  EXPECT_DOUBLE_EQ(r.transfers.bytes, 12e6);
  EXPECT_EQ(r.used_vms, 2u);

  // D was bound by its same-VM predecessor B, C by A's upload.
  EXPECT_EQ(r.tasks[d].bound_by, b);
  EXPECT_EQ(r.tasks[c].bound_by, a);
}

TEST(Simulator, SameVmDataIsFree) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(1);  // everything on one fast VM
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));
  // Only the external input (4 s) and output (2 s) are transferred.
  EXPECT_EQ(r.transfers.count, 2u);
  EXPECT_DOUBLE_EQ(r.transfers.bytes, 6e6);
  // boot 10 + download 4 + (100+200+300+100)/2 = 364 compute -> finish 364+14.
  EXPECT_DOUBLE_EQ(r.tasks[wf.find_task("D")].finish, 364.0);
  EXPECT_DOUBLE_EQ(r.end_last, 366.0);  // + ext output upload
}

TEST(Simulator, StochasticWeightsChangeMakespanDeterministically) {
  const auto wf = testing::diamond(0.5);
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  Simulator sim(wf, platform);

  Rng rng1(99);
  Rng rng2(99);
  const SimResult a = sim.run(s, dag::sample_weights(wf, rng1));
  const SimResult b = sim.run(s, dag::sample_weights(wf, rng2));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);

  Rng rng3(100);
  const SimResult c = sim.run(s, dag::sample_weights(wf, rng3));
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(Simulator, ConservativeRunUsesMuPlusSigma) {
  const auto wf = testing::diamond(1.0);  // sigma = mu
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  Simulator sim(wf, platform);
  const SimResult mean = sim.run(s, dag::mean_weights(wf));
  const SimResult conservative = sim.run(s, sim.conservative_weights());
  // Compute doubles (700 -> 1400); transfers unchanged.
  EXPECT_DOUBLE_EQ(conservative.makespan - mean.makespan, 700.0);
}

TEST(Simulator, ListOrderGatesExecution) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();
  Schedule s(2);
  const VmId vm = s.add_vm(0);
  s.set_priority(0, 1.0);
  s.set_priority(1, 2.0);  // B runs first
  s.assign(0, vm);
  s.assign(1, vm);
  Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));
  EXPECT_DOUBLE_EQ(r.tasks[1].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 110.0);
}

TEST(Simulator, CrossVmDeadlockDetected) {
  dag::Workflow wf("deadlock");
  const auto t1 = wf.add_task("T1", 10, 0);
  const auto t2 = wf.add_task("T2", 10, 0);
  const auto t3 = wf.add_task("T3", 10, 0);
  const auto t4 = wf.add_task("T4", 10, 0);
  wf.add_edge(t4, t1, 1);  // T1 needs T4
  wf.add_edge(t2, t3, 1);  // T3 needs T2
  wf.freeze();

  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm0 = s.add_vm(0);
  const VmId vm1 = s.add_vm(0);
  s.set_priority(t1, 2);
  s.set_priority(t2, 1);
  s.set_priority(t3, 2);
  s.set_priority(t4, 1);
  s.assign(t1, vm0);  // vm0: [T1, T2]
  s.assign(t2, vm0);
  s.assign(t3, vm1);  // vm1: [T3, T4]
  s.assign(t4, vm1);

  Simulator sim(wf, platform);
  EXPECT_THROW((void)sim.run(s, dag::mean_weights(wf)), ValidationError);
}

TEST(Simulator, DcContentionSlowsConcurrentUploads) {
  dag::Workflow wf("fanin");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 0);
  const auto c = wf.add_task("C", 100, 0);
  wf.add_edge(a, c, 1e6);
  wf.add_edge(b, c, 1e6);
  wf.freeze();

  const auto make_schedule = [&] {
    Schedule s(3);
    s.assign(a, s.add_vm(0));
    s.assign(b, s.add_vm(0));
    s.assign(c, s.add_vm(0));
    return s;
  };

  const auto uncontended = testing::toy_platform();
  const SimResult free_run = Simulator(wf, uncontended).run(make_schedule(), dag::mean_weights(wf));

  const auto contended = platform::PlatformBuilder("tight")
                             .add_category({"slow", 1.0, 1.0, 0.5, 1})
                             .boot_delay(10.0)
                             .bandwidth(1e6)
                             .dc_aggregate_bandwidth(1e6)  // one link's worth
                             .build();
  const SimResult tight_run = Simulator(wf, contended).run(make_schedule(), dag::mean_weights(wf));

  // Uploads A->C and B->C overlap: at half rate each they take 2 s instead
  // of 1 s, delaying C by exactly one second.
  EXPECT_DOUBLE_EQ(tight_run.makespan - free_run.makespan, 1.0);
  EXPECT_GE(tight_run.transfers.peak_concurrent, 2u);
}

TEST(Simulator, EmptyVmsAreIgnoredAndFree) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();
  Schedule s(2);
  const VmId used = s.add_vm(0);
  (void)s.add_vm(1);  // never used
  s.assign(0, used);
  s.assign(1, used);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  EXPECT_EQ(r.used_vms, 1u);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 0.5);  // only the used VM's setup
}

TEST(Simulator, WeightSizeMismatchRejected) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();
  Schedule s(2);
  const VmId vm = s.add_vm(0);
  s.assign(0, vm);
  s.assign(1, vm);
  Simulator sim(wf, platform);
  EXPECT_THROW((void)sim.run(s, dag::WeightRealization({1.0})), InvalidArgument);
}

TEST(Simulator, MakespanAtLeastCriticalPathWork) {
  // Property: no schedule can beat the fastest-category critical path.
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  for (int layout = 0; layout < 3; ++layout) {
    Schedule s(4);
    for (TaskId t : wf.topological_order())
      s.assign(t, layout == 0 ? (s.vm_count() ? 0 : s.add_vm(1))
                              : s.add_vm(static_cast<platform::CategoryId>(layout - 1)));
    const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
    // CP work: A + C + D = 500 instructions at speed 2 minimum.
    EXPECT_GE(r.makespan, 500.0 / 2.0);
  }
}

TEST(Simulator, CriticalPathEndsAtLastTask) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  const auto path = schedule_critical_path(r);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), wf.find_task("D"));
  // The chain must be ordered by finish time.
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_LE(r.tasks[path[i - 1]].finish, r.tasks[path[i]].start + 1e-9);
}

TEST(Simulator, TraceExportsAreWellFormed) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));

  std::ostringstream tasks_csv;
  write_task_trace_csv(wf, r, tasks_csv);
  const std::string tasks_text = tasks_csv.str();
  EXPECT_EQ(std::count(tasks_text.begin(), tasks_text.end(), '\n'), 5);  // header + 4

  std::ostringstream vms_csv;
  write_vm_trace_csv(r, vms_csv);
  const std::string vms_text = vms_csv.str();
  EXPECT_EQ(std::count(vms_text.begin(), vms_text.end(), '\n'), 2);  // header + 1

  const std::string json = result_summary_json(r);
  EXPECT_NE(json.find("\"makespan\""), std::string::npos);
  const std::string text = result_summary_text(r);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

/// Regression: recovery VMs with an empty billed window (end == boot_done)
/// used to export "nan" in the utilization column.
TEST(Simulator, VmTraceHandlesDegenerateBilledWindow) {
  SimResult r;
  VmRecord degenerate;
  degenerate.boot_done = 15;
  degenerate.end = 15;
  degenerate.recovery = true;
  r.vms.push_back(degenerate);

  std::ostringstream vms_csv;
  write_vm_trace_csv(r, vms_csv);
  const std::string text = vms_csv.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);  // header + 1
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Simulator, UnfrozenWorkflowRejected) {
  dag::Workflow wf("raw");
  wf.add_task("A", 1, 0);
  const auto platform = testing::toy_platform();
  EXPECT_THROW(Simulator(wf, platform), InvalidArgument);
}

// ---- one Simulator, many runs ----------------------------------------------

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every field of \p reused equals \p fresh bit for bit.
void expect_identical(const SimResult& reused, const SimResult& fresh) {
  EXPECT_EQ(bits(reused.start_first), bits(fresh.start_first));
  EXPECT_EQ(bits(reused.end_last), bits(fresh.end_last));
  EXPECT_EQ(bits(reused.makespan), bits(fresh.makespan));
  EXPECT_EQ(bits(reused.cost.vm_time), bits(fresh.cost.vm_time));
  EXPECT_EQ(bits(reused.cost.vm_setup), bits(fresh.cost.vm_setup));
  EXPECT_EQ(bits(reused.cost.dc_time), bits(fresh.cost.dc_time));
  EXPECT_EQ(bits(reused.cost.dc_transfer), bits(fresh.cost.dc_transfer));
  EXPECT_EQ(reused.used_vms, fresh.used_vms);
  ASSERT_EQ(reused.tasks.size(), fresh.tasks.size());
  for (TaskId t = 0; t < fresh.tasks.size(); ++t) {
    const TaskRecord& a = reused.tasks[t];
    const TaskRecord& b = fresh.tasks[t];
    EXPECT_EQ(a.vm, b.vm) << "task " << t;
    EXPECT_EQ(bits(a.inputs_at_dc), bits(b.inputs_at_dc)) << "task " << t;
    EXPECT_EQ(bits(a.start), bits(b.start)) << "task " << t;
    EXPECT_EQ(bits(a.finish), bits(b.finish)) << "task " << t;
    EXPECT_EQ(a.restarts, b.restarts) << "task " << t;
    EXPECT_EQ(a.failed, b.failed) << "task " << t;
    EXPECT_EQ(a.bound_by, b.bound_by) << "task " << t;
  }
  ASSERT_EQ(reused.vms.size(), fresh.vms.size());
  for (VmId v = 0; v < fresh.vms.size(); ++v) {
    const VmRecord& a = reused.vms[v];
    const VmRecord& b = fresh.vms[v];
    EXPECT_EQ(a.category, b.category) << "vm " << v;
    EXPECT_EQ(bits(a.boot_request), bits(b.boot_request)) << "vm " << v;
    EXPECT_EQ(bits(a.boot_done), bits(b.boot_done)) << "vm " << v;
    EXPECT_EQ(bits(a.end), bits(b.end)) << "vm " << v;
    EXPECT_EQ(bits(a.busy), bits(b.busy)) << "vm " << v;
    EXPECT_EQ(a.task_count, b.task_count) << "vm " << v;
    EXPECT_EQ(a.boot_attempts, b.boot_attempts) << "vm " << v;
    EXPECT_EQ(a.crashed, b.crashed) << "vm " << v;
    EXPECT_EQ(a.recovery, b.recovery) << "vm " << v;
    EXPECT_EQ(a.billed, b.billed) << "vm " << v;
  }
  EXPECT_EQ(reused.transfers.count, fresh.transfers.count);
  EXPECT_EQ(bits(reused.transfers.bytes), bits(fresh.transfers.bytes));
  EXPECT_EQ(reused.transfers.peak_concurrent, fresh.transfers.peak_concurrent);
  EXPECT_EQ(reused.migrations, fresh.migrations);
  EXPECT_EQ(reused.faults.boot_failures, fresh.faults.boot_failures);
  EXPECT_EQ(reused.faults.crashes, fresh.faults.crashes);
  EXPECT_EQ(reused.faults.transfer_failures, fresh.faults.transfer_failures);
  EXPECT_EQ(reused.faults.transfer_aborts, fresh.faults.transfer_aborts);
  EXPECT_EQ(reused.faults.task_reexecutions, fresh.faults.task_reexecutions);
  EXPECT_EQ(reused.faults.failed_tasks, fresh.faults.failed_tasks);
  EXPECT_EQ(bits(reused.faults.wasted_compute), bits(fresh.faults.wasted_compute));
  EXPECT_EQ(bits(reused.faults.recovery_cost), bits(fresh.faults.recovery_cost));
  EXPECT_EQ(reused.faults.degraded, fresh.faults.degraded);
  EXPECT_EQ(reused.events_processed, fresh.events_processed);
}

/// Every task on one of two VMs of \p category, alternating in
/// topological order.
Schedule two_vm_schedule(const dag::Workflow& wf, platform::CategoryId category) {
  Schedule s(wf.task_count());
  const VmId vms[2] = {s.add_vm(category), s.add_vm(category)};
  std::size_t next = 0;
  for (const TaskId t : wf.topological_order()) s.assign(t, vms[next++ % 2]);
  return s;
}

/// A two-VM schedule that runs for a while and then deadlocks: p needs r's
/// output, q needs p's, and q sits before r on their shared VM while p runs
/// on the other one with every remaining task.
Schedule deadlocking_schedule(const dag::Workflow& wf) {
  TaskId p = 0;
  while (wf.in_edges(p).empty() || wf.out_edges(p).empty()) ++p;
  const TaskId r = wf.edge(wf.in_edges(p).front()).src;
  const TaskId q = wf.edge(wf.out_edges(p).front()).dst;
  Schedule s(wf.task_count());
  const VmId main_vm = s.add_vm(0);
  const VmId side_vm = s.add_vm(0);
  double priority = 0;
  for (const TaskId t : wf.topological_order()) {
    s.set_priority(t, t == q ? 1.0 : priority -= 1.0);
    s.assign(t, t == r || t == q ? side_vm : main_vm);
  }
  return s;
}

/// The ValidationError text of running \p schedule, or "completed".
std::string deadlock_report(Simulator& simulator, const Schedule& schedule,
                            const dag::WeightRealization& weights) {
  try {
    (void)simulator.run(schedule, weights);
  } catch (const ValidationError& error) {
    return error.what();
  }
  return "completed";
}

TEST(Simulator, ReusedSimulatorMatchesFreshOnesRunForRun) {
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {90, 1, 0.5});
  const platform::Platform platform = platform::paper_platform_with_contention(4);
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
  const Schedule many =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, levels.high}).schedule;
  ASSERT_GE(many.used_vm_count(), 30u);
  const Schedule two = two_vm_schedule(wf, platform.cheapest_category());
  const Schedule deadlock = deadlocking_schedule(wf);
  Rng rng(11);
  const dag::WeightRealization weights = dag::sample_weights(wf, rng);

  OnlinePolicy policy;
  policy.timeout_sigmas = 0.25;
  FaultModel faults;
  faults.lambda_crash = 2.0;
  faults.p_boot_fail = 0.1;
  faults.p_transfer_fail = 0.05;

  Simulator reused(wf, platform);
  {
    SCOPED_TRACE("online run that migrates");
    const SimResult r = reused.run(two, weights, {.online = policy});
    ASSERT_GT(r.migrations, 0u);
    expect_identical(r, Simulator(wf, platform).run(two, weights, {.online = policy}));
  }
  {
    SCOPED_TRACE("faults with crash recovery under contention");
    const SimResult r = reused.run(many, weights, {.faults = faults});
    ASSERT_GT(r.faults.crashes, 0u);
    ASSERT_GT(r.vms.size(), many.vm_count());  // recovery provisioned VMs
    expect_identical(r, Simulator(wf, platform).run(many, weights, {.faults = faults}));
  }
  {
    SCOPED_TRACE("faults again: fresh fault draws");
    expect_identical(reused.run(many, weights, {.faults = faults}),
                     Simulator(wf, platform).run(many, weights, {.faults = faults}));
  }
  {
    // The fault run ends with the crash events of VMs that had drained still
    // in its heap; this much longer run would reach them if they leaked.
    SCOPED_TRACE("plain run with two VMs");
    expect_identical(reused.run(two, weights), Simulator(wf, platform).run(two, weights));
  }
  {
    // The deadlock report lists every stuck task, so state leaking in from
    // the fault run would change its text.
    SCOPED_TRACE("a deadlock thrown mid-run");
    const std::string report = deadlock_report(reused, deadlock, weights);
    EXPECT_NE(report.find("deadlocked"), std::string::npos) << report;
    Simulator fresh(wf, platform);
    EXPECT_EQ(report, deadlock_report(fresh, deadlock, weights));
  }
  {
    SCOPED_TRACE("plain run with many VMs");
    expect_identical(reused.run(many, weights), Simulator(wf, platform).run(many, weights));
  }
  {
    SCOPED_TRACE("conservative run with many VMs");
    expect_identical(reused.run(many, reused.conservative_weights()),
                     Simulator(wf, platform).run(many, dag::conservative_weights(wf)));
  }
  {
    SCOPED_TRACE("online again after the others");
    expect_identical(reused.run(two, weights, {.online = policy}),
                     Simulator(wf, platform).run(two, weights, {.online = policy}));
  }
}

}  // namespace
}  // namespace cloudwf::sim
