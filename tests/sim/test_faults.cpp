/// \file test_faults.cpp
/// \brief Tests of fault injection and budget-aware recovery (sim/faults +
/// Simulator::run_with_faults).
///
/// All injected draws are deterministic: the engine's FaultInjector consumes
/// the same seeded streams a test-local "oracle" injector does, so crash
/// times can be pre-computed and whole timelines asserted exactly.  With the
/// default seed 0xFA177 the boot stream at p = 0.5 starts fail/ok and the
/// transfer stream starts fail/ok/fail/fail/fail/ok — several tests below
/// lean on those prefixes and re-derive them through an oracle so the intent
/// stays visible.
///
/// Toy platforms (testing/helpers.hpp): boot 10 s, bw 1e6 B/s, setup $0.5,
/// mono = one category (speed 1, $1/s).

#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "dag/stochastic.hpp"
#include "pegasus/generator.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

/// One task with mu=100, executed at whatever weight the test picks.
dag::Workflow one_task() {
  dag::Workflow wf("one");
  wf.add_task("T", 100, 0);
  wf.freeze();
  return wf;
}

Schedule single_vm_schedule(const dag::Workflow& wf, platform::CategoryId category = 0) {
  Schedule schedule(wf.task_count());
  const VmId vm = schedule.add_vm(category);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) schedule.assign(t, vm);
  return schedule;
}

TEST(FaultModel, ValidationRejectsOutOfRangeKnobs) {
  FaultModel model;
  model.validate();  // defaults are fine
  model.p_boot_fail = 1.0;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model = {};
  model.p_transfer_fail = -0.1;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model = {};
  model.lambda_crash = -1.0;
  EXPECT_THROW(model.validate(), InvalidArgument);
  model = {};
  model.acquisition_delay = -1.0;
  EXPECT_THROW(model.validate(), InvalidArgument);

  RecoveryPolicy recovery;
  recovery.validate();
  recovery.max_boot_attempts = 0;
  EXPECT_THROW(recovery.validate(), InvalidArgument);
  recovery = {};
  recovery.transfer_backoff_base = -1.0;
  EXPECT_THROW(recovery.validate(), InvalidArgument);
  recovery = {};
  recovery.budget_cap = -1.0;
  EXPECT_THROW(recovery.validate(), InvalidArgument);
}

TEST(FaultModel, EnabledOnlyWhenSomeRateIsPositive) {
  FaultModel model;
  EXPECT_FALSE(model.enabled());
  model.acquisition_delay = 300.0;  // a delay alone injects nothing
  EXPECT_FALSE(model.enabled());
  model.p_boot_fail = 0.1;
  EXPECT_TRUE(model.enabled());
  model = {};
  model.lambda_crash = 0.1;
  EXPECT_TRUE(model.enabled());
  model = {};
  model.p_transfer_fail = 0.1;
  EXPECT_TRUE(model.enabled());
}

TEST(FaultModel, ForRepetitionIsDeterministicAndVaried) {
  FaultModel model;
  model.lambda_crash = 1.0;
  EXPECT_EQ(model.for_repetition(3).seed, model.for_repetition(3).seed);
  EXPECT_NE(model.for_repetition(0).seed, model.for_repetition(1).seed);
  EXPECT_NE(model.for_repetition(0).seed, model.seed);
  // Only the seed changes; the rates carry over.
  EXPECT_DOUBLE_EQ(model.for_repetition(7).lambda_crash, 1.0);
}

TEST(FaultInjector, StreamsAreIndependentPerFaultClass) {
  // Turning on transfer failures must not perturb the crash times, or
  // scenario sweeps would not be comparable draw-for-draw.
  FaultModel crashes_only;
  crashes_only.lambda_crash = 1.0;
  FaultModel both = crashes_only;
  both.p_transfer_fail = 0.5;
  FaultInjector a(crashes_only);
  FaultInjector b(both);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(a.crash_after(), b.crash_after());
}

TEST(FaultInjector, DisabledClassesDrawNothing) {
  FaultModel model;  // all zero
  FaultInjector injector(model);
  EXPECT_FALSE(injector.boot_fails());
  EXPECT_FALSE(injector.transfer_fails());
  EXPECT_TRUE(std::isinf(injector.crash_after()));
}

TEST(Faults, DisabledModelMatchesPlainRunBitForBit) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {24, 9, 1.0});
  const auto platform = platform::paper_platform();
  const auto out = sched::make_scheduler("heft-budg")->schedule({wf, platform, 3.0});
  Rng rng(11);
  const dag::WeightRealization weights = dag::sample_weights(wf, rng);

  Simulator sim(wf, platform);
  const SimResult plain = sim.run(out.schedule, weights);
  const SimResult faulty = sim.run_with_faults(out.schedule, weights, FaultModel{});

  EXPECT_DOUBLE_EQ(plain.makespan, faulty.makespan);
  EXPECT_DOUBLE_EQ(plain.total_cost(), faulty.total_cost());
  EXPECT_EQ(plain.used_vms, faulty.used_vms);
  EXPECT_EQ(plain.transfers.count, faulty.transfers.count);
  ASSERT_EQ(plain.tasks.size(), faulty.tasks.size());
  for (dag::TaskId t = 0; t < plain.tasks.size(); ++t) {
    EXPECT_DOUBLE_EQ(plain.tasks[t].start, faulty.tasks[t].start) << t;
    EXPECT_DOUBLE_EQ(plain.tasks[t].finish, faulty.tasks[t].finish) << t;
    EXPECT_EQ(plain.tasks[t].vm, faulty.tasks[t].vm) << t;
  }
  EXPECT_TRUE(faulty.success());
  EXPECT_EQ(faulty.faults.crashes, 0u);
}

TEST(Faults, BootFailureRetriesAfterAcquisitionDelay) {
  // Seeded boot stream at p = 0.5: first attempt fails, second succeeds.
  const auto wf = one_task();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  FaultModel model;
  model.p_boot_fail = 0.5;
  model.acquisition_delay = 60.0;
  {
    FaultInjector oracle(model);
    ASSERT_TRUE(oracle.boot_fails());
    ASSERT_FALSE(oracle.boot_fails());
  }

  const SimResult r =
      Simulator(wf, platform).run_with_faults(schedule, dag::WeightRealization({100.0}), model);

  // Boot requested at 0, comes up (failed) at 10, retries at 10 + 60 + 10 =
  // 80; the task then runs 80..180.
  EXPECT_EQ(r.faults.boot_failures, 1u);
  EXPECT_EQ(r.vms[0].boot_attempts, 2u);
  EXPECT_DOUBLE_EQ(r.vms[0].boot_done, 80.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 80.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, 180.0);
  EXPECT_DOUBLE_EQ(r.makespan, 180.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 100.0);  // billing starts at the *successful* boot
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 0.5);
  EXPECT_TRUE(r.success());
}

TEST(Faults, BootAttemptsExhaustedFailsTheWholePlacement) {
  const auto wf = testing::chain3();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  FaultModel model;
  model.p_boot_fail = 0.9999999;  // every seeded draw fails
  RecoveryPolicy recovery;
  recovery.max_boot_attempts = 2;

  const SimResult r = Simulator(wf, platform)
                          .run_with_faults(schedule, dag::WeightRealization({100, 200, 400}),
                                           model, recovery);

  EXPECT_EQ(r.faults.boot_failures, 2u);
  EXPECT_EQ(r.vms[0].boot_attempts, 2u);
  EXPECT_EQ(r.faults.failed_tasks, 3u);
  EXPECT_FALSE(r.success());
  for (const TaskRecord& task : r.tasks) EXPECT_TRUE(task.failed);
  // The VM never came up: nothing billed, no DC lease opened.
  EXPECT_EQ(r.used_vms, 0u);
  EXPECT_DOUBLE_EQ(r.total_cost(), 0.0);
}

TEST(Faults, TransferFailuresRetryWithExponentialBackoff) {
  // Diamond on one VM: the only flows are the external input of A (4 s) and
  // the external output of D (2 s).  Seeded transfer stream at p = 0.5:
  // fail, ok, fail, fail, fail, ok — so the input needs one retry and the
  // output burns all three retries before succeeding.
  const auto wf = testing::diamond();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  FaultModel model;
  model.p_transfer_fail = 0.5;
  {
    FaultInjector oracle(model);
    const bool expected[6] = {true, false, true, true, true, false};
    for (bool fail : expected) ASSERT_EQ(oracle.transfer_fails(), fail);
  }

  const SimResult r = Simulator(wf, platform)
                          .run_with_faults(schedule,
                                           dag::WeightRealization({100, 200, 300, 100}), model);

  // Input: [10,14] fails, backoff 1 s, [15,19] delivers.  Compute chain
  // A 19..119, B 119..319, C 319..619, D 619..719.  Output: [719,721] fails,
  // +1 s -> [722,724] fails, +2 s -> [726,728] fails, +4 s -> [732,734] ok.
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 19.0);
  EXPECT_DOUBLE_EQ(r.tasks[3].finish, 719.0);
  EXPECT_DOUBLE_EQ(r.end_last, 734.0);
  EXPECT_EQ(r.faults.transfer_failures, 4u);
  EXPECT_EQ(r.faults.transfer_aborts, 0u);
  EXPECT_TRUE(r.success());
  // The VM stays leased until its last upload.
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 734.0 - 10.0);
}

TEST(Faults, TransferRetriesExhaustedFailDownstreamTasks) {
  const auto wf = testing::diamond();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  FaultModel model;
  model.p_transfer_fail = 0.9999999;  // every seeded draw fails
  RecoveryPolicy recovery;
  recovery.max_transfer_retries = 2;

  const SimResult r = Simulator(wf, platform)
                          .run_with_faults(schedule,
                                           dag::WeightRealization({100, 200, 300, 100}), model,
                                           recovery);

  // The external input of A is attempted 1 + 2 times, aborts, and the
  // failure cascades through the whole diamond.
  EXPECT_EQ(r.faults.transfer_failures, 3u);
  EXPECT_EQ(r.faults.transfer_aborts, 1u);
  EXPECT_EQ(r.faults.failed_tasks, 4u);
  EXPECT_FALSE(r.success());
}

TEST(Faults, CrashProvisionsReplacementVmExactTimeline) {
  // lambda = 3.6/h gives seeded crash delays c1 ~ 304.7 s and c2 ~ 979.8 s:
  // the first VM dies mid-task, the same-category replacement survives long
  // enough to finish the 900 s re-execution.
  const auto wf = one_task();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  FaultModel model;
  model.lambda_crash = 3.6;
  FaultInjector oracle(model);
  const Seconds c1 = oracle.crash_after();
  const Seconds c2 = oracle.crash_after();
  ASSERT_LT(c1, 900.0);
  ASSERT_GT(c2, 900.0);

  const SimResult r =
      Simulator(wf, platform).run_with_faults(schedule, dag::WeightRealization({900.0}), model);

  const Seconds crash_time = 10.0 + c1;        // boot 10, crash c1 later
  const Seconds restart = crash_time + 10.0;   // replacement boots immediately
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_EQ(r.faults.task_reexecutions, 1u);
  EXPECT_DOUBLE_EQ(r.faults.wasted_compute, c1);
  EXPECT_FALSE(r.faults.degraded);
  ASSERT_EQ(r.vms.size(), 2u);
  EXPECT_TRUE(r.vms[0].crashed);
  EXPECT_DOUBLE_EQ(r.vms[0].end, crash_time);  // billing froze at the crash
  EXPECT_TRUE(r.vms[1].recovery);
  EXPECT_EQ(r.tasks[0].vm, 1u);
  EXPECT_EQ(r.tasks[0].restarts, 1u);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, restart);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, restart + 900.0);
  EXPECT_DOUBLE_EQ(r.makespan, restart + 900.0);
  // Both VMs bill: the dead one up to the crash, the replacement for the
  // full re-execution; the latter is the recovery overhead.
  EXPECT_DOUBLE_EQ(r.cost.vm_time, c1 + 900.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 1.0);
  EXPECT_DOUBLE_EQ(r.faults.recovery_cost, 900.0 + 0.5);
  EXPECT_TRUE(r.success());
}

TEST(Faults, CrashRetriesExhaustedFailTheTask) {
  // Same crash stream, but the task is long enough that the replacement VM
  // also dies mid-task (c2 < 1000), and max_task_retries = 1 forbids a third
  // attempt.
  const auto wf = one_task();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  FaultModel model;
  model.lambda_crash = 3.6;
  FaultInjector oracle(model);
  const Seconds c1 = oracle.crash_after();
  const Seconds c2 = oracle.crash_after();
  ASSERT_LT(c1, 1000.0);
  ASSERT_LT(c2, 1000.0);
  RecoveryPolicy recovery;
  recovery.max_task_retries = 1;

  const SimResult r = Simulator(wf, platform)
                          .run_with_faults(schedule, dag::WeightRealization({1000.0}), model,
                                           recovery);

  EXPECT_EQ(r.faults.crashes, 2u);
  EXPECT_EQ(r.faults.task_reexecutions, 2u);
  EXPECT_EQ(r.faults.failed_tasks, 1u);
  EXPECT_TRUE(r.tasks[0].failed);
  EXPECT_FALSE(r.success());
  EXPECT_DOUBLE_EQ(r.faults.wasted_compute, c1 + c2);
}

/// Shared scenario for the budget-cap tests: two mono VMs, task A (200 s)
/// on VM 0, task B (100 s) on VM 1.  With lambda = 7.2/h the seeded crash
/// delays are ~152.3 s for VM 0 (killing A mid-flight at ~162.3) and
/// ~489.9 s for VM 1 (after all work is done — a harmless no-op).
struct CrashPairScenario {
  CrashPairScenario() {
    schedule.add_vm(0);
    schedule.add_vm(0);
    schedule.assign(0, 0);
    schedule.assign(1, 1);
    model.lambda_crash = 7.2;
    FaultInjector oracle(model);
    c_vm0 = oracle.crash_after();
    c_vm1 = oracle.crash_after();
    c_vm2 = oracle.crash_after();
  }
  dag::Workflow wf = testing::bag2();
  Schedule schedule{2};
  dag::WeightRealization weights{{200.0, 100.0}};
  FaultModel model;
  Seconds c_vm0 = 0, c_vm1 = 0, c_vm2 = 0;
};

TEST(Faults, BudgetCapDegradesOntoSurvivingVm) {
  CrashPairScenario s;
  ASSERT_LT(s.c_vm0, 200.0);   // VM 0 dies while A runs
  ASSERT_GT(s.c_vm1, 400.0);   // VM 1 outlives everything
  const auto platform = testing::mono_platform();
  RecoveryPolicy recovery;
  recovery.budget_cap = 0.6;  // below the already-committed spend: always degrade

  const SimResult r =
      Simulator(s.wf, platform).run_with_faults(s.schedule, s.weights, s.model, recovery);

  const Seconds crash_time = 10.0 + s.c_vm0;
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_TRUE(r.faults.degraded);
  EXPECT_DOUBLE_EQ(r.faults.recovery_cost, 0.0);  // nothing new was provisioned
  ASSERT_EQ(r.vms.size(), 2u);                    // no replacement VM appeared
  // A moved to VM 1 (idle since B finished at 110) and restarted there.
  EXPECT_EQ(r.tasks[0].vm, 1u);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, crash_time);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, crash_time + 200.0);
  EXPECT_DOUBLE_EQ(r.tasks[1].finish, 110.0);
  EXPECT_TRUE(r.success());
  EXPECT_DOUBLE_EQ(r.makespan, crash_time + 200.0);
}

TEST(Faults, UncappedRecoveryProvisionsFreshVm) {
  CrashPairScenario s;
  ASSERT_LT(s.c_vm0, 200.0);
  ASSERT_GT(s.c_vm1, 400.0);
  ASSERT_GT(s.c_vm2, 210.0);  // the replacement VM survives the re-run
  const auto platform = testing::mono_platform();

  const SimResult r = Simulator(s.wf, platform).run_with_faults(s.schedule, s.weights, s.model);

  const Seconds crash_time = 10.0 + s.c_vm0;
  const Seconds restart = crash_time + 10.0;
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_FALSE(r.faults.degraded);
  ASSERT_EQ(r.vms.size(), 3u);
  EXPECT_TRUE(r.vms[2].recovery);
  EXPECT_EQ(r.vms[2].category, 0u);  // same category as the crashed VM
  EXPECT_EQ(r.tasks[0].vm, 2u);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, restart);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, restart + 200.0);
  EXPECT_DOUBLE_EQ(r.faults.recovery_cost, 200.0 + 0.5);
  EXPECT_TRUE(r.success());
}

TEST(Faults, SameSeedGivesBitIdenticalResults) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {23, 3, 1.0});
  const auto platform = platform::paper_platform();
  const auto out = sched::make_scheduler("heft-budg")->schedule({wf, platform, 2.0});
  Rng rng(7);
  const dag::WeightRealization weights = dag::sample_weights(wf, rng);
  FaultModel model;
  model.lambda_crash = 2.0;
  model.p_transfer_fail = 0.05;
  model.p_boot_fail = 0.1;

  Simulator sim(wf, platform);
  const SimResult a = sim.run_with_faults(out.schedule, weights, model);
  const SimResult b = sim.run_with_faults(out.schedule, weights, model);

  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.boot_failures, b.faults.boot_failures);
  EXPECT_EQ(a.faults.transfer_failures, b.faults.transfer_failures);
  EXPECT_EQ(a.faults.failed_tasks, b.faults.failed_tasks);
  EXPECT_DOUBLE_EQ(a.faults.wasted_compute, b.faults.wasted_compute);
  EXPECT_DOUBLE_EQ(a.faults.recovery_cost, b.faults.recovery_cost);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (dag::TaskId t = 0; t < a.tasks.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.tasks[t].start, b.tasks[t].start) << t;
    EXPECT_DOUBLE_EQ(a.tasks[t].finish, b.tasks[t].finish) << t;
    EXPECT_EQ(a.tasks[t].failed, b.tasks[t].failed) << t;
  }
}

TEST(Faults, InvalidModelRejectedAtRunTime) {
  const auto wf = one_task();
  const auto platform = testing::mono_platform();
  const auto schedule = single_vm_schedule(wf);
  Simulator sim(wf, platform);
  FaultModel bad;
  bad.p_boot_fail = 1.5;
  EXPECT_THROW(
      (void)sim.run_with_faults(schedule, dag::WeightRealization({100.0}), bad),
      InvalidArgument);
  FaultModel fine;
  fine.lambda_crash = 1.0;
  RecoveryPolicy bad_recovery;
  bad_recovery.max_boot_attempts = 0;
  EXPECT_THROW((void)sim.run_with_faults(schedule, dag::WeightRealization({100.0}), fine,
                                         bad_recovery),
               InvalidArgument);
}

}  // namespace
}  // namespace cloudwf::sim
