/// \file test_online.cpp
/// \brief Tests of the online re-scheduling mode (paper Section VI future
/// work): interrupting tail-latency tasks and restarting them on faster VMs.
///
/// Toy platform: boot 10 s, bw 1e6 B/s, slow (speed 1, $1/s), fast
/// (speed 2, $2/s), setup $0.5.

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

/// One task, mu=100 sigma=50, whose draw came out at 1000 instructions.
struct TailScenario {
  TailScenario() {
    dag::Workflow built("tail");
    built.add_task("T", 100, 50);
    built.freeze();
    wf = std::move(built);
    schedule.assign(0, schedule.add_vm(0));  // slow VM
  }
  dag::Workflow wf{"placeholder"};
  Schedule schedule{1};
  dag::WeightRealization weights{{1000.0}};
};

TEST(Online, OfflineRunHasNoMigrations) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  const SimResult r = Simulator(s.wf, platform).run(s.schedule, s.weights);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.tasks[0].restarts, 0u);
  // boot 10 + 1000 s of compute on the slow VM.
  EXPECT_DOUBLE_EQ(r.makespan, 1010.0);
}

TEST(Online, TailTaskMigratesToFasterVmExactTimeline) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  OnlinePolicy policy;
  policy.timeout_sigmas = 2.0;  // tolerate (100 + 2*50)/1 = 200 s
  const SimResult r = Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});

  EXPECT_EQ(r.migrations, 1u);
  EXPECT_EQ(r.tasks[0].restarts, 1u);
  // Start 10, interrupted at 210; rescue VM (fast) boots 210..220; the task
  // restarts from scratch: 1000/2 = 500 s -> finishes at 720.
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 220.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, 720.0);
  EXPECT_DOUBLE_EQ(r.makespan, 720.0);
  EXPECT_EQ(r.used_vms, 2u);  // the abandoned VM still bills
  // Old VM billed [10, 210] at $1; rescue billed [220, 720] at $2.
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 200.0 + 500.0 * 2.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 1.0);
  EXPECT_EQ(r.tasks[0].vm, 1u);
}

TEST(Online, TypicalDrawDoesNotMigrate) {
  TailScenario s;
  s.weights = dag::WeightRealization({120.0});  // within mu + 2 sigma
  const auto platform = testing::toy_platform();
  const SimResult r =
      Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = OnlinePolicy{}});
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 130.0);
}

TEST(Online, MaxRestartsZeroDisablesMigration) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  OnlinePolicy policy;
  policy.max_restarts = 0;
  const SimResult r = Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 1010.0);
}

TEST(Online, MinSpeedupGateBlocksPointlessMigration) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  OnlinePolicy policy;
  policy.min_speedup = 3.0;  // fastest/current = 2 < 3
  const SimResult r = Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});
  EXPECT_EQ(r.migrations, 0u);
}

TEST(Online, AlreadyOnFastestCategoryNeverMigrates) {
  TailScenario s;
  Schedule fast_schedule(1);
  fast_schedule.assign(0, fast_schedule.add_vm(1));  // fast VM
  const auto platform = testing::toy_platform();
  const SimResult r =
      Simulator(s.wf, platform).run(fast_schedule, s.weights, {.online = OnlinePolicy{}});
  EXPECT_EQ(r.migrations, 0u);
}

TEST(Online, BudgetCapBlocksMigration) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  OnlinePolicy policy;
  policy.budget_cap = 100.0;  // the rescue VM alone would project past this
  const SimResult r = Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});
  EXPECT_EQ(r.migrations, 0u);
}

TEST(Online, BudgetCapExactlyAtProjectionBlocksMigration) {
  // At the t = 210 timeout the slow VM has committed 200 s * $1 + $0.5
  // setup = $200.5; the rescue projection adds $0.5 setup plus
  // (mu + sigma)/2 * $2 = $150.5, totalling exactly $351.  Consuming the cap
  // exactly leaves no headroom, so the migration must be vetoed; any strictly
  // larger cap admits it.
  TailScenario s;
  const auto platform = testing::toy_platform();
  OnlinePolicy policy;
  policy.budget_cap = 351.0;
  const SimResult blocked =
      Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});
  EXPECT_EQ(blocked.migrations, 0u);
  EXPECT_DOUBLE_EQ(blocked.makespan, 1010.0);

  policy.budget_cap = 351.0 + 1e-3;
  const SimResult allowed =
      Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});
  EXPECT_EQ(allowed.migrations, 1u);
  EXPECT_DOUBLE_EQ(allowed.makespan, 720.0);
}

TEST(Online, LocalPredecessorDataIsReStagedThroughDc) {
  dag::Workflow wf("chain");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 50);
  wf.add_edge(a, b, 1e6);
  wf.freeze();
  Schedule schedule(2);
  const VmId vm = schedule.add_vm(0);
  schedule.assign(a, vm);
  schedule.assign(b, vm);
  const dag::WeightRealization weights({100.0, 1000.0});

  const auto platform = testing::toy_platform();
  const SimResult r = Simulator(wf, platform).run(schedule, weights, {.online = OnlinePolicy{}});

  EXPECT_EQ(r.migrations, 1u);
  // A: 10..110.  B starts 110, interrupted at 110 + 200 = 310.  The A->B
  // data was local to the old VM: uploaded 310..311; rescue boots 310..320,
  // downloads 320..321, B reruns 321..821.
  EXPECT_DOUBLE_EQ(r.tasks[b].start, 321.0);
  EXPECT_DOUBLE_EQ(r.tasks[b].finish, 821.0);
  EXPECT_DOUBLE_EQ(r.makespan, 821.0);
}

TEST(Online, DownstreamConsumerOnOldVmStillGetsData) {
  dag::Workflow wf("fanout");
  const auto a = wf.add_task("A", 100, 50);
  const auto c = wf.add_task("C", 100, 0);
  wf.add_edge(a, c, 1e6);
  wf.freeze();
  Schedule schedule(2);
  const VmId vm = schedule.add_vm(0);
  schedule.assign(a, vm);
  schedule.assign(c, vm);
  const dag::WeightRealization weights({1000.0, 100.0});

  const auto platform = testing::toy_platform();
  const SimResult r = Simulator(wf, platform).run(schedule, weights, {.online = OnlinePolicy{}});

  EXPECT_EQ(r.migrations, 1u);
  // A starts 10, interrupted 210, reruns on the rescue VM 220..720; its
  // output now crosses VMs: upload 720..721, download to the old VM
  // 721..722, C runs 722..822.
  EXPECT_DOUBLE_EQ(r.tasks[a].finish, 720.0);
  EXPECT_DOUBLE_EQ(r.tasks[c].start, 722.0);
  EXPECT_DOUBLE_EQ(r.makespan, 822.0);
  EXPECT_EQ(r.tasks[c].restarts, 0u);
}

TEST(Online, RestartBoundIsRespectedOnRescueVm) {
  // Even on the rescue VM the draw exceeds the timeout, but max_restarts = 1
  // forbids a second interruption.
  TailScenario s;
  s.weights = dag::WeightRealization({10000.0});
  const auto platform = testing::toy_platform();
  OnlinePolicy policy;  // max_restarts = 1
  const SimResult r = Simulator(s.wf, platform).run(s.schedule, s.weights, {.online = policy});
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_EQ(r.tasks[0].restarts, 1u);
  // Rescue: boots 210..220, runs 10000/2 = 5000 s to 5220.
  EXPECT_DOUBLE_EQ(r.makespan, 5220.0);
}

TEST(Online, DeterministicAcrossRuns) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {24, 9, 1.0});
  const auto platform = platform::paper_platform();
  const auto out = sched::make_scheduler("heft-budg")->schedule({wf, platform, 3.0});
  Rng rng1(5);
  Rng rng2(5);
  Simulator sim(wf, platform);
  const SimResult a =
      sim.run(out.schedule, dag::sample_weights(wf, rng1), {.online = OnlinePolicy{}});
  const SimResult b =
      sim.run(out.schedule, dag::sample_weights(wf, rng2), {.online = OnlinePolicy{}});
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Online, HighUncertaintyWorkflowStaysSoundUnderMigrations) {
  // The paper lists online re-scheduling as *risky* future work: with
  // Gaussian (thin-tailed) weights, E[w | w > mu+2sigma] is barely above the
  // timeout, so restarting from scratch rarely pays off.  We assert the
  // honest outcome: migrations do fire on a tight small-VM schedule, the
  // execution stays correct, and the mean makespan stays within noise of the
  // offline run.
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {23, 3, 1.0});
  const auto platform = platform::paper_platform();
  const auto levels = exp::compute_budget_levels(wf, platform);
  const auto out =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, 1.05 * levels.min_cost});

  Simulator sim(wf, platform);
  double offline_total = 0;
  double online_total = 0;
  std::size_t total_migrations = 0;
  const Rng base(77);
  constexpr int reps = 30;
  for (int rep = 0; rep < reps; ++rep) {
    Rng stream = base.fork(static_cast<std::uint64_t>(rep));
    const dag::WeightRealization weights = dag::sample_weights(wf, stream);
    offline_total += sim.run(out.schedule, weights).makespan;
    const SimResult online = sim.run(out.schedule, weights, {.online = OnlinePolicy{}});
    online_total += online.makespan;
    total_migrations += online.migrations;
    for (const dag::Edge& e : wf.edges())
      EXPECT_LE(online.tasks[e.src].finish, online.tasks[e.dst].start + 1e-9);
  }
  EXPECT_GT(total_migrations, 0u);
  EXPECT_LE(online_total, offline_total * 1.05);
}

TEST(Online, InvalidPolicyRejected) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  Simulator sim(s.wf, platform);
  OnlinePolicy negative;
  negative.timeout_sigmas = -1.0;
  EXPECT_THROW((void)sim.run(s.schedule, s.weights, {.online = negative}), InvalidArgument);
  OnlinePolicy slowdown;
  slowdown.min_speedup = 0.5;
  EXPECT_THROW((void)sim.run(s.schedule, s.weights, {.online = slowdown}), InvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  OnlinePolicy nan_timeout;
  nan_timeout.timeout_sigmas = nan;
  EXPECT_THROW((void)sim.run(s.schedule, s.weights, {.online = nan_timeout}), InvalidArgument);
  for (const double cap : {-1.0, nan}) {
    OnlinePolicy bad_cap;
    bad_cap.budget_cap = cap;
    EXPECT_THROW((void)sim.run(s.schedule, s.weights, {.online = bad_cap}), InvalidArgument)
        << cap;
  }
  OnlinePolicy uncapped;  // an infinite cap means no cap
  uncapped.budget_cap = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW((void)sim.run(s.schedule, s.weights, {.online = uncapped}));
}

TEST(Online, CombinedWithEnabledFaultsRejected) {
  TailScenario s;
  const auto platform = testing::toy_platform();
  Simulator sim(s.wf, platform);
  FaultModel faults;
  faults.lambda_crash = 1.0;
  EXPECT_THROW((void)sim.run(s.schedule, s.weights, {.online = OnlinePolicy{}, .faults = faults}),
               InvalidArgument);
  // A disabled model is no fault layer: the online run goes ahead.
  const SimResult r =
      sim.run(s.schedule, s.weights, {.online = OnlinePolicy{}, .faults = FaultModel{}});
  EXPECT_EQ(r.migrations, 1u);
}

}  // namespace
}  // namespace cloudwf::sim
