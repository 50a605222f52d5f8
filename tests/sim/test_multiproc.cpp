/// \file test_multiproc.cpp
/// \brief Engine tests for multi-processor VM categories (n_k > 1) and
/// quantized billing inside the simulator.
///
/// The paper's model gives a category n_k processors, each running one task
/// at a time; tasks on a VM must *start* in list order.

#include <gtest/gtest.h>

#include "pegasus/generator.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

platform::Platform dual_proc_platform() {
  return platform::PlatformBuilder("dual")
      .add_category({"dual", 1.0, 1.0, 0.5, 2})
      .boot_delay(10.0)
      .bandwidth(1e6)
      .build();
}

TEST(MultiProc, IndependentTasksRunConcurrently) {
  const auto wf = testing::bag2();  // two 100-instruction tasks
  const auto platform = dual_proc_platform();
  Schedule s(2);
  const VmId vm = s.add_vm(0);
  s.assign(0, vm);
  s.assign(1, vm);
  const SimResult r = Simulator(wf, platform).run_mean(s);
  // Both start right after boot on the two processors.
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[1].start, 10.0);
  EXPECT_DOUBLE_EQ(r.makespan, 110.0);
  EXPECT_EQ(r.used_vms, 1u);
}

TEST(MultiProc, ThreeTasksOnTwoProcessors) {
  dag::Workflow wf("bag3");
  wf.add_task("A", 100, 0);
  wf.add_task("B", 200, 0);
  wf.add_task("C", 100, 0);
  wf.freeze();
  const auto platform = dual_proc_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  s.set_priority(0, 3);
  s.set_priority(1, 2);
  s.set_priority(2, 1);
  s.assign(0, vm);
  s.assign(1, vm);
  s.assign(2, vm);
  const SimResult r = Simulator(wf, platform).run_mean(s);
  // A and B start at 10; C takes the processor A frees at 110.
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[1].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[2].start, 110.0);
  EXPECT_DOUBLE_EQ(r.makespan, 210.0);  // B and C both end at 210
}

TEST(MultiProc, StartsStayInListOrder) {
  // B (second in list) cannot start before A even though a processor is
  // free: A waits for a download while B has no inputs.
  dag::Workflow wf("ordered");
  const auto producer = wf.add_task("P", 100, 0);
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 0);
  wf.add_edge(producer, a, 1e6);
  wf.freeze();

  const auto platform = dual_proc_platform();
  Schedule s(3);
  const VmId pvm = s.add_vm(0);
  const VmId vm = s.add_vm(0);
  s.assign(producer, pvm);
  s.set_priority(a, 2);  // A before B in the list
  s.set_priority(b, 1);
  s.assign(a, vm);
  s.assign(b, vm);
  const SimResult r = Simulator(wf, platform).run_mean(s);
  // P: 10..110; upload 110..111; vm boots at 111 (A's data now at DC),
  // download 121..122; A starts 122 — and only then B.
  EXPECT_DOUBLE_EQ(r.tasks[a].start, 122.0);
  EXPECT_GE(r.tasks[b].start, r.tasks[a].start);
}

TEST(MultiProc, BusyNeverExceedsProcessorCapacity) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {24, 3, 0.5});
  const auto platform = platform::PlatformBuilder("quad")
                            .add_category({"quad", 2.0, 1.0, 0.1, 4})
                            .boot_delay(10.0)
                            .bandwidth(125e6)
                            .build();
  Schedule s(wf.task_count());
  const VmId vm = s.add_vm(0);
  for (dag::TaskId t : wf.topological_order()) s.assign(t, vm);
  const SimResult r = Simulator(wf, platform).run_mean(s);
  const VmRecord& record = r.vms[vm];
  EXPECT_LE(record.busy, (record.end - record.boot_done) * 4 + 1e-6);
  EXPECT_GT(record.busy, record.end - record.boot_done);  // real overlap happened
}

TEST(QuantizedBilling, SimulatorRoundsVmUsageUp) {
  const auto wf = testing::bag2();
  const auto hourly = platform::PlatformBuilder("hourly")
                          .add_category({"slow", 1.0, 1.0, 0.5, 1})
                          .boot_delay(10.0)
                          .bandwidth(1e6)
                          .billing_quantum(3600.0)
                          .build();
  Schedule s(2);
  const VmId vm = s.add_vm(0);
  s.assign(0, vm);
  s.assign(1, vm);
  // Usage is 200 s, billed as a full hour.
  const SimResult r = Simulator(wf, hourly).run_mean(s);
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 3600.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 0.5);

  // With continuous billing the same run costs 200.
  const auto continuous = testing::mono_platform();
  Schedule s2(2);
  const VmId vm2 = s2.add_vm(0);
  s2.assign(0, vm2);
  s2.assign(1, vm2);
  const SimResult r2 = Simulator(wf, continuous).run_mean(s2);
  EXPECT_DOUBLE_EQ(r2.cost.vm_time, 200.0);
}

TEST(QuantizedBilling, HourlyBillingPenalizesManyVms) {
  // The economics flip under coarse quanta: one shared VM bills one hour,
  // one VM per task bills two hours.
  const auto wf = testing::bag2();
  const auto hourly = platform::PlatformBuilder("hourly")
                          .add_category({"slow", 1.0, 1.0, 0.0, 1})
                          .boot_delay(10.0)
                          .bandwidth(1e6)
                          .billing_quantum(3600.0)
                          .build();
  Schedule shared(2);
  const VmId vm = shared.add_vm(0);
  shared.assign(0, vm);
  shared.assign(1, vm);
  Schedule spread(2);
  spread.assign(0, spread.add_vm(0));
  spread.assign(1, spread.add_vm(0));
  Simulator sim(wf, hourly);
  EXPECT_DOUBLE_EQ(sim.run_mean(shared).cost.vm_time, 3600.0);
  EXPECT_DOUBLE_EQ(sim.run_mean(spread).cost.vm_time, 7200.0);
}

}  // namespace
}  // namespace cloudwf::sim
