/// \file test_engine_edges.cpp
/// \brief Engine edge cases: zero-byte transfers, single-task workflows,
/// fan patterns at the boundaries, and a large-instance smoke run.

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/analysis.hpp"
#include "pegasus/generator.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

TEST(EngineEdges, ZeroByteCrossVmEdgeIsInstantaneous) {
  dag::Workflow wf("zero");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 0);
  wf.add_edge(a, b, 0.0);  // control dependency, no data
  wf.freeze();

  const auto platform = testing::toy_platform();
  Schedule s(2);
  s.assign(a, s.add_vm(0));
  s.assign(b, s.add_vm(0));
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  // A: 10..110; zero-byte upload is immediate, so B's VM boots at 110 and
  // B runs 120..220 with no transfer time at all.
  EXPECT_DOUBLE_EQ(r.tasks[b].start, 120.0);
  EXPECT_DOUBLE_EQ(r.makespan, 220.0);
}

TEST(EngineEdges, SingleTaskWorkflow) {
  dag::Workflow wf("solo");
  wf.add_task("only", 50, 0);
  wf.freeze();
  const auto platform = testing::toy_platform();
  Schedule s(1);
  s.assign(0, s.add_vm(1));  // fast VM
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  EXPECT_DOUBLE_EQ(r.makespan, 10.0 + 25.0);
  EXPECT_EQ(r.used_vms, 1u);
  EXPECT_EQ(r.transfers.count, 0u);
}

TEST(EngineEdges, WideFanOutAndFanInAcrossManyVms) {
  // star: one source feeding 16 consumers on 16 VMs, all feeding one sink.
  dag::Workflow wf("star");
  const auto source = wf.add_task("src", 100, 0);
  const auto sink = wf.add_task("sink", 100, 0);
  std::vector<dag::TaskId> middle;
  for (int i = 0; i < 16; ++i) {
    const auto t = wf.add_task("m" + std::to_string(i), 100, 0);
    wf.add_edge(source, t, 1e6);
    wf.add_edge(t, sink, 1e6);
    middle.push_back(t);
  }
  wf.freeze();

  const auto platform = testing::toy_platform();
  Schedule s(wf.task_count());
  s.assign(source, s.add_vm(0));
  for (const auto t : middle) s.assign(t, s.add_vm(0));
  s.assign(sink, s.add_vm(0));
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));

  // Source uploads its 16 outputs back-to-back on one serialized uplink:
  // uploads finish at 111..126; the last middle VM boots at 126.
  Seconds last_middle_start = 0;
  for (const auto t : middle)
    last_middle_start = std::max(last_middle_start, r.tasks[t].start);
  EXPECT_DOUBLE_EQ(last_middle_start, 137.0);  // 126 boot-req + 10 boot + 1 download
  // Sink needs all 16 downloads, serialized on its downlink.
  EXPECT_EQ(r.used_vms, 18u);
  // 16 src uploads + 16 middle downloads + 16 middle uploads + 16 sink downloads.
  EXPECT_EQ(r.transfers.count, 4u * 16u);
  EXPECT_GT(r.tasks[sink].start, r.tasks[middle.back()].finish);
}

TEST(EngineEdges, SelfContainedChainNeverTouchesTheNetwork) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(1);
  for (dag::TaskId t : wf.topological_order()) s.assign(t, vm);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  EXPECT_EQ(r.transfers.count, 0u);
  EXPECT_DOUBLE_EQ(r.cost.dc_transfer, 0.0);
}

TEST(EngineEdges, FourHundredTaskInstanceRunsQuickly) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {400, 1, 0.5});
  const auto platform = platform::paper_platform();
  Schedule s(wf.task_count());
  // Round-robin over 16 VMs with rank priorities (always valid).
  const dag::RankParams params{platform.mean_speed(), platform.bandwidth(), true};
  const auto ranks = dag::bottom_levels(wf, params);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) s.set_priority(t, ranks[t]);
  for (int i = 0; i < 16; ++i) s.add_vm(static_cast<platform::CategoryId>(i % 3));
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) s.assign(t, t % 16);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  EXPECT_EQ(r.tasks.size(), 400u);
  EXPECT_GT(r.makespan, 0.0);
  for (const dag::Edge& e : wf.edges())
    ASSERT_LE(r.tasks[e.src].finish, r.tasks[e.dst].start + 1e-9);
}

}  // namespace
}  // namespace cloudwf::sim
