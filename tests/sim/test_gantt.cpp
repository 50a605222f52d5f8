/// \file test_gantt.cpp
/// \brief Unit tests for the SVG Gantt renderer (sim/gantt).

#include "sim/gantt.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/xml.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

SimResult run_diamond(const dag::Workflow& wf, const platform::Platform& platform) {
  Schedule schedule(wf.task_count());
  const VmId a = schedule.add_vm(0);
  const VmId b = schedule.add_vm(1);
  std::size_t i = 0;
  for (dag::TaskId t : wf.topological_order()) schedule.assign(t, i++ % 2 == 0 ? a : b);
  return Simulator(wf, platform).run(schedule, dag::mean_weights(wf));
}

TEST(Gantt, ProducesWellFormedSvg) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const SimResult result = run_diamond(wf, platform);
  const std::string svg = render_gantt_svg(wf, result);
  // The renderer escapes everything, so the output parses as XML.
  const XmlElement root = parse_xml(svg);
  EXPECT_EQ(root.name(), "svg");
}

TEST(Gantt, ContainsOneBarPerTaskAndLanePerVm) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const SimResult result = run_diamond(wf, platform);
  const std::string svg = render_gantt_svg(wf, result);
  // 4 task bars carry <title> tooltips.
  std::size_t titles = 0;
  for (std::size_t pos = 0; (pos = svg.find("<title>", pos)) != std::string::npos; ++pos)
    ++titles;
  EXPECT_EQ(titles, wf.task_count());
  EXPECT_NE(svg.find("vm0"), std::string::npos);
  EXPECT_NE(svg.find("vm1"), std::string::npos);
  EXPECT_NE(svg.find("makespan"), std::string::npos);
}

TEST(Gantt, EscapesTaskNames) {
  dag::Workflow wf("escape<&>");
  wf.add_task("a<b>&c", 100, 0);
  wf.freeze();
  Schedule schedule(1);
  schedule.assign(0, schedule.add_vm(0));
  const auto platform = testing::toy_platform();
  const SimResult result = Simulator(wf, platform).run(schedule, dag::mean_weights(wf));
  const std::string svg = render_gantt_svg(wf, result);
  EXPECT_NO_THROW((void)parse_xml(svg));
  EXPECT_NE(svg.find("a&lt;b&gt;&amp;c"), std::string::npos);
}

TEST(Gantt, TitleOverrideAndOptionsValidated) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const SimResult result = run_diamond(wf, platform);
  GanttOptions options;
  options.title = "Custom Title";
  EXPECT_NE(render_gantt_svg(wf, result, options).find("Custom Title"), std::string::npos);

  options.width = 50;
  EXPECT_THROW((void)render_gantt_svg(wf, result, options), InvalidArgument);
  options.width = 800;
  options.lane_height = 4;
  EXPECT_THROW((void)render_gantt_svg(wf, result, options), InvalidArgument);
}

/// Regression: a VM whose billed window is empty (end == boot_done — e.g. a
/// recovery VM that never ran a task) used to divide by zero and print "nan%"
/// in the lane label and utilization CSV column.  vm_utilization now clamps
/// the degenerate window to 0.
TEST(Gantt, DegenerateVmWindowRendersZeroUtilization) {
  dag::Workflow wf("degenerate");
  wf.add_task("T", 100, 0);
  wf.freeze();

  SimResult result;
  result.start_first = 0;
  result.end_last = 20;
  result.makespan = 20;
  TaskRecord task;
  task.vm = 0;
  task.start = 10;
  task.finish = 20;
  result.tasks.push_back(task);
  VmRecord busy;  // billed 10..20, busy 10 -> 100%
  busy.boot_done = 10;
  busy.end = 20;
  busy.busy = 10;
  busy.task_count = 1;
  result.vms.push_back(busy);
  VmRecord degenerate;  // lane-worthy (end > 0) but zero-length billed window
  degenerate.boot_request = 5;
  degenerate.boot_done = 15;
  degenerate.end = 15;
  degenerate.recovery = true;
  result.vms.push_back(degenerate);

  EXPECT_DOUBLE_EQ(vm_utilization(degenerate), 0.0);

  const std::string svg = render_gantt_svg(wf, result);
  EXPECT_EQ(svg.find("nan"), std::string::npos);
  EXPECT_EQ(svg.find("inf"), std::string::npos);
  EXPECT_NE(svg.find("0%"), std::string::npos);
  EXPECT_NO_THROW((void)parse_xml(svg));
}

TEST(Gantt, MarksRestartsInTooltips) {
  dag::Workflow wf("tail");
  wf.add_task("T", 100, 50);
  wf.freeze();
  Schedule schedule(1);
  schedule.assign(0, schedule.add_vm(0));
  const auto platform = testing::toy_platform();
  const SimResult result =
      Simulator(wf, platform)
          .run(schedule, dag::WeightRealization({1000.0}), {.online = OnlinePolicy{}});
  ASSERT_EQ(result.migrations, 1u);
  const std::string svg = render_gantt_svg(wf, result);
  EXPECT_NE(svg.find("1 restart"), std::string::npos);
}

}  // namespace
}  // namespace cloudwf::sim
