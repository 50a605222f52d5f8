/// \file test_metrics.cpp
/// \brief Unit tests for the metrics registry and histogram quantiles
/// (obs/metrics) plus run-metric recording (sim/trace).

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/result.hpp"
#include "sim/trace.hpp"

namespace cloudwf::obs {
namespace {

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry metrics;
  EXPECT_TRUE(metrics.empty());
  metrics.count("events");
  metrics.count("events");
  metrics.count("bytes", 100.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("events"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("bytes"), 100.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("missing"), 0.0);
  EXPECT_FALSE(metrics.empty());
}

TEST(Metrics, GaugesLastWriteWins) {
  MetricsRegistry metrics;
  metrics.gauge("makespan", 100.0);
  metrics.gauge("makespan", 250.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("makespan"), 250.0);
}

TEST(Metrics, HistogramQuantilesMatchKnownDistribution) {
  Histogram histogram;
  // 0..100 uniformly: quantile(q) = 100 q under linear interpolation at
  // q * (n - 1), matching common/stats Summary.
  for (int i = 0; i <= 100; ++i) histogram.observe(i);
  EXPECT_EQ(histogram.count(), 101u);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 50.0);
}

TEST(Metrics, HistogramQuantileInterpolatesBetweenSamples) {
  Histogram histogram;
  histogram.observe(10.0);
  histogram.observe(20.0);
  // q=0.5 over two samples: position 0.5 -> midpoint.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 15.0);
}

TEST(Metrics, EmptyHistogramSerializesAsZeros) {
  Histogram histogram;
  const Json json = histogram.to_json();
  EXPECT_DOUBLE_EQ(json.at("count").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(json.at("p50").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(json.at("p99").as_number(), 0.0);
}

TEST(Metrics, ToJsonGroupsByMetricType) {
  MetricsRegistry metrics;
  metrics.count("transfers", 3.0);
  metrics.gauge("cost", 1.25);
  metrics.observe("wait", 1.0);
  metrics.observe("wait", 3.0);

  const Json json = metrics.to_json();
  EXPECT_DOUBLE_EQ(json.at("counters").at("transfers").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(json.at("gauges").at("cost").as_number(), 1.25);
  const Json& wait = json.at("histograms").at("wait");
  EXPECT_DOUBLE_EQ(wait.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(wait.at("mean").as_number(), 2.0);

  // Round-trip through the parser.
  const Json reparsed = Json::parse(json.dump(2));
  EXPECT_EQ(reparsed.dump(2), json.dump(2));
}

TEST(Metrics, HistogramLookupByName) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.histogram("wait"), nullptr);
  metrics.observe("wait", 4.0);
  ASSERT_NE(metrics.histogram("wait"), nullptr);
  EXPECT_DOUBLE_EQ(metrics.histogram("wait")->mean(), 4.0);
}

/// record_run_metrics turns a SimResult into registry entries, guarding the
/// degenerate utilization windows satellite (a) fixed.
TEST(Metrics, RecordRunMetricsGuardsDegenerateVmWindows) {
  sim::SimResult result;
  result.makespan = 100.0;
  result.used_vms = 2;
  result.events_processed = 42;

  sim::TaskRecord task;
  task.vm = 0;
  task.inputs_at_dc = 5.0;
  task.start = 12.0;
  task.finish = 20.0;
  result.tasks.push_back(task);

  sim::VmRecord busy_vm;  // normal: billed 10..20, busy 8
  busy_vm.boot_done = 10.0;
  busy_vm.end = 20.0;
  busy_vm.busy = 8.0;
  busy_vm.task_count = 1;
  result.vms.push_back(busy_vm);

  sim::VmRecord empty_vm;  // recovery VM that never ran: end == boot_done
  empty_vm.boot_done = 10.0;
  empty_vm.end = 10.0;
  empty_vm.recovery = true;
  result.vms.push_back(empty_vm);

  EXPECT_DOUBLE_EQ(sim::vm_utilization(busy_vm), 0.8);
  EXPECT_DOUBLE_EQ(sim::vm_utilization(empty_vm), 0.0);  // no NaN

  MetricsRegistry metrics;
  sim::record_run_metrics(metrics, result, 2.0);

  // Queue wait = start - max(inputs_at_dc, boot_done) = 12 - 10 = 2.
  ASSERT_NE(metrics.histogram("queue_wait_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(metrics.histogram("queue_wait_seconds")->mean(), 2.0);
  ASSERT_NE(metrics.histogram("vm_utilization"), nullptr);
  EXPECT_EQ(metrics.histogram("vm_utilization")->count(), 2u);
  EXPECT_DOUBLE_EQ(metrics.histogram("vm_utilization")->min(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("sim_events"), 42.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("makespan_seconds"), 100.0);
  // Budget 2, cost 0 -> headroom (2 - 0) / 2 = 1.
  EXPECT_DOUBLE_EQ(metrics.histogram("budget_headroom")->mean(), 1.0);
}

/// The per-run definitions both exp::evaluate and record_run_metrics use:
/// which tasks wait and how long, which VMs count as used, pooled
/// busy/billed utilization and budget headroom.
TEST(Metrics, DeriveRunMetricsPinsTheDefinitions) {
  sim::SimResult result;
  result.cost.vm_time = 1.0;
  result.vms.resize(4);
  const auto vm = [&](sim::VmId v, Seconds boot_done, Seconds end, Seconds busy,
                      std::size_t tasks) {
    result.vms[v].boot_done = boot_done;
    result.vms[v].end = end;
    result.vms[v].busy = busy;
    result.vms[v].task_count = tasks;
    result.vms[v].billed = true;
  };
  vm(0, 10, 20, 8, 1);
  vm(1, 0, 6, 3, 1);
  // Billed but empty (abandoned by a migration): not used.
  vm(2, 0, 50, 0, 0);
  // Crashed before running anything: used.
  vm(3, 5, 9, 0, 0);
  result.vms[3].crashed = true;
  result.tasks.resize(4);
  const auto task = [&](std::size_t t, sim::VmId on, Seconds inputs_at_dc, Seconds start) {
    result.tasks[t].vm = on;
    result.tasks[t].inputs_at_dc = inputs_at_dc;
    result.tasks[t].start = start;
  };
  // Waits 12 - max(5, boot 10) = 2; starts before "ready" (clamped to 0);
  // failed; never placed.  Only the first two have a wait.
  task(0, 0, 5, 12);
  task(1, 1, 4, 3);
  task(2, 0, 0, 0);
  result.tasks[2].failed = true;
  task(3, sim::invalid_vm, 0, 0);

  std::vector<Seconds> waits;
  std::vector<Seconds> used_boot_done;
  const sim::RunMetrics derived = sim::derive_run_metrics(
      result, 4.0, [&](Seconds wait) { waits.push_back(wait); },
      [&](const sim::VmRecord& used) { used_boot_done.push_back(used.boot_done); });
  EXPECT_EQ(waits, (std::vector<Seconds>{2, 0}));
  EXPECT_EQ(used_boot_done, (std::vector<Seconds>{10, 0, 5}));
  // Busy (8 + 3 + 0) over billed (10 + 6 + 4); headroom (4 - 1) / 4.
  EXPECT_DOUBLE_EQ(derived.utilization, 11.0 / 20.0);
  EXPECT_DOUBLE_EQ(derived.budget_headroom, 0.75);

  const auto ignore_wait = [](Seconds) {};
  const auto ignore_vm = [](const sim::VmRecord&) {};
  EXPECT_EQ(sim::derive_run_metrics(result, 0.0, ignore_wait, ignore_vm).budget_headroom, 0.0);
  // With no used VM nothing is billed: utilization is 0, not NaN.
  result.vms.resize(3);
  result.vms[0].task_count = 0;
  result.vms[1].task_count = 0;
  EXPECT_EQ(sim::derive_run_metrics(result, 4.0, ignore_wait, ignore_vm).utilization, 0.0);
}

}  // namespace
}  // namespace cloudwf::obs
