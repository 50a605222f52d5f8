/// \file test_event_bus.cpp
/// \brief Unit tests for the event bus + the simulator's event-stream
/// invariants (obs/event_bus, sim/simulator emission).

#include "obs/event_bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "dag/stochastic.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::obs {
namespace {

TEST(EventBus, DisabledWithoutSinks) {
  EventBus bus;
  EXPECT_FALSE(bus.enabled());
  EXPECT_EQ(bus.emitted(), 0u);

  RecordingSink sink;
  bus.add_sink(&sink);
  EXPECT_TRUE(bus.enabled());
}

TEST(EventBus, DispatchesToAllSinksInOrder) {
  EventBus bus;
  RecordingSink first;
  CountingSink second;
  bus.add_sink(&first);
  bus.add_sink(&second);

  bus.emit({.kind = EventKind::vm_boot_request, .time = 1.0, .vm = 0});
  bus.emit({.kind = EventKind::vm_boot_done, .time = 2.0, .vm = 0, .duration = 1.0});

  EXPECT_EQ(bus.emitted(), 2u);
  ASSERT_EQ(first.events().size(), 2u);
  EXPECT_EQ(second.count(), 2u);
  EXPECT_EQ(first.events()[0].kind, EventKind::vm_boot_request);
  EXPECT_EQ(first.events()[1].kind, EventKind::vm_boot_done);
  EXPECT_DOUBLE_EQ(first.events()[1].duration, 1.0);
}

TEST(EventBus, RejectsNullSink) {
  EventBus bus;
  EXPECT_THROW(bus.add_sink(nullptr), Error);
}

TEST(EventBus, EventKindNamesAreStable) {
  EXPECT_EQ(to_string(EventKind::task_finish), "task_finish");
  EXPECT_EQ(to_string(EventKind::sched_decision), "sched_decision");
  EXPECT_EQ(to_string(EventKind::billing_tick), "billing_tick");
}

/// Runs the diamond workflow on the toy platform with a recording sink and
/// returns the event stream.
std::vector<Event> record_diamond_run() {
  const dag::Workflow wf = testing::diamond();
  const platform::Platform platform = testing::toy_platform();

  sim::Schedule schedule(wf.task_count());
  const sim::VmId vm0 = schedule.add_vm(0);
  const sim::VmId vm1 = schedule.add_vm(1);
  schedule.set_priority(wf.find_task("A"), 4);
  schedule.set_priority(wf.find_task("C"), 3.5);
  schedule.set_priority(wf.find_task("B"), 3);
  schedule.set_priority(wf.find_task("D"), 1);
  schedule.assign(wf.find_task("A"), vm0);
  schedule.assign(wf.find_task("B"), vm0);
  schedule.assign(wf.find_task("D"), vm0);
  schedule.assign(wf.find_task("C"), vm1);

  EventBus bus;
  static RecordingSink sink;  // outlives the assertion helpers below
  sink.clear();
  bus.add_sink(&sink);
  sim::Simulator simulator(wf, platform, &bus);
  const sim::SimResult result = simulator.run_mean(schedule);
  EXPECT_GT(result.events_processed, 0u);
  EXPECT_EQ(bus.emitted(), sink.events().size());
  return sink.events();
}

TEST(SimulatorEvents, TimePerVmTrackIsMonotonic) {
  const std::vector<Event> events = record_diamond_run();
  ASSERT_FALSE(events.empty());
  std::map<std::int64_t, Seconds> last_time;
  for (const Event& event : events) {
    if (event.vm == no_id) continue;
    const auto [it, inserted] = last_time.try_emplace(event.vm, event.time);
    if (!inserted) {
      EXPECT_LE(it->second, event.time)
          << "non-monotonic time on vm " << event.vm << " at " << to_string(event.kind);
      it->second = event.time;
    }
  }
}

TEST(SimulatorEvents, EveryDispatchReachesATerminalEvent) {
  const std::vector<Event> events = record_diamond_run();
  std::map<std::int64_t, int> open;  // task -> dispatches minus terminals
  for (const Event& event : events) {
    if (event.kind == EventKind::task_dispatch) open[event.task] = 1;
    if (event.kind == EventKind::task_finish || event.kind == EventKind::task_fail)
      open[event.task] = 0;
  }
  for (const auto& [task, pending] : open)
    EXPECT_EQ(pending, 0) << "task " << task << " dispatched but never finished/failed";
  EXPECT_EQ(open.size(), 4u);  // all four diamond tasks were dispatched
}

TEST(SimulatorEvents, StartPrecedesFinishWithMatchingDuration) {
  const std::vector<Event> events = record_diamond_run();
  std::map<std::int64_t, Seconds> started;
  std::size_t finished = 0;
  for (const Event& event : events) {
    if (event.kind == EventKind::task_start) started[event.task] = event.time;
    if (event.kind == EventKind::task_finish) {
      ++finished;
      ASSERT_TRUE(started.contains(event.task));
      EXPECT_LT(started[event.task], event.time);
      // finish.duration is the actual compute span: finish - start.
      EXPECT_NEAR(event.time - started[event.task], event.duration, 1e-9);
    }
  }
  EXPECT_EQ(finished, 4u);
}

TEST(SimulatorEvents, VmLifecycleBracketsItsTasks) {
  const std::vector<Event> events = record_diamond_run();
  std::map<std::int64_t, Seconds> boot_done;
  for (const Event& event : events) {
    if (event.kind == EventKind::vm_boot_done) boot_done[event.vm] = event.time;
    if (event.kind == EventKind::task_start) {
      ASSERT_TRUE(boot_done.contains(event.vm)) << "task started before its VM booted";
      EXPECT_LE(boot_done[event.vm], event.time);
    }
    if (event.kind == EventKind::vm_shutdown) {
      EXPECT_GT(event.value, 0.0);  // billed seconds
    }
  }
  EXPECT_EQ(boot_done.size(), 2u);
}

TEST(SimulatorEvents, SchedulerEmitsOneDecisionPerTask) {
  const dag::Workflow wf = testing::diamond();
  const platform::Platform platform = testing::toy_platform();
  EventBus bus;
  RecordingSink sink;
  bus.add_sink(&sink);
  sched::SchedulerInput input{wf, platform, 100.0};
  input.bus = &bus;
  (void)sched::make_scheduler("heft")->schedule(input);

  std::size_t decisions = 0;
  Seconds last_index = -1;
  for (const Event& event : sink.events()) {
    if (event.kind != EventKind::sched_decision) continue;
    ++decisions;
    EXPECT_GT(event.time, last_index);  // decision index strictly increases
    last_index = event.time;
    EXPECT_GE(event.vm, 0);
    EXPECT_FALSE(event.detail.empty());
  }
  EXPECT_EQ(decisions, wf.task_count());
}

}  // namespace
}  // namespace cloudwf::obs
