/// \file test_invariants.cpp
/// \brief The invariant checker: golden runs across every scheduler and
/// Pegasus family must pass; hand-corrupted results must fail with the
/// expected violation code (check/invariants).

#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/auto_check.hpp"
#include "check/violation.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "obs/event_bus.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::check {
namespace {

bool has_code(const CheckReport& report, InvariantCode code) {
  for (const Violation& violation : report.violations)
    if (violation.code == code) return true;
  return false;
}

/// Runs every registered scheduler on one generated instance of \p type and
/// checks both the conservative prediction and a stochastic realization
/// against the full invariant suite.
void golden_family(pegasus::WorkflowType type) {
  const dag::Workflow wf = pegasus::generate(type, {30, 7, 0.5});
  const platform::Platform cloud = platform::paper_platform();
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);
  const InvariantChecker checker(wf, cloud);

  for (const std::string& algorithm : sched::algorithm_names()) {
    const auto out = sched::make_scheduler(algorithm)->schedule({wf, cloud, levels.medium});
    sim::Simulator simulator(wf, cloud);

    CheckOptions options;
    if (sched::is_budget_aware(algorithm) && out.budget_feasible)
      options.budget = levels.medium;
    const sim::SimResult conservative = simulator.run_conservative(out.schedule);
    const CheckReport deterministic = checker.check(out.schedule, conservative, options);
    EXPECT_TRUE(deterministic.ok())
        << algorithm << " on " << wf.name() << ":\n" << deterministic.text();

    // Stochastic realizations may overrun the budget (that is valid_fraction,
    // not a bug), so the cap is not enforced on them.
    Rng stream = Rng(13).fork(0);
    const sim::SimResult sampled = simulator.run(out.schedule, dag::sample_weights(wf, stream));
    const CheckReport stochastic = checker.check(out.schedule, sampled);
    EXPECT_TRUE(stochastic.ok())
        << algorithm << " on " << wf.name() << " (sampled):\n" << stochastic.text();
  }
}

TEST(InvariantGolden, Montage) { golden_family(pegasus::WorkflowType::montage); }
TEST(InvariantGolden, Cybershake) { golden_family(pegasus::WorkflowType::cybershake); }
TEST(InvariantGolden, Ligo) { golden_family(pegasus::WorkflowType::ligo); }
TEST(InvariantGolden, Epigenomics) { golden_family(pegasus::WorkflowType::epigenomics); }
TEST(InvariantGolden, Sipht) { golden_family(pegasus::WorkflowType::sipht); }

/// Fixture providing one verified-clean run to corrupt.
class CorruptedResult : public ::testing::Test {
 protected:
  void SetUp() override {
    wf_ = testing::diamond();
    platform_ = testing::toy_platform();
    schedule_ = std::make_unique<sim::Schedule>(wf_.task_count());
    const sim::VmId vm0 = schedule_->add_vm(0);
    const sim::VmId vm1 = schedule_->add_vm(1);
    schedule_->set_priority(wf_.find_task("A"), 4);
    schedule_->set_priority(wf_.find_task("B"), 3);
    schedule_->set_priority(wf_.find_task("C"), 3.5);
    schedule_->set_priority(wf_.find_task("D"), 1);
    schedule_->assign(wf_.find_task("A"), vm0);
    schedule_->assign(wf_.find_task("B"), vm0);
    schedule_->assign(wf_.find_task("D"), vm0);
    schedule_->assign(wf_.find_task("C"), vm1);
    sim::Simulator simulator(wf_, platform_);
    result_ = simulator.run_mean(*schedule_);
    const InvariantChecker checker(wf_, platform_);
    ASSERT_TRUE(checker.check(*schedule_, result_).ok())
        << checker.check(*schedule_, result_).text();
  }

  [[nodiscard]] CheckReport check(const sim::SimResult& mutated,
                                  const CheckOptions& options = {}) const {
    return InvariantChecker(wf_, platform_).check(mutated, options);
  }

  dag::Workflow wf_{"empty"};
  platform::Platform platform_ = testing::toy_platform();
  std::unique_ptr<sim::Schedule> schedule_;
  sim::SimResult result_;
};

TEST_F(CorruptedResult, PrecedenceViolationDetected) {
  sim::SimResult bad = result_;
  // D now starts before its predecessors B and C finished.
  bad.tasks[wf_.find_task("D")].start = bad.tasks[wf_.find_task("B")].finish - 50;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::precedence)) << check(bad).text();
}

TEST_F(CorruptedResult, TransferBoundViolationDetected) {
  sim::SimResult bad = result_;
  // C runs on the other VM: its start must pay A->DC->C at 1 MB/s (2 MB edge
  // = 4 s both hops).  Starting 1 s after A's finish is physically too soon
  // even though precedence alone holds.
  const dag::TaskId c = wf_.find_task("C");
  bad.tasks[c].start = bad.tasks[wf_.find_task("A")].finish + 1;
  bad.tasks[c].inputs_at_dc = bad.tasks[c].start;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::precedence)) << check(bad).text();
}

TEST_F(CorruptedResult, SlotOverlapDetected) {
  sim::SimResult bad = result_;
  // B shifted on top of A on the same single-processor VM.
  const dag::TaskId a = wf_.find_task("A");
  const dag::TaskId b = wf_.find_task("B");
  bad.tasks[b].start = bad.tasks[a].start + 1;
  bad.tasks[b].finish = bad.tasks[a].finish + 1;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::slot_overlap)) << check(bad).text();
}

TEST_F(CorruptedResult, BootWindowViolationDetected) {
  sim::SimResult bad = result_;
  // A claims to have computed while its VM was still booting.
  bad.tasks[wf_.find_task("A")].start = bad.vms[0].boot_done - 5;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::boot_order)) << check(bad).text();
}

TEST_F(CorruptedResult, InstantBootDetected) {
  sim::SimResult bad = result_;
  // A billed VM that came up faster than t_boot is impossible.
  bad.vms[0].boot_done = bad.vms[0].boot_request + 0.5;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::boot_order)) << check(bad).text();
}

TEST_F(CorruptedResult, MakespanIdentityViolationDetected) {
  sim::SimResult bad = result_;
  bad.makespan += 5;  // Eq. (3) no longer holds
  EXPECT_TRUE(has_code(check(bad), InvariantCode::makespan_identity)) << check(bad).text();
}

TEST_F(CorruptedResult, UsedVmMiscountDetected) {
  sim::SimResult bad = result_;
  bad.used_vms += 1;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::makespan_identity)) << check(bad).text();
}

TEST_F(CorruptedResult, CostDriftDetected) {
  sim::SimResult bad = result_;
  bad.cost.vm_time += 0.01;  // one cent of unexplained spend
  EXPECT_TRUE(has_code(check(bad), InvariantCode::cost_conservation)) << check(bad).text();
}

TEST_F(CorruptedResult, SetupCostDriftDetected) {
  sim::SimResult bad = result_;
  bad.cost.vm_setup -= 0.25;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::cost_conservation)) << check(bad).text();
}

TEST_F(CorruptedResult, BudgetCapViolationDetected) {
  CheckOptions options;
  options.budget = result_.total_cost() - 0.01;
  EXPECT_TRUE(has_code(check(result_, options), InvariantCode::budget_cap));
  options.budget = result_.total_cost() + 0.01;
  EXPECT_FALSE(has_code(check(result_, options), InvariantCode::budget_cap));
}

TEST_F(CorruptedResult, TransferMiscountDetected) {
  sim::SimResult bad = result_;
  bad.transfers.bytes += 1e6;  // a megabyte nobody moved
  EXPECT_TRUE(has_code(check(bad), InvariantCode::transfer_conservation))
      << check(bad).text();
}

TEST_F(CorruptedResult, OutOfRangeVmDetected) {
  sim::SimResult bad = result_;
  bad.tasks[0].vm = 99;  // points past the VM table
  EXPECT_TRUE(has_code(check(bad), InvariantCode::record_range)) << check(bad).text();
}

TEST_F(CorruptedResult, NonFiniteRecordDetected) {
  sim::SimResult bad = result_;
  bad.tasks[1].finish = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(has_code(check(bad), InvariantCode::record_range)) << check(bad).text();
}

TEST_F(CorruptedResult, NegativeTimestampDetected) {
  sim::SimResult bad = result_;
  bad.tasks[0].start = -1;
  EXPECT_TRUE(has_code(check(bad), InvariantCode::record_range)) << check(bad).text();
}

TEST_F(CorruptedResult, PlacementMismatchDetected) {
  sim::SimResult bad = result_;
  // Executed on a different VM than the schedule placed it on.
  const dag::TaskId b = wf_.find_task("B");
  bad.tasks[b].vm = 1;
  const CheckReport report = InvariantChecker(wf_, platform_).check(*schedule_, bad);
  EXPECT_TRUE(has_code(report, InvariantCode::schedule_structure)) << report.text();
}

TEST_F(CorruptedResult, UnassignedScheduleDetected) {
  sim::Schedule incomplete(wf_.task_count());
  incomplete.add_vm(0);  // no task ever assigned
  const CheckReport report = InvariantChecker(wf_, platform_).check(incomplete, result_);
  EXPECT_TRUE(has_code(report, InvariantCode::schedule_structure)) << report.text();
}

// ---- event stream contract --------------------------------------------------

struct Recorder final : obs::EventSink {
  std::vector<obs::Event> events;
  void on_event(const obs::Event& event) override { events.push_back(event); }
};

obs::Event engine_event(obs::EventKind kind, Seconds time) {
  obs::Event event;
  event.kind = kind;
  event.time = time;
  return event;
}

/// Regression test for the finalize epilogue: a multi-VM run emits one
/// billing_tick + vm_shutdown per VM after the run loop.  Those must arrive
/// time-sorted (a single rewind), which Execution::finalize guarantees by
/// sorting the tail — before that fix this stream failed check_events.
TEST_F(CorruptedResult, LiveEventStreamSatisfiesContract) {
  Recorder recorder;
  obs::EventBus bus;
  bus.add_sink(&recorder);
  sim::Simulator traced(wf_, platform_, &bus);
  (void)traced.run_mean(*schedule_);
  ASSERT_FALSE(recorder.events.empty());
  const CheckReport report = check_events(recorder.events);
  EXPECT_TRUE(report.ok()) << report.text();
}

TEST(CheckEvents, BackwardsTimestampDetected) {
  const std::vector<obs::Event> events{
      engine_event(obs::EventKind::task_dispatch, 10.0),
      engine_event(obs::EventKind::task_dispatch, 5.0),  // rewind, not epilogue
  };
  const CheckReport report = check_events(events);
  EXPECT_TRUE(has_code(report, InvariantCode::event_order)) << report.text();
}

TEST(CheckEvents, SortedEpilogueAccepted) {
  const std::vector<obs::Event> events{
      engine_event(obs::EventKind::task_dispatch, 10.0),
      engine_event(obs::EventKind::billing_tick, 4.0),  // the one allowed rewind
      engine_event(obs::EventKind::vm_shutdown, 4.0),
      engine_event(obs::EventKind::billing_tick, 9.0),
      engine_event(obs::EventKind::vm_shutdown, 9.0),
  };
  const CheckReport report = check_events(events);
  EXPECT_TRUE(report.ok()) << report.text();
}

TEST(CheckEvents, UnsortedEpilogueDetected) {
  const std::vector<obs::Event> events{
      engine_event(obs::EventKind::task_dispatch, 10.0),
      engine_event(obs::EventKind::vm_shutdown, 9.0),
      engine_event(obs::EventKind::vm_shutdown, 4.0),  // second rewind: broken
  };
  const CheckReport report = check_events(events);
  EXPECT_TRUE(has_code(report, InvariantCode::event_order)) << report.text();
}

TEST(CheckEvents, ComputeAfterEpilogueDetected) {
  const std::vector<obs::Event> events{
      engine_event(obs::EventKind::task_dispatch, 10.0),
      engine_event(obs::EventKind::billing_tick, 4.0),
      engine_event(obs::EventKind::task_dispatch, 6.0),  // engine resumed?!
  };
  const CheckReport report = check_events(events);
  EXPECT_TRUE(has_code(report, InvariantCode::event_order)) << report.text();
}

TEST(CheckEvents, FinishWithoutStartDetected) {
  std::vector<obs::Event> events{engine_event(obs::EventKind::task_finish, 10.0)};
  events[0].task = 0;
  const CheckReport report = check_events(events);
  EXPECT_TRUE(has_code(report, InvariantCode::event_order)) << report.text();
}

TEST(CheckEvents, DecisionIndexIsIndependentTimeline) {
  std::vector<obs::Event> events{
      engine_event(obs::EventKind::task_dispatch, 100.0),
      engine_event(obs::EventKind::sched_decision, 0.0),  // separate timeline
      engine_event(obs::EventKind::sched_decision, 1.0),
      engine_event(obs::EventKind::task_dispatch, 101.0),
  };
  EXPECT_TRUE(check_events(events).ok());
  std::swap(events[1], events[2]);  // decisions out of order
  EXPECT_TRUE(has_code(check_events(events), InvariantCode::event_order));
}

// ---- report plumbing --------------------------------------------------------

TEST(Violation, CodeNamesRoundTrip) {
  for (const InvariantCode code :
       {InvariantCode::record_range, InvariantCode::precedence, InvariantCode::slot_overlap,
        InvariantCode::boot_order, InvariantCode::event_order, InvariantCode::makespan_identity,
        InvariantCode::cost_conservation, InvariantCode::budget_cap,
        InvariantCode::transfer_conservation, InvariantCode::schedule_structure,
        InvariantCode::artifact_format})
    EXPECT_EQ(parse_invariant_code(to_string(code)), code);
  EXPECT_THROW((void)parse_invariant_code("no_such_code"), InvalidArgument);
}

TEST(Violation, ReportJsonMatchesSchema) {
  CheckReport report;
  report.checks_run = 3;
  report.add(InvariantCode::precedence, "task B", "started early", 10.0, 7.0);
  const Json json = report.to_json();
  EXPECT_EQ(json.at("checker").as_string(), "cloudwf-invariants");
  EXPECT_EQ(json.at("version").as_number(), 1);
  EXPECT_FALSE(json.at("ok").as_bool());
  EXPECT_EQ(json.at("checks_run").as_number(), 3);
  const Json& violation = json.at("violations").as_array().at(0);
  EXPECT_EQ(violation.at("code").as_string(), "precedence");
  EXPECT_EQ(violation.at("subject").as_string(), "task B");
  EXPECT_EQ(violation.at("expected").as_number(), 10.0);
  EXPECT_EQ(violation.at("actual").as_number(), 7.0);
}

TEST(Violation, MoneyCloseScalesWithMagnitude) {
  EXPECT_TRUE(money_close(1.0, 1.0));
  EXPECT_TRUE(money_close(0.1 + 0.2, 0.3));
  EXPECT_FALSE(money_close(1.0, 1.01));
  // At 1e9 dollars an absolute 1e-7 is within ulp noise; at 1 dollar not.
  EXPECT_TRUE(money_close(1e9, 1e9 + 1e-7));
  EXPECT_FALSE(money_close(1.0, 1.0 + 1e-4));
}

// ---- auto-check hook --------------------------------------------------------

TEST(AutoCheck, HookValidatesEveryRun) {
  struct Guard {
    ~Guard() { uninstall_auto_check(); }
  } guard;
  install_auto_check();
  EXPECT_TRUE(auto_check_installed());
  const dag::Workflow wf = testing::chain3();
  const platform::Platform cloud = testing::toy_platform();
  sim::Schedule schedule(wf.task_count());
  const sim::VmId vm = schedule.add_vm(0);
  for (const dag::TaskId t : wf.topological_order()) schedule.assign(t, vm);
  // A healthy engine passes its own audit; the hook throwing here would be
  // an engine bug, which is exactly the point of CLOUDWF_CHECK=1.
  sim::Simulator simulator(wf, cloud);
  EXPECT_NO_THROW((void)simulator.run_mean(schedule));
  uninstall_auto_check();
  EXPECT_FALSE(auto_check_installed());
}

}  // namespace
}  // namespace cloudwf::check
