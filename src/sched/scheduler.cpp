#include "sched/scheduler.hpp"

#include "common/error.hpp"
#include "common/units.hpp"
#include "obs/profile.hpp"
#include "sched/plan.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

SchedulerInput make_input(const dag::Workflow& wf, const platform::Platform& platform,
                          Dollars budget, obs::EventBus* bus, const WorkflowPlan* plan) {
  require(wf.frozen(), "make_input: workflow must be frozen");
  require(budget >= 0, "make_input: negative budget");
  if (plan != nullptr) {
    require(plan->bottom_levels.size() == wf.task_count() &&
                plan->budget_model.t_task.size() == wf.task_count(),
            "make_input: plan was built for a different workflow");
  }
  SchedulerInput input{wf, platform, budget};
  input.bus = bus;
  input.plan = plan;
  return input;
}

SchedulerOutput Scheduler::finish(const SchedulerInput& input, sim::Schedule schedule) {
  const obs::ProfileScope profile("sched.predict");
  sim::Schedule compacted = schedule.compacted();
  sim::Simulator simulator(input.wf, input.platform);
  const sim::SimResult prediction = simulator.run_conservative(compacted);
  SchedulerOutput out{std::move(compacted), prediction.makespan, prediction.total_cost(), false};
  out.budget_feasible = out.predicted_cost <= input.budget + money_epsilon;
  return out;
}

}  // namespace cloudwf::sched
