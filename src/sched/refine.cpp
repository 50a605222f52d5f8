#include "sched/refine.hpp"

#include <vector>

#include "common/error.hpp"

namespace cloudwf::sched {

void refinement_targets(const sim::Schedule& schedule, const platform::Platform& platform,
                        dag::TaskId task, std::vector<sim::MoveTarget>& targets) {
  const sim::VmId current_vm = schedule.vm_of(task);
  targets.clear();
  for (sim::VmId vm = 0; vm < schedule.vm_count(); ++vm)
    if (vm != current_vm && !schedule.vm_tasks(vm).empty())
      targets.push_back(sim::MoveTarget::existing(vm));
  for (platform::CategoryId c = 0; c < platform.category_count(); ++c)
    targets.push_back(sim::MoveTarget::fresh(c));
}

std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order) {
  sim::Simulator simulator(input.wf, input.platform);
  return refine_by_resimulation(input, schedule, order, simulator);
}

std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order,
                                   sim::Simulator& simulator) {
  require(order.size() == input.wf.task_count(),
          "refine_by_resimulation: order must cover every task");
  sim::SimResult base = simulator.run(schedule, simulator.conservative_weights());
  Seconds best_makespan = base.makespan;
  std::size_t applied = 0;

  std::vector<sim::MoveTarget> targets;
  for (const dag::TaskId task : order) {
    refinement_targets(schedule, input.platform, task, targets);
    // The accept rule, replayed over the outcomes in target order, so
    // ties resolve as they would in a loop of runs.  best_makespan only
    // falls during the replay, so a candidate the sweep screens against
    // its value here would be rejected anyway.
    const std::vector<sim::MoveOutcome> outcomes =
        simulator.sweep_moves(schedule, base, task, targets, best_makespan);
    std::size_t selected = targets.size();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (outcomes[i].makespan < best_makespan &&
          outcomes[i].cost <= input.budget + money_epsilon) {
        best_makespan = outcomes[i].makespan;
        selected = i;
      }
    }
    if (selected == targets.size()) continue;

    sim::move_task(schedule, task, targets[selected]);
    ++applied;
    base = simulator.run(schedule, simulator.conservative_weights());
  }
  return applied;
}

}  // namespace cloudwf::sched
