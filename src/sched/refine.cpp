#include "sched/refine.hpp"

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order) {
  require(order.size() == input.wf.task_count(),
          "refine_by_resimulation: order must cover every task");
  sim::Simulator simulator(input.wf, input.platform);
  Seconds best_makespan = simulator.run_conservative(schedule).makespan;
  std::size_t applied = 0;

  // One tentative schedule reused (copy-assigned) per probe instead of a
  // fresh deep copy; its capacity survives across candidates and tasks.
  sim::Schedule tentative = schedule;
  for (const dag::TaskId task : order) {
    const sim::VmId current_vm = schedule.vm_of(task);
    sim::VmId selected_vm = current_vm;
    platform::CategoryId selected_fresh_category = 0;
    bool selected_is_fresh = false;

    const auto try_candidate = [&](sim::VmId vm, bool fresh, platform::CategoryId category) {
      tentative.move(task, vm);
      const sim::SimResult result = simulator.run_conservative(tentative);
      if (result.makespan < best_makespan &&
          result.total_cost() <= input.budget + money_epsilon) {
        best_makespan = result.makespan;
        selected_vm = vm;
        selected_is_fresh = fresh;
        selected_fresh_category = category;
      }
    };

    // Used VMs other than the current one.
    for (sim::VmId vm = 0; vm < schedule.vm_count(); ++vm) {
      if (vm == current_vm || schedule.vm_tasks(vm).empty()) continue;
      tentative = schedule;
      try_candidate(vm, false, 0);
    }
    // One fresh VM per category.
    for (platform::CategoryId c = 0; c < input.platform.category_count(); ++c) {
      tentative = schedule;
      const sim::VmId fresh = tentative.add_vm(c);
      try_candidate(fresh, true, c);
    }

    if (selected_is_fresh) {
      const sim::VmId fresh = schedule.add_vm(selected_fresh_category);
      schedule.move(task, fresh);
      ++applied;
    } else if (selected_vm != current_vm) {
      schedule.move(task, selected_vm);
      ++applied;
    }
  }
  return applied;
}

}  // namespace cloudwf::sched
