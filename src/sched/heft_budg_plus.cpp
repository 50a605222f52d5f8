#include "sched/heft_budg_plus.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sched/heft.hpp"
#include "sched/refine.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

SchedulerOutput HeftBudgPlusScheduler::schedule(const SchedulerInput& input) const {
  // Step 1: the HEFTBUDG pass (Algorithm 5, lines 2-3).
  std::vector<dag::TaskId> list;
  sim::Schedule current = HeftScheduler::run_list_pass(input, /*budget_aware=*/true, list);
  if (inverse_) std::reverse(list.begin(), list.end());

  // Steps 2-3: evaluate and re-map task by task (lines 4-17).
  sim::Simulator simulator(input.wf, input.platform);
  refine_by_resimulation(input, current, list, simulator);
  return finish(input, std::move(current), simulator);
}

}  // namespace cloudwf::sched
