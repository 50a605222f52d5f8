#pragma once

/// \file refine.hpp
/// \brief The Algorithm 5 refinement loop, factored out of HEFTBUDG+.
///
/// Given any complete schedule and a task visit order, the loop tries every
/// alternative host per task (used VMs except the current one, plus one
/// fresh VM per category), evaluates each tentative move with the
/// conservative predictor, and keeps moves that beat the best makespan seen
/// so far while the total cost stays within the budget.  HEFTBUDG+ /
/// HEFTBUDG+INV instantiate it on HEFTBUDG's schedule; MINMINBUDG+ (the
/// extension the paper suggests in Section V-B: "similar improvements could
/// be designed for MIN-MINBUDG") instantiates it on MIN-MINBUDG's.

#include <span>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

/// Runs the refinement sweep in place; \p order is the task visit order
/// (every task exactly once).  Returns the number of applied moves.
std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order);

/// The hosts Algorithm 5 and CG+ try for \p task, written to \p targets:
/// every used VM but the task's own in id order, then one fresh VM per
/// category.
void refinement_targets(const sim::Schedule& schedule, const platform::Platform& platform,
                        dag::TaskId task, std::vector<sim::MoveTarget>& targets);

/// The same sweep on \p simulator, which must have been built for
/// (input.wf, input.platform) without an event bus.  The candidates of one
/// task are judged by one Simulator::sweep_moves, which screens out those
/// whose makespan lower bound exceeds the best makespan so far, and every
/// accepted move re-runs the new schedule once for the next task's sweep.
std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order,
                                   sim::Simulator& simulator);

}  // namespace cloudwf::sched
