#pragma once

/// \file scheduler.hpp
/// \brief Common interface of all scheduling algorithms (Section IV).

#include <memory>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sim/result.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::obs {
class EventBus;
}  // namespace cloudwf::obs

namespace cloudwf::sim {
class Simulator;
}  // namespace cloudwf::sim

namespace cloudwf::sched {

struct WorkflowPlan;

/// Everything a scheduler needs for one decision problem.  Prefer building
/// one via make_input(), which validates the pieces once for every entry
/// point (CLI, experiment runner, tests) instead of each scheduler
/// re-checking its own invariants.
struct SchedulerInput {
  const dag::Workflow& wf;              ///< frozen workflow
  const platform::Platform& platform;   ///< VM categories + datacenter
  Dollars budget = 0;                   ///< B_ini; ignored by budget-unaware baselines
  /// Optional observability bus: list schedulers emit one sched_decision
  /// per placement (candidate count, chosen host, budget headroom) when a
  /// sink is attached.  Null (the default) costs nothing.
  obs::EventBus* bus = nullptr;
  /// Optional precomputed workflow analyses (sched/plan.hpp).  When set,
  /// schedulers reuse its ranks / levels / budget model instead of
  /// recomputing them — results are bit-identical either way.  Must have
  /// been built for exactly this (wf, platform) pair.  Not owned.
  const WorkflowPlan* plan = nullptr;
};

/// Validating constructor for SchedulerInput, the single entry point shared
/// by the CLI, the experiment runner and the tests: requires a frozen
/// workflow, a non-negative budget, and (when given) a plan whose shape
/// matches the workflow.
[[nodiscard]] SchedulerInput make_input(const dag::Workflow& wf,
                                        const platform::Platform& platform, Dollars budget,
                                        obs::EventBus* bus = nullptr,
                                        const WorkflowPlan* plan = nullptr);

/// A produced schedule plus its deterministic prediction.
///
/// The prediction comes from running the simulator with conservative
/// (mu + sigma) weights — the same `simulate()` Algorithm 5 uses — so every
/// algorithm's feasibility is judged by one consistent model.
struct SchedulerOutput {
  sim::Schedule schedule;         ///< complete, compacted mapping
  Seconds predicted_makespan = 0; ///< conservative-weights makespan
  Dollars predicted_cost = 0;     ///< conservative-weights C_wf
  bool budget_feasible = false;   ///< predicted_cost <= budget (+ rounding)
};

/// Abstract scheduling algorithm.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Canonical lower-case name, e.g. "heft-budg".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Computes a complete schedule for \p input.
  [[nodiscard]] virtual SchedulerOutput schedule(const SchedulerInput& input) const = 0;

 protected:
  /// Runs the conservative predictor on \p schedule and packages the output.
  [[nodiscard]] static SchedulerOutput finish(const SchedulerInput& input,
                                              sim::Schedule schedule);
  /// The same on \p simulator, built for (input.wf, input.platform): a
  /// refining algorithm predicts on the Simulator it refined with.
  [[nodiscard]] static SchedulerOutput finish(const SchedulerInput& input,
                                              sim::Schedule schedule,
                                              sim::Simulator& simulator);
};

}  // namespace cloudwf::sched
