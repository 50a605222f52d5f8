#pragma once

/// \file cg.hpp
/// \brief CG and CG+ — Critical Greedy (Section V-D2).
///
/// Re-implementation of the second competitor, extended with transfer times
/// and costs (the original has none):
///
///  * CG computes gb = (B - c_min) / (c_max - c_min), where c_min / c_max
///    are the costs of executing the whole workflow sequentially on a single
///    VM of the cheapest / most expensive category (evaluated with the
///    deterministic predictor).  Each task t (processed in HEFT order, as
///    the paper chose) gets the target spend c_t,min + (c_t,max - c_t,min)
///    * gb and is mapped to the category whose estimated task cost is
///    closest to that target; among instances of that category (plus a
///    fresh one) the earliest-finish host wins.
///  * CG+ then spends the leftover budget: it repeatedly re-simulates,
///    extracts the schedule's critical path, and applies the re-assignment
///    maximizing DeltaT/Deltac among candidates with DeltaT > 0 AND
///    Deltac > 0 that keep the cost within B.  Faithfully to the paper's
///    observation, moves that reduce both time and cost have a negative
///    ratio and are never selected.

#include "sched/scheduler.hpp"

namespace cloudwf::sched {

/// CG (refine = false) or CG+ (refine = true).
class CgScheduler final : public Scheduler {
 public:
  explicit CgScheduler(bool refine) : refine_(refine) {}

  [[nodiscard]] std::string_view name() const override { return refine_ ? "cg-plus" : "cg"; }

  [[nodiscard]] SchedulerOutput schedule(const SchedulerInput& input) const override;

 private:
  bool refine_;
};

/// Cost of running every task of \p wf sequentially on one VM of
/// \p category, evaluated with the conservative predictor.  Used for CG's
/// c_min/c_max and by the experiment harness's `min_cost` reference point.
[[nodiscard]] Dollars single_vm_cost(const dag::Workflow& wf,
                                     const platform::Platform& platform,
                                     platform::CategoryId category);
/// The same, evaluated on \p simulator's workflow and platform.
[[nodiscard]] Dollars single_vm_cost(sim::Simulator& simulator, platform::CategoryId category);

}  // namespace cloudwf::sched
