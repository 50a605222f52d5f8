#pragma once

/// \file simulator.hpp
/// \brief Discrete-event execution of a static schedule (Section III-C).
///
/// The simulator plays the role SimGrid/SimDag played for the paper: given a
/// frozen workflow, a platform and a Schedule, it executes tasks with a
/// concrete WeightRealization and produces makespan, itemized cost and
/// per-task/per-VM records.
///
/// Execution semantics (DESIGN.md Section 1, "Discrete-event cloud
/// simulator"):
///  * A VM is booked when the first task of its list has all cross-VM inputs
///    uploaded to the datacenter; it boots for t_boot (uncharged), then bills
///    per second until its last computation/transfer ends.
///  * Tasks start in list order; a task starts when its VM is up, a processor
///    is free, its same-VM predecessors finished, and its cross-VM inputs
///    have been downloaded from the datacenter.
///  * Data moves VM -> DC -> VM.  Each VM serializes its uploads and its
///    downloads (one flow per direction at a time, rate bw); transfers
///    overlap computation.  Entry inputs wait at the DC from time zero;
///    exit outputs are uploaded back to the DC.
///  * With Platform::dc_aggregate_bandwidth() > 0, all active flows share
///    that capacity max-min fairly (the contention mode).
///
/// The same engine doubles as the deterministic predictor of Algorithm 5:
/// run it with dag::conservative_weights(wf).

#include <limits>

#include "dag/stochastic.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sim/faults.hpp"
#include "sim/result.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::obs {
class EventBus;
}  // namespace cloudwf::obs

namespace cloudwf::sim {

/// Online re-scheduling policy (the paper's Section VI future work).
///
/// The scheduler only knows weight *distributions*; at execution time a task
/// whose draw landed deep in the tail can dominate the makespan.  With a
/// policy attached, the engine watches every running task: when its elapsed
/// compute time exceeds the timeout (mu + timeout_sigmas * sigma) / s_vm, the
/// task is interrupted (work lost) and restarted from scratch on a freshly
/// provisioned VM of the fastest category — re-staging its inputs through
/// the datacenter, including uploads of data that had been local to the old
/// VM.  Migration is skipped when the fastest category is not at least
/// min_speedup times faster than the current host, when the task has
/// exhausted max_restarts, or when the projected spend would not stay
/// strictly below budget_cap (projections are estimates, so a migration that
/// would consume the cap exactly leaves no headroom and is vetoed).
struct OnlinePolicy {
  double timeout_sigmas = 2.0;    ///< interrupt beyond mu + k*sigma worth of compute
  std::size_t max_restarts = 1;   ///< per-task restart bound
  double min_speedup = 1.2;       ///< required speed ratio fastest/current
  Dollars budget_cap = std::numeric_limits<Dollars>::infinity();  ///< spend guard
};

/// Executes schedules for one (workflow, platform) pair.
class Simulator {
 public:
  /// Both references must outlive the simulator.  When \p bus is non-null
  /// and has sinks attached, every run emits the full observability event
  /// stream (obs/events.hpp) through it; a null or sink-less bus costs one
  /// cached bool test per run (the <2% contract that bench/bench_sched.cpp
  /// measures).
  Simulator(const dag::Workflow& wf, const platform::Platform& platform,
            obs::EventBus* bus = nullptr);

  /// Runs \p schedule with concrete \p weights.
  /// Throws ValidationError if the schedule is malformed or deadlocks.
  [[nodiscard]] SimResult run(const Schedule& schedule,
                              const dag::WeightRealization& weights) const;

  /// Runs \p schedule with the online re-scheduling \p policy active.
  [[nodiscard]] SimResult run_online(const Schedule& schedule,
                                     const dag::WeightRealization& weights,
                                     const OnlinePolicy& policy) const;

  /// Runs \p schedule while injecting faults from \p faults and recovering
  /// per \p recovery (see faults.hpp).  With a disabled model (all rates
  /// zero) this is bit-identical to run().  Never throws on injected
  /// failures: exhausted recovery marks tasks failed in the result instead.
  [[nodiscard]] SimResult run_with_faults(const Schedule& schedule,
                                          const dag::WeightRealization& weights,
                                          const FaultModel& faults,
                                          const RecoveryPolicy& recovery = {}) const;

  /// Convenience: run with conservative (mu + sigma) weights — the
  /// deterministic predictor used by HEFTBUDG+/CG+ (Algorithm 5).
  [[nodiscard]] SimResult run_conservative(const Schedule& schedule) const;

  /// Convenience: run with mean weights.
  [[nodiscard]] SimResult run_mean(const Schedule& schedule) const;

  [[nodiscard]] const dag::Workflow& workflow() const { return wf_; }
  [[nodiscard]] const platform::Platform& platform() const { return platform_; }

 private:
  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  obs::EventBus* bus_;
};

/// Extracts the schedule's critical path from a SimResult: the chain of
/// bound_by links ending at the task that finished last (earliest first).
[[nodiscard]] std::vector<dag::TaskId> schedule_critical_path(const SimResult& result);

/// \name Post-run invariant hook
/// A process-wide hook invoked after every Simulator::run* with the executed
/// schedule and its result.  check::install_auto_check() points it at the
/// invariant checker (the CLOUDWF_CHECK=1 path); sim itself never depends on
/// the checker.  The hook may throw (e.g. InternalError on a violation) —
/// the exception propagates out of the run call.  Null by default: a
/// disabled hook costs one relaxed atomic load per run.
///@{
using PostRunCheck = void (*)(const dag::Workflow&, const platform::Platform&,
                              const Schedule&, const SimResult&);
void set_post_run_check(PostRunCheck hook) noexcept;
[[nodiscard]] PostRunCheck post_run_check() noexcept;
///@}

}  // namespace cloudwf::sim
