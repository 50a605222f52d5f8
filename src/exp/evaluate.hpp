#pragma once

/// \file evaluate.hpp
/// \brief One experimental point: schedule once, execute many realizations.
///
/// Mirrors the paper's methodology (Section V-A): the scheduler sees only
/// (mu, sigma) and the budget; the resulting static schedule is then executed
/// against `repetitions` independent stochastic weight realizations.  Every
/// repetition reports makespan, actual cost, VM count and budget validity
/// (actual cost <= B_ini).

#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sched/scheduler.hpp"
#include "sim/faults.hpp"

namespace cloudwf::obs {
class MetricsRegistry;
}  // namespace cloudwf::obs

namespace cloudwf::sched {
class PlanCache;
}  // namespace cloudwf::sched

namespace cloudwf::exp {

/// Repetition / seeding parameters.
struct EvalConfig {
  std::size_t repetitions = 25;   ///< stochastic executions per point
  std::uint64_t seed = 0x5EEDu;   ///< base seed; realization r forks stream r
  bool measure_cpu_time = false;  ///< time the scheduling call (Table III)
  Seconds deadline = 0;           ///< D of Eq. (3); 0 = no deadline
  /// Fault injection (disabled by default).  Repetition r runs with
  /// faults.for_repetition(r), so results are reproducible and identical
  /// under run_serial and run_parallel.
  sim::FaultModel faults;
  sim::RecoveryPolicy recovery;  ///< used only when faults are enabled
  /// Wall-clock watchdog for the whole evaluation (scheduling + all
  /// repetitions); 0 disables it.  The deadline is checked after the
  /// scheduling call and between repetitions (cooperative granularity: a
  /// single scheduler invocation is never preempted mid-flight), throwing
  /// TimeoutError when exceeded.  run_serial/run_parallel capture that
  /// into a `timed_out` cell instead of aborting the sweep.
  Seconds run_timeout = 0;
  /// Optional observability hook: when non-null, every repetition records
  /// its run metrics (queue waits, VM utilization, fault counters, budget
  /// headroom) into this registry via sim::record_run_metrics.  Not part of
  /// the checkpoint fingerprint — attaching a registry never invalidates
  /// cached cells.  Not owned.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional shared store of budget-independent workflow analyses
  /// (sched/plan.hpp).  When non-null, the scheduling call reuses the cached
  /// ranks / levels / budget model for this (workflow, platform) pair —
  /// results are bit-identical with or without it, so, like `metrics`, it is
  /// not part of the checkpoint fingerprint.  The runner attaches one per
  /// matrix automatically.  Not owned; must outlive the evaluation.
  sched::PlanCache* plan_cache = nullptr;
};

/// Outcome class of one experimental cell.  Degraded cells (anything but
/// ok) carry no sample data; aggregation counts them instead of averaging.
enum class RunStatus {
  ok,         ///< evaluation completed normally
  timed_out,  ///< watchdog deadline expired (EvalConfig::run_timeout)
  errored,    ///< evaluation threw; see error_kind / error_message
};

[[nodiscard]] constexpr std::string_view to_string(RunStatus status) {
  switch (status) {
    case RunStatus::ok: return "ok";
    case RunStatus::timed_out: return "timed_out";
    case RunStatus::errored: return "errored";
  }
  return "errored";
}

/// Inverse of to_string(RunStatus); unrecognized names map to errored.
[[nodiscard]] constexpr RunStatus parse_run_status(std::string_view name) {
  if (name == "ok") return RunStatus::ok;
  if (name == "timed_out") return RunStatus::timed_out;
  return RunStatus::errored;
}

/// Aggregated outcome of one (workflow, algorithm, budget) point.
struct EvalResult {
  std::string algorithm;
  Dollars budget = 0;

  // Harness outcome.  Degraded cells (status != ok) have empty makespan /
  // cost summaries and zero fractions; error_kind / error_message explain
  // why (see the ErrorKind taxonomy in common/error.hpp).
  RunStatus status = RunStatus::ok;
  ErrorKind error_kind = ErrorKind::none;
  std::string error_message;
  [[nodiscard]] bool ok() const { return status == RunStatus::ok; }

  // Deterministic prediction (conservative weights).
  Seconds predicted_makespan = 0;
  Dollars predicted_cost = 0;
  bool predicted_feasible = false;
  std::size_t used_vms = 0;  ///< VMs in the produced schedule

  // Stochastic executions.
  Summary makespan;          ///< seconds, one entry per repetition
  Summary cost;              ///< dollars
  double valid_fraction = 0; ///< fraction of repetitions with cost <= budget
  /// Fraction of repetitions meeting the deadline (1 when none was set).
  double deadline_fraction = 1.0;
  /// Fraction of repetitions satisfying Eq. (3): deadline AND budget.
  double objective_fraction = 0;

  // Fault tolerance (all repetitions succeed trivially without injection).
  double success_fraction = 1.0;  ///< repetitions with zero failed tasks
  double crashes_mean = 0;        ///< injected VM crashes per repetition
  double failed_tasks_mean = 0;   ///< terminal task failures per repetition
  Dollars recovery_cost_mean = 0; ///< replacement-VM spend per repetition
  Seconds wasted_compute_mean = 0;  ///< compute seconds lost to interrupts

  // Scheduler CPU time (wall time of the scheduling call), when measured.
  Seconds schedule_seconds = 0;

  // Observability aggregates, pooled over all repetitions.  Cheap to keep
  // (derived from records the simulator produces anyway), so they are always
  // populated on ok cells.  Queue wait, utilization and headroom follow the
  // definitions of sim::derive_run_metrics.
  Seconds queue_wait_p50 = 0;  ///< median task queue wait over all repetitions
  Seconds queue_wait_p95 = 0;
  Seconds queue_wait_p99 = 0;
  double vm_util_mean = 0;        ///< pooled utilization, mean over repetitions
  double transfer_retries_mean = 0;  ///< transfer retries per repetition
  /// Mean relative budget slack (budget - cost) / budget; 0 when no budget.
  double budget_headroom_mean = 0;
  /// Simulator event-loop throughput over the repetition loop (events/s of
  /// wall time; 0 when the loop finished too fast to time).
  double sim_events_per_sec = 0;
};

/// Schedules \p wf with \p algorithm under \p budget, then executes
/// \p config.repetitions sampled realizations.
[[nodiscard]] EvalResult evaluate(const dag::Workflow& wf, const platform::Platform& platform,
                                  std::string_view algorithm, Dollars budget,
                                  const EvalConfig& config);

/// Executes an existing scheduler output (for callers that already have one).
[[nodiscard]] EvalResult evaluate_schedule(const dag::Workflow& wf,
                                           const platform::Platform& platform,
                                           const sched::SchedulerOutput& output,
                                           std::string_view algorithm, Dollars budget,
                                           const EvalConfig& config);

}  // namespace cloudwf::exp
