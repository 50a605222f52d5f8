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
/// run it with Simulator::conservative_weights().

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

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

  /// Throws InvalidArgument on a negative or NaN knob or a min_speedup
  /// below 1; an infinite budget_cap means no cap.
  void validate() const;
};

/// The layers a Simulator::run adds to the static execution of the paper.
/// The default runs the schedule as it is: no re-scheduling, no faults.
/// Callers name only the fields they set (`{.online = policy}`); the `{}`
/// initializers keep -Wmissing-field-initializers quiet about the others.
struct RunOptions {
  /// Online re-scheduling; std::nullopt keeps the schedule static.
  std::optional<OnlinePolicy> online{};
  /// Fault injection; a disabled model (all rates zero) injects nothing and
  /// leaves the run bit-identical to a run without it.
  FaultModel faults{};
  /// Recovery from injected faults; consulted only when faults is enabled.
  RecoveryPolicy recovery{};
};

/// One destination of a task move in Simulator::sweep_moves: an existing VM
/// of the base schedule, or a fresh VM of a category appended to it.
struct MoveTarget {
  VmId vm = invalid_vm;               ///< existing VM; invalid_vm = a fresh VM
  platform::CategoryId category = 0;  ///< category of the fresh VM

  [[nodiscard]] static MoveTarget existing(VmId vm) { return {vm, 0}; }
  [[nodiscard]] static MoveTarget fresh(platform::CategoryId category) {
    return {invalid_vm, category};
  }
};

/// Applies \p target to \p schedule the way sweep_moves judges it:
/// Schedule::move, after Schedule::add_vm for a fresh VM.
void move_task(Schedule& schedule, dag::TaskId task, const MoveTarget& target);

/// What a move sweep reports for one target.
struct MoveOutcome {
  Seconds makespan = 0;  ///< SimResult::makespan; +inf for a screened candidate
  Dollars cost = 0;      ///< SimResult::total_cost(); +inf for a screened candidate
};

/// Work the simulators of the calling thread have done since it started.
/// Thread-local and monotone, like sched::probe_count(): read the deltas
/// around a call (bench/bench_sched.cpp does).
struct EngineCounters {
  std::size_t runs = 0;       ///< Simulator::run calls
  std::size_t events = 0;     ///< events processed, by runs and sweeps alike
  std::size_t simulated = 0;  ///< sweep candidates resumed and run to the end
  std::size_t screened = 0;   ///< sweep candidates whose bound exceeded the threshold
};
[[nodiscard]] const EngineCounters& engine_counters();

/// Executes schedules for one (workflow, platform) pair.
///
/// A Simulator owns the execution state of its runs: the mutable VM plans,
/// per-VM and per-task state, the event heap, the transfer jobs and link
/// queues, the fluid network and the conservative weights.  Each run call
/// resets that state in place instead of rebuilding it, so a refinement
/// sweep that re-simulates one schedule per candidate allocates only what
/// it returns once the first run has sized the buffers.  The state lives as
/// long as the Simulator and is freed with it; results never alias it.
///
/// One Simulator serves one thread: run and sweep_moves mutate the owned
/// state, so concurrent runs need one Simulator each (they are cheap to
/// construct and may share the workflow and platform).  Nothing may run a
/// Simulator while its own sweep_moves is in progress.
class Simulator {
 public:
  /// Both references must outlive the simulator.  When \p bus is non-null
  /// and has sinks attached, every run emits the full observability event
  /// stream (obs/events.hpp) through it; a null or sink-less bus costs one
  /// cached bool test per run (the <2% contract that bench/bench_sched.cpp
  /// measures).
  Simulator(const dag::Workflow& wf, const platform::Platform& platform,
            obs::EventBus* bus = nullptr);
  ~Simulator();

  /// Runs \p schedule with concrete \p weights and the layers of \p options.
  /// Throws InvalidArgument when an option is out of range or when online
  /// re-scheduling is combined with enabled faults, and ValidationError if
  /// the schedule is malformed or deadlocks.  Never throws on injected
  /// failures: exhausted recovery marks tasks failed in the result instead.
  /// Algorithm 5's deterministic predictor is run(schedule,
  /// conservative_weights()).
  [[nodiscard]] SimResult run(const Schedule& schedule, const dag::WeightRealization& weights,
                              const RunOptions& options = {});

  /// The conservative (mu + sigma) weights of the workflow, built on the
  /// first call and kept for the next ones.
  [[nodiscard]] const dag::WeightRealization& conservative_weights();

  /// Conservative move sweep (the inner loop of Algorithm 5 and CG+).  For
  /// each of \p targets, returns the makespan and total cost that
  /// run(·, conservative_weights()) reports for \p base with \p task moved
  /// there — Schedule::move, after Schedule::add_vm for a fresh target — bit
  /// for bit.  \p base_result must be run(base, conservative_weights()).
  ///
  /// The base schedule runs once.  Before the first event at a candidate's
  /// divergence time (the earliest moment the move can change anything;
  /// DESIGN.md Section 12) its state is copied into a second engine, the
  /// move is patched into the copy, and the copy runs to the end.  Only a
  /// Simulator without an event bus may sweep.  When a post-run hook is
  /// installed, each candidate schedule is built and handed to it with its
  /// full result, as a run would.  A candidate that fails (a same-VM order
  /// violation, a deadlock, a throwing hook) throws after the sweep; with
  /// several, the one of the lowest target index wins, as in a loop of runs.
  ///
  /// A candidate whose makespan_lower_bound exceeds \p threshold by more
  /// than a relative 1e-9 is screened: it reports +inf makespan and cost
  /// and is not simulated, since its makespan would exceed the threshold
  /// too.  The default threshold screens nothing.  With a post-run hook
  /// installed, screened candidates still run and reach the hook, and the
  /// sweep throws InternalError when a candidate's makespan falls below its
  /// bound by more than that margin.
  [[nodiscard]] std::vector<MoveOutcome> sweep_moves(
      const Schedule& base, const SimResult& base_result, dag::TaskId task,
      std::span<const MoveTarget> targets,
      Seconds threshold = std::numeric_limits<Seconds>::infinity());

  /// A lower bound on the makespan of every fault-free run of \p schedule
  /// with \p weights that migrates nothing — of \p schedule with \p task
  /// moved to \p target, as sweep_moves judges it, when \p task is a task.
  /// It is the longest path through the schedule's precedence, list-order
  /// and boot constraints, each transfer shortened by the fluid network's
  /// completion tolerance (DESIGN.md Section 12, "Screened candidates").
  /// std::nullopt when those constraints form a cycle: such a schedule
  /// breaks same-VM order or deadlocks, so no run of it completes.
  [[nodiscard]] std::optional<Seconds> makespan_lower_bound(const Schedule& schedule,
                                                            const dag::WeightRealization& weights,
                                                            dag::TaskId task = dag::invalid_task,
                                                            const MoveTarget& target = {});

  [[nodiscard]] const dag::Workflow& workflow() const { return wf_; }
  [[nodiscard]] const platform::Platform& platform() const { return platform_; }

 private:
  class Engine;
  class Bound;

  /// The bound's buffers, loaded with \p schedule's VM lists.
  Bound& load_bound(const Schedule& schedule);

  /// One candidate of a sweep, in divergence-time order.
  struct SweepStep {
    Seconds divergence = 0;
    std::size_t target = 0;     ///< index into the targets
    std::size_t insert_at = 0;  ///< position in the target VM's list
  };

  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Engine> probe_;  ///< resumes sweep candidates; built on first use
  std::unique_ptr<Bound> bound_;   ///< makespan_lower_bound's buffers; built on first use
  std::vector<SweepStep> steps_;
  std::optional<dag::WeightRealization> conservative_;
  bool sweeping_ = false;  ///< the base engine is paused mid-run
};

/// Extracts the schedule's critical path from a SimResult: the chain of
/// bound_by links ending at the task that finished last (earliest first).
[[nodiscard]] std::vector<dag::TaskId> schedule_critical_path(const SimResult& result);

/// \name Post-run invariant hook
/// A process-wide hook invoked after every Simulator::run with the executed
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
