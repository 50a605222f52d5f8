#include "exp/evaluate.hpp"

#include <chrono>
#include <optional>
#include <sstream>

#include <algorithm>

#include "check/auto_check.hpp"
#include "check/violation.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "obs/metrics.hpp"
#include "sched/plan.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace cloudwf::exp {

namespace {

using Clock = std::chrono::steady_clock;
using Deadline = std::optional<Clock::time_point>;

Deadline make_deadline(const EvalConfig& config, Clock::time_point start) {
  require(config.run_timeout >= 0, "evaluate: run_timeout must be non-negative");
  if (config.run_timeout <= 0) return std::nullopt;
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(config.run_timeout));
}

void check_deadline(const Deadline& deadline, std::string_view algorithm,
                    std::string_view stage, const EvalConfig& config) {
  if (!deadline || Clock::now() <= *deadline) return;
  std::ostringstream os;
  os << "evaluate: watchdog deadline of " << config.run_timeout << " s expired during "
     << stage << " of '" << algorithm << "'";
  throw TimeoutError(os.str());
}

EvalResult evaluate_schedule_until(const dag::Workflow& wf,
                                   const platform::Platform& platform,
                                   const sched::SchedulerOutput& output,
                                   std::string_view algorithm, Dollars budget,
                                   const EvalConfig& config, const Deadline& deadline) {
  require(config.repetitions > 0, "evaluate: repetitions must be positive");

  EvalResult result;
  result.algorithm = std::string(algorithm);
  result.budget = budget;
  result.predicted_makespan = output.predicted_makespan;
  result.predicted_cost = output.predicted_cost;
  result.predicted_feasible = output.budget_feasible;
  result.used_vms = output.schedule.used_vm_count();

  // Budget-cap contract (CLOUDWF_CHECK=1): a budget-aware scheduler that
  // declares its plan feasible must have a conservative prediction within
  // the cap.  Stochastic realizations may legitimately overrun (tracked by
  // valid_fraction), so the cap applies to the prediction only.
  if (check::auto_check_installed() && budget > 0 && output.budget_feasible &&
      sched::scheduler_info(algorithm).needs_budget) {
    check::CheckReport report;
    const Dollars slack =
        std::max(budget * 256 * std::numeric_limits<double>::epsilon(), money_epsilon);
    ++report.checks_run;
    if (output.predicted_cost > budget + slack)
      report.add(check::InvariantCode::budget_cap, "predicted_cost",
                 "budget-aware '" + result.algorithm +
                     "' declared feasibility but predicts a spend over the cap",
                 budget, output.predicted_cost);
    if (!report.ok())
      throw InternalError("CLOUDWF_CHECK: " + report.text() + " [workflow " + wf.name() + "]");
  }

  sim::Simulator simulator(wf, platform);
  const Rng base(config.seed);
  std::size_t valid = 0;
  std::size_t in_time = 0;
  std::size_t objective = 0;
  std::size_t succeeded = 0;
  std::size_t crashes = 0;
  std::size_t failed_tasks = 0;
  Dollars recovery_cost = 0;
  Seconds wasted = 0;
  // Observability aggregates: waits pooled across all repetitions, per-rep
  // means for utilization / retries / headroom, events/s over the loop.
  Summary queue_waits;
  double util_sum = 0;
  std::size_t transfer_retries = 0;
  double headroom_sum = 0;
  std::size_t events_total = 0;
  const auto loop_start = Clock::now();
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    check_deadline(deadline, algorithm, "repetition " + std::to_string(rep), config);
    Rng stream = base.fork(rep);
    const dag::WeightRealization weights = dag::sample_weights(wf, stream);
    const sim::SimResult run = simulator.run(
        output.schedule, weights,
        {.faults = config.faults.for_repetition(rep), .recovery = config.recovery});
    result.makespan.add(run.makespan);
    result.cost.add(run.total_cost());
    const bool within_budget = run.total_cost() <= budget + money_epsilon;
    const bool within_deadline =
        config.deadline <= 0 || run.makespan <= config.deadline + time_epsilon;
    if (within_budget) ++valid;
    if (within_deadline) ++in_time;
    if (within_budget && within_deadline) ++objective;  // Eq. (3)
    if (run.success()) ++succeeded;
    crashes += run.faults.crashes;
    failed_tasks += run.faults.failed_tasks;
    recovery_cost += run.faults.recovery_cost;
    wasted += run.faults.wasted_compute;

    const sim::RunMetrics derived = sim::derive_run_metrics(
        run, budget, [&](Seconds wait) { queue_waits.add(wait); }, [](const sim::VmRecord&) {});
    util_sum += derived.utilization;
    headroom_sum += derived.budget_headroom;
    transfer_retries += run.faults.transfer_failures;
    events_total += run.events_processed;
    if (config.metrics != nullptr)
      sim::record_run_metrics(*config.metrics, run, budget);
  }
  const Seconds loop_seconds = std::chrono::duration<double>(Clock::now() - loop_start).count();
  const auto fraction = [&](std::size_t count) {
    return static_cast<double>(count) / static_cast<double>(config.repetitions);
  };
  result.valid_fraction = fraction(valid);
  result.deadline_fraction = fraction(in_time);
  result.objective_fraction = fraction(objective);
  result.success_fraction = fraction(succeeded);
  result.crashes_mean = fraction(crashes);
  result.failed_tasks_mean = fraction(failed_tasks);
  result.recovery_cost_mean = recovery_cost / static_cast<double>(config.repetitions);
  result.wasted_compute_mean = wasted / static_cast<double>(config.repetitions);
  if (!queue_waits.empty()) {  // can be empty when every task failed
    result.queue_wait_p50 = queue_waits.quantile(0.50);
    result.queue_wait_p95 = queue_waits.quantile(0.95);
    result.queue_wait_p99 = queue_waits.quantile(0.99);
  }
  result.vm_util_mean = util_sum / static_cast<double>(config.repetitions);
  result.transfer_retries_mean = fraction(transfer_retries);
  result.budget_headroom_mean = headroom_sum / static_cast<double>(config.repetitions);
  result.sim_events_per_sec =
      loop_seconds > 0 ? static_cast<double>(events_total) / loop_seconds : 0.0;
  return result;
}

}  // namespace

EvalResult evaluate(const dag::Workflow& wf, const platform::Platform& platform,
                    std::string_view algorithm, Dollars budget, const EvalConfig& config) {
  const auto scheduler = sched::make_scheduler(algorithm);
  const sched::WorkflowPlan* plan =
      config.plan_cache != nullptr ? &config.plan_cache->get(wf, platform) : nullptr;
  const sched::SchedulerInput input =
      sched::make_input(wf, platform, budget, /*bus=*/nullptr, plan);

  const auto t0 = Clock::now();
  const Deadline deadline = make_deadline(config, t0);
  const sched::SchedulerOutput output = scheduler->schedule(input);
  const auto t1 = Clock::now();
  check_deadline(deadline, algorithm, "scheduling", config);

  EvalResult result =
      evaluate_schedule_until(wf, platform, output, algorithm, budget, config, deadline);
  if (config.measure_cpu_time)
    result.schedule_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

EvalResult evaluate_schedule(const dag::Workflow& wf, const platform::Platform& platform,
                             const sched::SchedulerOutput& output, std::string_view algorithm,
                             Dollars budget, const EvalConfig& config) {
  return evaluate_schedule_until(wf, platform, output, algorithm, budget, config,
                                 make_deadline(config, Clock::now()));
}

}  // namespace cloudwf::exp
