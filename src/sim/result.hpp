#pragma once

/// \file result.hpp
/// \brief Outputs of one simulated workflow execution.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/units.hpp"
#include "dag/task.hpp"
#include "platform/pricing.hpp"
#include "sim/faults.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::sim {

/// Per-task execution record.
struct TaskRecord {
  VmId vm = invalid_vm;      ///< the VM that (finally) executed the task
  Seconds inputs_at_dc = 0;  ///< when the last cross-VM input reached the DC
  Seconds start = 0;         ///< (final) compute start
  Seconds finish = 0;        ///< compute end
  std::size_t restarts = 0;  ///< interruptions (online migrations + crashes)
  /// Terminal failure: the task never completed (inputs unreachable, crash
  /// retries exhausted, host unrecoverable) or its final external output was
  /// lost.  start/finish are meaningless for tasks that never ran.
  bool failed = false;
  /// The task whose completion/upload/processor-release gated our start;
  /// dag::invalid_task when gated only by boot or time zero.  Follows the
  /// schedule's critical path backwards (used by CG+).
  dag::TaskId bound_by = dag::invalid_task;
};

/// Per-VM usage record; the billing interval is [boot_done, end].
struct VmRecord {
  platform::CategoryId category = 0;
  Seconds boot_request = 0;  ///< booking time (H_start for the DC clock)
  Seconds boot_done = 0;     ///< billing starts here (boot is uncharged)
  Seconds end = 0;           ///< last compute/transfer on this VM (H_end,v)
  Seconds busy = 0;          ///< total compute seconds
  std::size_t task_count = 0;
  std::size_t boot_attempts = 0;  ///< provisioning tries (0 = never booked)
  bool crashed = false;           ///< injected crash killed this VM
  bool recovery = false;          ///< provisioned by fault recovery
  /// This VM came up and was charged per Eq. (1) for [boot_done, end] —
  /// including instances abandoned by a migration or killed by a crash.
  /// A provisioning that never completed is uncharged (billed = false).
  bool billed = false;
};

/// Busy fraction of a VM's billed interval, hardened against degenerate
/// windows: a VM whose busy window is empty (end == boot_done, e.g. a
/// recovery VM that never ran anything) or whose record carries non-finite
/// values reports 0.0 instead of NaN/inf.  This is the per-VM definition;
/// derive_run_metrics defines the pooled one.
[[nodiscard]] inline double vm_utilization(const VmRecord& record) {
  const Seconds billed = record.end - record.boot_done;
  if (!(billed > 0)) return 0.0;
  const double utilization = record.busy / billed;
  return std::isfinite(utilization) ? utilization : 0.0;
}

/// Aggregate transfer statistics.
struct TransferStats {
  std::size_t count = 0;          ///< completed transfers (uploads + downloads)
  Bytes bytes = 0;                ///< total bytes moved through the DC
  std::size_t peak_concurrent = 0;  ///< max simultaneous flows (contention)
};

/// Everything one Simulator::run produces.
struct SimResult {
  Seconds start_first = 0;  ///< booking time of the first VM (H_start,first)
  Seconds end_last = 0;     ///< last upload/computation end (H_end,last)
  Seconds makespan = 0;     ///< end_last - start_first (Eq. 3)
  platform::CostBreakdown cost;  ///< C_wf itemization (Eq. 1 + 2)
  std::size_t used_vms = 0;      ///< VMs that billed (VmRecord::billed)
  std::vector<TaskRecord> tasks;
  std::vector<VmRecord> vms;  ///< indexed by VmId; unused VMs have task_count 0
  TransferStats transfers;
  std::size_t migrations = 0;  ///< online-mode task interruptions (total)
  FaultStats faults;           ///< all-zero unless faults were injected
  /// Engine events processed by the main loop (flow completions + timed
  /// events) — the denominator of the events/sec throughput metric.
  std::size_t events_processed = 0;

  [[nodiscard]] Dollars total_cost() const { return cost.total(); }
  /// True when every task completed and every external output was delivered.
  [[nodiscard]] bool success() const { return faults.failed_tasks == 0; }
};

/// Pooled utilization and budget headroom of one run (derive_run_metrics).
struct RunMetrics {
  double utilization = 0;
  double budget_headroom = 0;
};

/// The one derivation behind exp::evaluate's observability aggregates and
/// record_run_metrics.  Definitions:
/// - a task's queue wait is its start minus the later of "inputs at the DC"
///   and "VM up", at least 0; failed tasks never started and have none;
/// - a VM is used when it ran a task, crashed or was provisioned by recovery;
/// - pooled utilization is the used VMs' summed busy time over their summed
///   billed time [boot_done, end], 0 when nothing was billed (the per-VM
///   ratio, vm_utilization(), is the other definition);
/// - budget headroom is (budget - cost) / budget, 0 when \p budget <= 0.
/// Calls \p on_queue_wait(Seconds) per task with a wait, then
/// \p on_used_vm(const VmRecord&) per used VM, in index order, summing in
/// that order.  Allocates nothing.
template <class OnQueueWait, class OnUsedVm>
RunMetrics derive_run_metrics(const SimResult& run, Dollars budget, OnQueueWait&& on_queue_wait,
                              OnUsedVm&& on_used_vm) {
  for (const TaskRecord& record : run.tasks) {
    if (record.failed || record.vm == invalid_vm || record.vm >= run.vms.size()) continue;
    const Seconds ready = std::max(record.inputs_at_dc, run.vms[record.vm].boot_done);
    on_queue_wait(std::max(0.0, record.start - ready));
  }
  Seconds busy = 0;
  Seconds billed = 0;
  for (const VmRecord& vm : run.vms) {
    if (vm.task_count == 0 && !vm.crashed && !vm.recovery) continue;
    on_used_vm(vm);
    busy += vm.busy;
    billed += vm.end - vm.boot_done;
  }
  return {.utilization = billed > 0 ? busy / billed : 0.0,
          .budget_headroom = budget > 0 ? (budget - run.total_cost()) / budget : 0.0};
}

}  // namespace cloudwf::sim
