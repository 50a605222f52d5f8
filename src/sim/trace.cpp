#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace cloudwf::sim {

void write_task_trace_csv(const dag::Workflow& wf, const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"task", "vm", "start", "finish", "duration", "inputs_at_dc", "bound_by",
              "restarts", "failed"});
  for (dag::TaskId t = 0; t < result.tasks.size(); ++t) {
    const TaskRecord& record = result.tasks[t];
    csv.field(wf.task(t).name)
        .field(static_cast<std::size_t>(record.vm))
        .field(record.start)
        .field(record.finish)
        .field(record.finish - record.start)
        .field(record.inputs_at_dc)
        .field(record.bound_by == dag::invalid_task ? std::string{"-"}
                                                    : wf.task(record.bound_by).name)
        .field(record.restarts)
        .field(record.failed ? 1 : 0);
    csv.end_row();
  }
}

void write_vm_trace_csv(const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"vm", "category", "boot_request", "boot_done", "end", "busy", "tasks",
              "utilization", "boot_attempts", "crashed", "recovery", "billed"});
  for (VmId v = 0; v < result.vms.size(); ++v) {
    const VmRecord& record = result.vms[v];
    // Fault-free: exactly the VMs that ran something.  Billed-but-empty VMs
    // (e.g. abandoned by a migration), crashed, re-provisioned and recovery
    // VMs are part of the story — and of the cost — even when empty.
    if (record.task_count == 0 && !record.billed && !record.crashed && !record.recovery &&
        record.boot_attempts <= 1)
      continue;
    csv.field(static_cast<std::size_t>(v))
        .field(static_cast<std::size_t>(record.category))
        .field(record.boot_request)
        .field(record.boot_done)
        .field(record.end)
        .field(record.busy)
        .field(record.task_count)
        .field(vm_utilization(record))
        .field(record.boot_attempts)
        .field(record.crashed ? 1 : 0)
        .field(record.recovery ? 1 : 0)
        .field(record.billed ? 1 : 0);
    csv.end_row();
  }
}

void save_task_trace_csv(const dag::Workflow& wf, const SimResult& result,
                         const std::string& path) {
  AtomicFile file(path);
  write_task_trace_csv(wf, result, file.stream());
  file.commit();
}

void save_vm_trace_csv(const SimResult& result, const std::string& path) {
  AtomicFile file(path);
  write_vm_trace_csv(result, file.stream());
  file.commit();
}

void save_result_summary_json(const SimResult& result, const std::string& path) {
  write_file_atomic(path, result_summary_json(result) + "\n");
}

std::string result_summary_json(const SimResult& result) {
  Json::Object root;
  root["makespan"] = result.makespan;
  root["start_first"] = result.start_first;
  root["end_last"] = result.end_last;
  Json::Object cost;
  cost["vm_time"] = result.cost.vm_time;
  cost["vm_setup"] = result.cost.vm_setup;
  cost["dc_time"] = result.cost.dc_time;
  cost["dc_transfer"] = result.cost.dc_transfer;
  cost["total"] = result.cost.total();
  root["cost"] = Json(std::move(cost));
  root["used_vms"] = result.used_vms;
  root["migrations"] = result.migrations;
  Json::Object transfers;
  transfers["count"] = result.transfers.count;
  transfers["bytes"] = result.transfers.bytes;
  transfers["peak_concurrent"] = result.transfers.peak_concurrent;
  root["transfers"] = Json(std::move(transfers));
  root["success"] = result.success();
  Json::Object faults;
  faults["boot_failures"] = result.faults.boot_failures;
  faults["crashes"] = result.faults.crashes;
  faults["transfer_failures"] = result.faults.transfer_failures;
  faults["transfer_aborts"] = result.faults.transfer_aborts;
  faults["task_reexecutions"] = result.faults.task_reexecutions;
  faults["failed_tasks"] = result.faults.failed_tasks;
  faults["wasted_compute"] = result.faults.wasted_compute;
  faults["recovery_cost"] = result.faults.recovery_cost;
  faults["degraded"] = result.faults.degraded;
  root["faults"] = Json(std::move(faults));
  return Json(std::move(root)).dump(2);
}

std::string result_summary_text(const SimResult& result) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "makespan      : " << result.makespan << " s\n"
     << "total cost    : $" << std::setprecision(4) << result.cost.total() << '\n'
     << std::setprecision(4)
     << "  vm time     : $" << result.cost.vm_time << '\n'
     << "  vm setup    : $" << result.cost.vm_setup << '\n'
     << "  dc time     : $" << result.cost.dc_time << '\n'
     << "  dc transfer : $" << result.cost.dc_transfer << '\n'
     << "used VMs      : " << result.used_vms << '\n'
     << "transfers     : " << result.transfers.count << " ("
     << std::setprecision(1) << result.transfers.bytes / 1e6 << " MB, peak "
     << result.transfers.peak_concurrent << " concurrent)\n";
  const FaultStats& f = result.faults;
  if (f.boot_failures > 0 || f.crashes > 0 || f.transfer_failures > 0 || f.failed_tasks > 0) {
    os << "faults        : " << f.crashes << " crashes, " << f.boot_failures
       << " boot failures, " << f.transfer_failures << " transfer failures ("
       << f.transfer_aborts << " aborted)\n"
       << "recovery      : " << f.task_reexecutions << " re-executions, "
       << std::setprecision(1) << f.wasted_compute << " s wasted, $"
       << std::setprecision(4) << f.recovery_cost << " on replacement VMs"
       << (f.degraded ? ", degraded" : "") << '\n'
       << "failed tasks  : " << f.failed_tasks << '\n';
  }
  return os.str();
}

void record_run_metrics(obs::MetricsRegistry& metrics, const SimResult& result,
                        Dollars budget) {
  const RunMetrics derived = derive_run_metrics(
      result, budget, [&](Seconds wait) { metrics.observe("queue_wait_seconds", wait); },
      [&](const VmRecord& vm) { metrics.observe("vm_utilization", vm_utilization(vm)); });
  std::size_t failed = 0;
  for (const TaskRecord& record : result.tasks)
    if (record.failed) ++failed;

  metrics.count("tasks_completed", static_cast<double>(result.tasks.size() - failed));
  metrics.count("tasks_failed", static_cast<double>(failed));
  metrics.count("transfers", static_cast<double>(result.transfers.count));
  metrics.count("transfer_retries", static_cast<double>(result.faults.transfer_failures));
  metrics.count("vm_crashes", static_cast<double>(result.faults.crashes));
  metrics.count("migrations", static_cast<double>(result.migrations));
  metrics.count("sim_events", static_cast<double>(result.events_processed));

  metrics.gauge("makespan_seconds", result.makespan);
  metrics.gauge("cost_dollars", result.total_cost());
  metrics.gauge("used_vms", static_cast<double>(result.used_vms));
  if (budget > 0) metrics.observe("budget_headroom", derived.budget_headroom);
}

}  // namespace cloudwf::sim
