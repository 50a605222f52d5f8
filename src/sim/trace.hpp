#pragma once

/// \file trace.hpp
/// \brief Human/machine-readable export of simulation results.

#include <ostream>
#include <string>

#include "dag/workflow.hpp"
#include "sim/result.hpp"

namespace cloudwf::obs {
class MetricsRegistry;
}  // namespace cloudwf::obs

namespace cloudwf::sim {

/// Writes one CSV row per task: name, vm, start, finish, duration, bound_by.
void write_task_trace_csv(const dag::Workflow& wf, const SimResult& result, std::ostream& out);

/// Writes one CSV row per used VM: id, category, boot_request, boot_done,
/// end, busy, task_count, utilization, boot_attempts, crashed, recovery,
/// billed.
void write_vm_trace_csv(const SimResult& result, std::ostream& out);

/// \name Crash-safe file variants
/// Stage through common/atomic_file (write-temp -> fsync -> rename), so an
/// interrupted export never leaves a torn trace on disk.
///@{
void save_task_trace_csv(const dag::Workflow& wf, const SimResult& result,
                         const std::string& path);
void save_vm_trace_csv(const SimResult& result, const std::string& path);
void save_result_summary_json(const SimResult& result, const std::string& path);
///@}

/// JSON summary of the run (makespan, cost breakdown, VM/transfer stats).
[[nodiscard]] std::string result_summary_json(const SimResult& result);

/// Pretty multi-line summary for terminal output (examples/quickstart).
[[nodiscard]] std::string result_summary_text(const SimResult& result);

/// Records the run's quantitative story into an obs::MetricsRegistry:
/// per-task queue-wait and per-used-VM vm_utilization() histograms,
/// transfer/fault counters, makespan / cost gauges and a budget-headroom
/// histogram, with derive_run_metrics' definitions.  \p budget <= 0 skips
/// the headroom (no budget to measure against).
void record_run_metrics(obs::MetricsRegistry& metrics, const SimResult& result, Dollars budget);

}  // namespace cloudwf::sim
