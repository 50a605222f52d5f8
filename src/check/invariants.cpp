#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dag/stochastic.hpp"
#include "platform/pricing.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::check {

namespace {

/// Shorthand for "evaluate one assertion": every call counts toward
/// checks_run; a false condition files a violation.
void expect(CheckReport& report, bool ok, InvariantCode code, std::string subject,
            std::string message, double expected = 0, double actual = 0) {
  ++report.checks_run;
  if (!ok) report.add(code, std::move(subject), std::move(message), expected, actual);
}

std::string num(double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

std::string task_subject(const dag::Workflow& wf, dag::TaskId t) {
  return "task " + wf.task(t).name;
}

std::string vm_subject(sim::VmId v) { return "vm " + std::to_string(v); }

/// Time slack: absolute floor plus a relative component for long horizons.
Seconds time_tol(const CheckOptions& options, Seconds scale) {
  return std::max(options.time_tolerance, std::abs(scale) * 1e-9);
}

/// A run where every transfer/provisioning decision is the planned one:
/// no faults, no migrations, no failed tasks, single-attempt boots.  Only
/// such runs support the strict footprint/transfer/list-order checks.
bool clean_run(const sim::SimResult& r) {
  const sim::FaultStats& f = r.faults;
  if (r.migrations > 0 || f.boot_failures > 0 || f.crashes > 0 || f.transfer_failures > 0 ||
      f.transfer_aborts > 0 || f.task_reexecutions > 0 || f.failed_tasks > 0)
    return false;
  for (const sim::TaskRecord& t : r.tasks)
    if (t.failed || t.restarts > 0) return false;
  for (const sim::VmRecord& v : r.vms)
    if (v.crashed || v.recovery || v.boot_attempts > 1) return false;
  return true;
}

bool completed(const sim::TaskRecord& t) { return !t.failed && t.vm != sim::invalid_vm; }

/// record_range: structural sanity of every record.  Returns false when the
/// result is too malformed for the semantic checks to proceed.
bool check_records(const dag::Workflow& wf, const platform::Platform& platform,
                   const sim::SimResult& r, const CheckOptions& options, CheckReport& report) {
  ++report.checks_run;
  if (r.tasks.size() != wf.task_count()) {
    report.add(InvariantCode::record_range, "result",
               "task record count != workflow task count",
               static_cast<double>(wf.task_count()), static_cast<double>(r.tasks.size()));
    return false;
  }

  bool usable = true;
  for (dag::TaskId t = 0; t < r.tasks.size(); ++t) {
    const sim::TaskRecord& record = r.tasks[t];
    if (!completed(record)) continue;
    const std::string subject = task_subject(wf, t);
    ++report.checks_run;
    if (record.vm >= r.vms.size()) {
      report.add(InvariantCode::record_range, subject, "vm id out of range",
                 static_cast<double>(r.vms.size()), static_cast<double>(record.vm));
      usable = false;
      continue;
    }
    const bool finite = std::isfinite(record.start) && std::isfinite(record.finish) &&
                        std::isfinite(record.inputs_at_dc);
    expect(report, finite, InvariantCode::record_range, subject,
           "non-finite start/finish/inputs_at_dc");
    if (!finite) {
      usable = false;
      continue;
    }
    expect(report, record.start >= -options.time_tolerance, InvariantCode::record_range,
           subject, "negative start time " + num(record.start), 0, record.start);
    expect(report, record.finish >= record.start - time_tol(options, record.finish),
           InvariantCode::record_range, subject,
           "finish " + num(record.finish) + " before start " + num(record.start),
           record.start, record.finish);
    expect(report,
           record.bound_by == dag::invalid_task || record.bound_by < wf.task_count(),
           InvariantCode::record_range, subject, "bound_by task id out of range",
           static_cast<double>(wf.task_count()), static_cast<double>(record.bound_by));
  }

  for (sim::VmId v = 0; v < r.vms.size(); ++v) {
    const sim::VmRecord& record = r.vms[v];
    const std::string subject = vm_subject(v);
    ++report.checks_run;
    if (record.category >= platform.category_count()) {
      report.add(InvariantCode::record_range, subject, "category id out of range",
                 static_cast<double>(platform.category_count()),
                 static_cast<double>(record.category));
      usable = false;
      continue;
    }
    const bool finite = std::isfinite(record.boot_request) && std::isfinite(record.boot_done) &&
                        std::isfinite(record.end) && std::isfinite(record.busy);
    expect(report, finite, InvariantCode::record_range, subject, "non-finite VM record field");
    if (!finite) {
      usable = false;
      continue;
    }
    if (!record.billed) continue;
    expect(report, record.boot_request <= record.boot_done + options.time_tolerance,
           InvariantCode::record_range, subject, "boot_done precedes boot_request",
           record.boot_request, record.boot_done);
    expect(report, record.boot_done <= record.end + options.time_tolerance,
           InvariantCode::record_range, subject, "billing end precedes boot_done",
           record.boot_done, record.end);
    const platform::VmCategory& category = platform.category(record.category);
    const Seconds capacity =
        (record.end - record.boot_done) * static_cast<double>(category.processors);
    expect(report, record.busy <= capacity + time_tol(options, capacity),
           InvariantCode::record_range, subject,
           "busy seconds exceed slot capacity of the billed interval", capacity, record.busy);
  }
  return usable;
}

/// boot_order: billed boots take >= t_boot; tasks run inside their VM's
/// billed window.
void check_boot(const dag::Workflow& wf, const platform::Platform& platform,
                const sim::SimResult& r, const CheckOptions& options, CheckReport& report) {
  for (sim::VmId v = 0; v < r.vms.size(); ++v) {
    const sim::VmRecord& record = r.vms[v];
    if (!record.billed) continue;
    const Seconds boot = record.boot_done - record.boot_request;
    expect(report, boot >= platform.boot_delay() - time_tol(options, record.boot_done),
           InvariantCode::boot_order, vm_subject(v),
           "boot interval " + num(boot) + " s shorter than t_boot", platform.boot_delay(),
           boot);
  }
  for (dag::TaskId t = 0; t < r.tasks.size(); ++t) {
    const sim::TaskRecord& record = r.tasks[t];
    if (!completed(record) || record.vm >= r.vms.size()) continue;
    const sim::VmRecord& vm = r.vms[record.vm];
    const std::string subject = task_subject(wf, t);
    expect(report, vm.billed, InvariantCode::boot_order, subject,
           "executed on a VM that never billed (" + vm_subject(record.vm) + ")");
    if (!vm.billed) continue;
    expect(report, record.start >= vm.boot_done - time_tol(options, record.start),
           InvariantCode::boot_order, subject,
           "started " + num(record.start) + " before its VM was up at " + num(vm.boot_done),
           vm.boot_done, record.start);
    expect(report, record.finish <= vm.end + time_tol(options, record.finish),
           InvariantCode::boot_order, subject,
           "finished " + num(record.finish) + " after its VM's billing end " + num(vm.end),
           vm.end, record.finish);
  }
}

/// precedence: every edge is respected; on clean runs cross-VM edges pay
/// the VM -> DC -> VM round trip at the per-link bandwidth (a lower bound:
/// contention and link serialization only slow transfers down).
void check_precedence(const dag::Workflow& wf, const platform::Platform& platform,
                      const sim::SimResult& r, bool clean, const CheckOptions& options,
                      CheckReport& report) {
  const BytesPerSec bw = platform.bandwidth();
  for (dag::EdgeId e = 0; e < wf.edge_count(); ++e) {
    const dag::Edge& edge = wf.edge(e);
    const sim::TaskRecord& u = r.tasks[edge.src];
    const sim::TaskRecord& v = r.tasks[edge.dst];
    if (!completed(u) || !completed(v)) continue;
    const std::string subject =
        "edge " + wf.task(edge.src).name + " -> " + wf.task(edge.dst).name;
    expect(report, v.start >= u.finish - time_tol(options, v.start),
           InvariantCode::precedence, subject,
           "consumer started at " + num(v.start) + " before producer finished at " +
               num(u.finish),
           u.finish, v.start);
    if (!clean || u.vm == v.vm || edge.bytes <= 0 || bw <= 0) continue;
    const Seconds hop = edge.bytes / bw;
    expect(report, v.start >= u.finish + 2 * hop - time_tol(options, v.start),
           InvariantCode::precedence, subject,
           "cross-VM consumer start ignores the upload+download lower bound",
           u.finish + 2 * hop, v.start);
    expect(report, v.inputs_at_dc >= u.finish + hop - time_tol(options, v.inputs_at_dc),
           InvariantCode::precedence, subject,
           "inputs_at_dc earlier than the producer upload could complete", u.finish + hop,
           v.inputs_at_dc);
  }
}

/// slot_overlap: per-VM sweep over compute intervals; concurrency must not
/// exceed the category's processor count.
void check_slots(const dag::Workflow& wf, const platform::Platform& platform,
                 const sim::SimResult& r, const CheckOptions& options, CheckReport& report) {
  std::vector<std::vector<std::pair<Seconds, int>>> sweeps(r.vms.size());
  for (dag::TaskId t = 0; t < r.tasks.size(); ++t) {
    const sim::TaskRecord& record = r.tasks[t];
    if (!completed(record) || record.vm >= r.vms.size()) continue;
    // Shrink by the tolerance so a back-to-back pair (finish == next start)
    // never counts as overlapping.
    const Seconds tol = time_tol(options, record.finish);
    sweeps[record.vm].push_back({record.start + tol, +1});
    sweeps[record.vm].push_back({record.finish - tol, -1});
  }
  for (sim::VmId v = 0; v < sweeps.size(); ++v) {
    auto& sweep = sweeps[v];
    if (sweep.empty()) continue;
    std::sort(sweep.begin(), sweep.end());  // ties: -1 sorts before +1
    const auto processors =
        static_cast<int>(platform.category(r.vms[v].category).processors);
    int running = 0;
    int peak = 0;
    for (const auto& [time, delta] : sweep) {
      (void)time;
      running += delta;
      peak = std::max(peak, running);
    }
    expect(report, peak <= processors, InvariantCode::slot_overlap, vm_subject(v),
           "ran " + std::to_string(peak) + " concurrent tasks on " +
               std::to_string(processors) + " processor(s)",
           processors, peak);
  }
  (void)wf;
}

/// makespan_identity: Eq. (3) plus the endpoint definitions.
void check_makespan(const dag::Workflow& wf, const sim::SimResult& r,
                    const CheckOptions& options, CheckReport& report) {
  Seconds first = std::numeric_limits<Seconds>::infinity();
  Seconds last = 0;
  std::size_t billed = 0;
  for (const sim::VmRecord& vm : r.vms) {
    if (!vm.billed) continue;
    ++billed;
    first = std::min(first, vm.boot_request);
    last = std::max(last, vm.end);
  }
  if (billed == 0) first = 0;

  expect(report, r.used_vms == billed, InvariantCode::makespan_identity, "result",
         "used_vms does not count the billed VMs", static_cast<double>(billed),
         static_cast<double>(r.used_vms));
  expect(report, std::abs(r.start_first - first) <= time_tol(options, first),
         InvariantCode::makespan_identity, "result",
         "start_first != earliest billed boot_request", first, r.start_first);
  expect(report, std::abs(r.end_last - last) <= time_tol(options, last),
         InvariantCode::makespan_identity, "result",
         "end_last != latest billed VM end", last, r.end_last);
  expect(report,
         std::abs(r.makespan - (r.end_last - r.start_first)) <=
             time_tol(options, r.end_last),
         InvariantCode::makespan_identity, "result",
         "makespan != end_last - start_first (Eq. 3)", r.end_last - r.start_first,
         r.makespan);

  for (dag::TaskId t = 0; t < r.tasks.size(); ++t) {
    const sim::TaskRecord& record = r.tasks[t];
    if (!completed(record)) continue;
    expect(report, record.finish <= r.end_last + time_tol(options, record.finish),
           InvariantCode::makespan_identity, task_subject(wf, t),
           "finished after end_last", r.end_last, record.finish);
    expect(report, record.start >= r.start_first - time_tol(options, record.start),
           InvariantCode::makespan_identity, task_subject(wf, t),
           "started before start_first", r.start_first, record.start);
  }
}

/// cost_conservation: recompute Eq. (1) from the billed VM records and
/// Eq. (2) from the workflow's external data; compare itemized components.
void check_cost(const dag::Workflow& wf, const platform::Platform& platform,
                const sim::SimResult& r, bool clean, const CheckOptions& options,
                CheckReport& report) {
  Dollars vm_time = 0;
  Dollars vm_setup = 0;
  for (const sim::VmRecord& vm : r.vms) {
    if (!vm.billed) continue;
    const platform::VmCategory& category = platform.category(vm.category);
    vm_time += platform::vm_cost(category, vm.boot_done, vm.end, platform.billing_quantum()) -
               category.setup_cost;
    vm_setup += category.setup_cost;
  }
  expect(report, money_close(r.cost.vm_time, vm_time, options.cost_ulps),
         InvariantCode::cost_conservation, "cost.vm_time",
         "accounted vm_time differs from the Eq. (1) recomputation", vm_time,
         r.cost.vm_time);
  expect(report, money_close(r.cost.vm_setup, vm_setup, options.cost_ulps),
         InvariantCode::cost_conservation, "cost.vm_setup",
         "accounted vm_setup differs from the billed setup fees", vm_setup,
         r.cost.vm_setup);

  const Dollars dc_transfer =
      r.used_vms == 0 ? 0
                      : (wf.external_input_bytes() + wf.external_output_bytes()) *
                            platform.dc_transfer_price_per_byte();
  expect(report, money_close(r.cost.dc_transfer, dc_transfer, options.cost_ulps),
         InvariantCode::cost_conservation, "cost.dc_transfer",
         "accounted dc_transfer differs from the Eq. (2) external-data term", dc_transfer,
         r.cost.dc_transfer);

  if (clean) {
    // The storage footprint is placement-derived: external data plus every
    // edge that crosses VMs.  Fault recovery / migration re-stage extra
    // data, so this component is only exact on clean runs.
    Bytes footprint = wf.external_input_bytes() + wf.external_output_bytes();
    for (dag::EdgeId e = 0; e < wf.edge_count(); ++e) {
      const dag::Edge& edge = wf.edge(e);
      const sim::TaskRecord& u = r.tasks[edge.src];
      const sim::TaskRecord& v = r.tasks[edge.dst];
      if (completed(u) && completed(v) && u.vm != v.vm) footprint += edge.bytes;
    }
    const Dollars dc_time =
        r.used_vms == 0
            ? 0
            : (r.end_last - r.start_first) * platform.dc_rate_for_footprint(footprint);
    expect(report, money_close(r.cost.dc_time, dc_time, options.cost_ulps),
           InvariantCode::cost_conservation, "cost.dc_time",
           "accounted dc_time differs from the Eq. (2) storage term", dc_time,
           r.cost.dc_time);
  }
}

/// transfer_conservation: on clean runs the engine must move exactly the
/// placement-implied data: 2x each positive cross-VM edge plus external
/// inputs and outputs (zero-byte dependencies dispatch inline).
void check_transfers(const dag::Workflow& wf, const sim::SimResult& r,
                     const CheckOptions& options, CheckReport& report) {
  std::size_t count = 0;
  Bytes bytes = 0;
  for (dag::EdgeId e = 0; e < wf.edge_count(); ++e) {
    const dag::Edge& edge = wf.edge(e);
    if (edge.bytes <= 0) continue;
    const sim::TaskRecord& u = r.tasks[edge.src];
    const sim::TaskRecord& v = r.tasks[edge.dst];
    if (!completed(u) || !completed(v) || u.vm == v.vm) continue;
    count += 2;  // upload to the DC + download to the consumer
    bytes += 2 * edge.bytes;
  }
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    if (!completed(r.tasks[t])) continue;
    if (wf.external_input_of(t) > 0) {
      ++count;
      bytes += wf.external_input_of(t);
    }
    if (wf.external_output_of(t) > 0) {
      ++count;
      bytes += wf.external_output_of(t);
    }
  }
  expect(report, r.transfers.count == count, InvariantCode::transfer_conservation,
         "transfers.count", "completed transfer count differs from the placement's needs",
         static_cast<double>(count), static_cast<double>(r.transfers.count));
  const Bytes tol = std::max(1e-6, bytes * options.cost_ulps *
                                       std::numeric_limits<double>::epsilon());
  expect(report, std::abs(r.transfers.bytes - bytes) <= tol,
         InvariantCode::transfer_conservation, "transfers.bytes",
         "transferred bytes differ from the placement's edge/external data", bytes,
         r.transfers.bytes);
}

void check_budget(const sim::SimResult& r, const CheckOptions& options, CheckReport& report) {
  if (options.budget <= 0) return;
  const Dollars total = r.cost.total();
  const Dollars slack = options.budget * options.cost_ulps *
                        std::numeric_limits<double>::epsilon();
  expect(report, total <= options.budget + std::max(slack, money_epsilon),
         InvariantCode::budget_cap, "cost.total",
         "spend $" + num(total) + " exceeds the budget cap $" + num(options.budget),
         options.budget, total);
}

}  // namespace

bool money_close(Dollars a, Dollars b, double ulps) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= scale * ulps * std::numeric_limits<double>::epsilon();
}

InvariantChecker::InvariantChecker(const dag::Workflow& wf, const platform::Platform& platform)
    : wf_(wf), platform_(platform) {
  require(wf.frozen(), "InvariantChecker: workflow must be frozen");
}

CheckReport InvariantChecker::check(const sim::SimResult& result,
                                    const CheckOptions& options) const {
  CheckReport report;
  if (!check_records(wf_, platform_, result, options, report)) return report;
  const bool clean = clean_run(result);
  check_boot(wf_, platform_, result, options, report);
  check_precedence(wf_, platform_, result, clean, options, report);
  check_slots(wf_, platform_, result, options, report);
  check_makespan(wf_, result, options, report);
  check_cost(wf_, platform_, result, clean, options, report);
  if (clean) check_transfers(wf_, result, options, report);
  check_budget(result, options, report);
  return report;
}

CheckReport InvariantChecker::check(const sim::Schedule& schedule,
                                    const sim::SimResult& result,
                                    const CheckOptions& options) const {
  CheckReport report;
  ++report.checks_run;
  try {
    schedule.validate(wf_, platform_);
  } catch (const Error& error) {
    report.add(InvariantCode::schedule_structure, "schedule", error.what());
    report.merge(check(result, options));
    return report;
  }

  report.merge(check(result, options));
  if (!clean_run(result) || result.tasks.size() != wf_.task_count()) return report;

  // Clean executions place every task exactly where the schedule said and
  // start each VM's tasks in list order.
  for (dag::TaskId t = 0; t < result.tasks.size(); ++t) {
    const sim::TaskRecord& record = result.tasks[t];
    if (!completed(record)) continue;
    expect(report, record.vm == schedule.vm_of(t), InvariantCode::schedule_structure,
           task_subject(wf_, t), "executed on a different VM than scheduled",
           static_cast<double>(schedule.vm_of(t)), static_cast<double>(record.vm));
  }
  for (sim::VmId v = 0; v < schedule.vm_count(); ++v) {
    Seconds previous = -std::numeric_limits<Seconds>::infinity();
    dag::TaskId previous_task = dag::invalid_task;
    for (const dag::TaskId t : schedule.vm_tasks(v)) {
      const sim::TaskRecord& record = result.tasks[t];
      if (!completed(record) || record.vm != v) continue;
      expect(report, record.start >= previous - time_tol(options, record.start),
             InvariantCode::schedule_structure, task_subject(wf_, t),
             "started before its list predecessor " +
                 (previous_task == dag::invalid_task ? std::string("-")
                                                     : wf_.task(previous_task).name),
             previous, record.start);
      previous = std::max(previous, record.start);
      previous_task = t;
    }
  }
  if (report.ok()) check_lower_bound(schedule, result, options, report);
  return report;
}

void InvariantChecker::check_lower_bound(const sim::Schedule& schedule,
                                         const sim::SimResult& result,
                                         const CheckOptions& options, CheckReport& report) const {
  // The run's own weights, recovered from the durations it computed for.
  std::vector<Instructions> weights(wf_.task_count());
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) {
    const sim::TaskRecord& record = result.tasks[t];
    weights[t] = (record.finish - record.start) *
                 platform_.category(schedule.vm_category(record.vm)).speed;
  }
  sim::Simulator simulator(wf_, platform_);
  const std::optional<Seconds> bound =
      simulator.makespan_lower_bound(schedule, dag::WeightRealization(std::move(weights)));
  if (!bound) {
    expect(report, false, InvariantCode::makespan_identity, "result",
           "completed a schedule whose precedence and list-order constraints form a cycle");
    return;
  }
  expect(report, result.makespan >= *bound - time_tol(options, *bound),
         InvariantCode::makespan_identity, "result",
         "makespan " + num(result.makespan) + " below the schedule's longest-path lower bound " +
             num(*bound),
         *bound, result.makespan);
}

CheckReport check_events(std::span<const obs::Event> events, const CheckOptions& options) {
  CheckReport report;
  Seconds engine_time = -std::numeric_limits<Seconds>::infinity();
  Seconds decision_index = -std::numeric_limits<Seconds>::infinity();
  // Set once the finalize epilogue begins (the single allowed rewind);
  // records the run loop's last timestamp, which caps every epilogue event.
  bool epilogue = false;
  Seconds run_end = -std::numeric_limits<Seconds>::infinity();
  std::vector<std::pair<std::int64_t, Seconds>> running;  // task -> last start

  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Event& event = events[i];
    const std::string subject =
        "event " + std::to_string(i) + " (" + std::string(to_string(event.kind)) + ")";
    expect(report, std::isfinite(event.time) && std::isfinite(event.value) &&
                       std::isfinite(event.duration),
           InvariantCode::event_order, subject, "non-finite time/value/duration");
    expect(report, event.duration >= -options.time_tolerance, InvariantCode::event_order,
           subject, "negative duration", 0, event.duration);

    if (event.kind == obs::EventKind::sched_decision) {
      // Scheduler decisions live on their own monotone index timeline.
      expect(report, event.time >= decision_index - options.time_tolerance,
             InvariantCode::event_order, subject,
             "decision index went backwards", decision_index, event.time);
      decision_index = std::max(decision_index, event.time);
      continue;
    }
    const bool tail_kind = event.kind == obs::EventKind::billing_tick ||
                           event.kind == obs::EventKind::vm_shutdown;
    if (!epilogue && tail_kind &&
        event.time < engine_time - time_tol(options, event.time)) {
      // Per-VM billing ends are only known once the run loop is over, so
      // finalize emits them as one time-sorted epilogue: a single rewind
      // here is part of the contract, further rewinds are not.
      epilogue = true;
      run_end = engine_time;
      engine_time = -std::numeric_limits<Seconds>::infinity();
    }
    if (epilogue) {
      expect(report, tail_kind, InvariantCode::event_order, subject,
             "non-billing event after the finalize epilogue began");
      expect(report, event.time <= run_end + time_tol(options, event.time),
             InvariantCode::event_order, subject,
             "epilogue event after the run's last timestamp", run_end, event.time);
    }
    expect(report, event.time >= engine_time - time_tol(options, event.time),
           InvariantCode::event_order, subject,
           "timestamp " + num(event.time) + " precedes an earlier event at " +
               num(engine_time),
           engine_time, event.time);
    engine_time = std::max(engine_time, event.time);

    if (event.kind == obs::EventKind::task_start) {
      running.emplace_back(event.task, event.time);
    } else if (event.kind == obs::EventKind::task_finish) {
      const auto it = std::find_if(running.rbegin(), running.rend(),
                                   [&](const auto& entry) { return entry.first == event.task; });
      expect(report, it != running.rend(), InvariantCode::event_order, subject,
             "task_finish without a prior task_start");
      if (it != running.rend()) {
        expect(report, event.time >= it->second - time_tol(options, event.time),
               InvariantCode::event_order, subject, "task finished before it started",
               it->second, event.time);
        running.erase(std::next(it).base());
      }
    }
  }
  return report;
}

}  // namespace cloudwf::check
