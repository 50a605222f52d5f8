/// \file cloudwf_lint.cpp
/// \brief `cloudwf-lint`: offline validator for cloudwf artifacts.
///
/// Reconstructs simulation results from their on-disk artifacts and replays
/// the InvariantChecker (check/invariants.hpp) against them, so a trace
/// produced on one machine can be audited on another — or in CI — without
/// re-running the simulation.
///
/// Commands:
///   run <wf.{json,dax}> --trace-dir DIR
///       Validate a tasks.csv + vms.csv + summary.json triple against the
///       workflow: full invariant suite (precedence, slots, boot windows,
///       Eq. (1)-(3) cost/makespan conservation, transfers) plus
///       artifact-level cross-checks (derived columns, header shape).
///       --tasks/--vms/--summary override individual paths; --budget B adds
///       the budget-cap check; --platform FILE / --contention F select the
///       platform the run used (default: the reconstructed Table II offer).
///   schedule <wf.{json,dax}> <schedule.json>
///       Parse and structurally validate a cloudwf-schedule file.
///   events <trace.json>
///       Validate a Chrome trace-event file: record shape, non-negative
///       durations, per-track monotonicity of the scheduler lane and global
///       monotonicity of simulation-time events (the EventSink contract).
///   checkpoint <journal.jsonl> [--strict]
///       Validate a campaign checkpoint journal: every line a well-formed
///       {"fp", "result"} record, fingerprints unique.  A torn *final* line
///       is tolerated (crash signature) unless --strict.
///   summary <summary.json>
///       Self-consistency of a summary in isolation: required fields,
///       finite values, total == sum of components, Eq. (3) identity.
///
/// Every command accepts --report PATH to also write the machine-readable
/// violation report (violation.hpp schema; validated by
/// scripts/check_trace_schema.py --violations).
///
/// Exit codes: 0 all checks passed; 1 invariant violations found;
/// 2 usage error or unreadable input.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/invariants.hpp"
#include "check/violation.hpp"
#include "cli_args.hpp"
#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "exp/checkpoint.hpp"
#include "platform/io.hpp"
#include "platform/platform.hpp"
#include "sim/result.hpp"
#include "sim/schedule_io.hpp"

namespace {

using namespace cloudwf;
using check::CheckReport;
using check::InvariantCode;

constexpr const char* usage = R"(cloudwf-lint — offline validator for cloudwf artifacts

usage: cloudwf-lint <command> [args]

commands:
  run <wf> --trace-dir DIR   replay the invariant checker on tasks.csv +
                             vms.csv + summary.json  [--tasks F] [--vms F]
                             [--summary F] [--budget B] [--platform FILE]
                             [--contention F] [--sigma S]
  schedule <wf> <sched.json> validate a cloudwf-schedule file
  events <trace.json>        validate a Chrome trace-event file
  checkpoint <journal.jsonl> validate a campaign checkpoint journal [--strict]
  summary <summary.json>     self-consistency of one result summary
  help                       print this message

all commands: --report PATH writes the JSON violation report.
exit codes: 0 clean, 1 violations found, 2 usage/unreadable input.
)";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

dag::Workflow load_workflow(const std::string& path, double sigma) {
  const std::string ext = std::filesystem::path(path).extension().string();
  if (ext == ".json") return dag::load_json(path);
  if (ext == ".dax" || ext == ".xml")
    return dag::load_dax(path, {.reference_speed = 1.0, .stddev_ratio = sigma});
  throw InvalidArgument("unrecognized workflow extension '" + ext + "' (use .json or .dax)");
}

platform::Platform make_platform(const cli::Args& args) {
  if (args.has("platform")) return platform::load_json(args.get("platform", ""));
  const double contention = args.get_double("contention", 0.0);
  return contention > 0 ? platform::paper_platform_with_contention(contention)
                        : platform::paper_platform();
}

// ---- tolerant field parsing -------------------------------------------------
// CSV/JSON artifacts may have been hand-edited or truncated; every parse
// failure becomes an artifact_format violation instead of an exception, so
// one bad field does not mask the rest of the report.

bool parse_number(const std::string& field, const std::string& where, CheckReport& report,
                  double& out) {
  ++report.checks_run;
  char* end = nullptr;
  out = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    report.add(InvariantCode::artifact_format, where, "not a number: '" + field + "'");
    return false;
  }
  return true;
}

bool parse_count(const std::string& field, const std::string& where, CheckReport& report,
                 std::size_t& out) {
  double value = 0;
  if (!parse_number(field, where, report, value)) return false;
  ++report.checks_run;
  // Whole and below 2^64, so the conversion below is defined.
  if (!(value >= 0 && value < 0x1p64 && value == std::floor(value))) {
    report.add(InvariantCode::artifact_format, where,
               "expected a non-negative integer, got '" + field + "'");
    return false;
  }
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse_flag(const std::string& field, const std::string& where, CheckReport& report,
                bool& out) {
  ++report.checks_run;
  if (field == "0" || field == "1") {
    out = field == "1";
    return true;
  }
  report.add(InvariantCode::artifact_format, where, "expected 0 or 1, got '" + field + "'");
  return false;
}

/// Checks the header row of a parsed CSV against the writer's schema.
bool check_header(const std::vector<std::vector<std::string>>& rows,
                  const std::vector<std::string>& expected, const std::string& path,
                  CheckReport& report) {
  ++report.checks_run;
  if (rows.empty() || rows.front() != expected) {
    std::string want;
    for (const std::string& name : expected) want += (want.empty() ? "" : ",") + name;
    report.add(InvariantCode::artifact_format, path, "header row must be '" + want + "'");
    return false;
  }
  return true;
}

double json_number(const Json::Object& object, const std::string& key, const std::string& where,
                   CheckReport& report) {
  ++report.checks_run;
  const Json* value = object.find(key);
  if (value == nullptr || !value->is_number()) {
    report.add(InvariantCode::artifact_format, where, "missing numeric field '" + key + "'");
    return 0;
  }
  return value->as_number();
}

std::size_t json_count(const Json::Object& object, const std::string& key,
                       const std::string& where, CheckReport& report) {
  const double value = json_number(object, key, where, report);
  ++report.checks_run;
  // Whole and below 2^64, so the conversion below is defined.
  if (!(value >= 0 && value < 0x1p64 && value == std::floor(value))) {
    report.add(InvariantCode::artifact_format, where,
               "field '" + key + "' must be a non-negative integer", 0, value);
    return 0;
  }
  return static_cast<std::size_t>(value);
}

// ---- summary.json -----------------------------------------------------------

/// Parses \p text (trace.cpp's result_summary_json output) into \p result,
/// reporting missing/mistyped fields and internal inconsistencies.
void read_summary(const std::string& text, const std::string& path, sim::SimResult& result,
                  CheckReport& report) {
  Json root;
  ++report.checks_run;
  try {
    root = Json::parse(text);
  } catch (const Error& error) {
    report.add(InvariantCode::artifact_format, path, error.what());
    return;
  }
  if (!root.is_object()) {
    report.add(InvariantCode::artifact_format, path, "root must be a JSON object");
    return;
  }
  const Json::Object& object = root.as_object();
  result.makespan = json_number(object, "makespan", path, report);
  result.start_first = json_number(object, "start_first", path, report);
  result.end_last = json_number(object, "end_last", path, report);
  result.used_vms = json_count(object, "used_vms", path, report);
  result.migrations = json_count(object, "migrations", path, report);

  ++report.checks_run;
  const Json* cost = object.find("cost");
  if (cost == nullptr || !cost->is_object()) {
    report.add(InvariantCode::artifact_format, path, "missing object field 'cost'");
  } else {
    const Json::Object& c = cost->as_object();
    result.cost.vm_time = json_number(c, "vm_time", path + " cost", report);
    result.cost.vm_setup = json_number(c, "vm_setup", path + " cost", report);
    result.cost.dc_time = json_number(c, "dc_time", path + " cost", report);
    result.cost.dc_transfer = json_number(c, "dc_transfer", path + " cost", report);
    const double total = json_number(c, "total", path + " cost", report);
    ++report.checks_run;
    if (!check::money_close(total, result.cost.total()))
      report.add(InvariantCode::artifact_format, path,
                 "cost.total does not equal the sum of its components", result.cost.total(),
                 total);
  }

  ++report.checks_run;
  const Json* transfers = object.find("transfers");
  if (transfers == nullptr || !transfers->is_object()) {
    report.add(InvariantCode::artifact_format, path, "missing object field 'transfers'");
  } else {
    const Json::Object& t = transfers->as_object();
    result.transfers.count = json_count(t, "count", path + " transfers", report);
    result.transfers.bytes = json_number(t, "bytes", path + " transfers", report);
    result.transfers.peak_concurrent =
        json_count(t, "peak_concurrent", path + " transfers", report);
  }

  ++report.checks_run;
  const Json* faults = object.find("faults");
  if (faults == nullptr || !faults->is_object()) {
    report.add(InvariantCode::artifact_format, path, "missing object field 'faults'");
  } else {
    const Json::Object& f = faults->as_object();
    const std::string where = path + " faults";
    result.faults.boot_failures = json_count(f, "boot_failures", where, report);
    result.faults.crashes = json_count(f, "crashes", where, report);
    result.faults.transfer_failures = json_count(f, "transfer_failures", where, report);
    result.faults.transfer_aborts = json_count(f, "transfer_aborts", where, report);
    result.faults.task_reexecutions = json_count(f, "task_reexecutions", where, report);
    result.faults.failed_tasks = json_count(f, "failed_tasks", where, report);
    result.faults.wasted_compute = json_number(f, "wasted_compute", where, report);
    result.faults.recovery_cost = json_number(f, "recovery_cost", where, report);
    ++report.checks_run;
    const Json* degraded = f.find("degraded");
    if (degraded == nullptr || !degraded->is_bool())
      report.add(InvariantCode::artifact_format, where, "missing bool field 'degraded'");
    else
      result.faults.degraded = degraded->as_bool();
  }

  ++report.checks_run;
  const Json* success = object.find("success");
  if (success == nullptr || !success->is_bool())
    report.add(InvariantCode::artifact_format, path, "missing bool field 'success'");
  else if (success->as_bool() != (result.faults.failed_tasks == 0))
    report.add(InvariantCode::artifact_format, path,
               "'success' contradicts faults.failed_tasks", result.faults.failed_tasks == 0,
               success->as_bool());
}

// ---- tasks.csv / vms.csv ----------------------------------------------------

void read_task_trace(const std::string& text, const std::string& path, const dag::Workflow& wf,
                     sim::SimResult& result, CheckReport& report) {
  const auto rows = parse_csv(text);
  if (!check_header(rows,
                    {"task", "vm", "start", "finish", "duration", "inputs_at_dc", "bound_by",
                     "restarts", "failed"},
                    path, report))
    return;
  result.tasks.assign(wf.task_count(), sim::TaskRecord{});
  std::vector<bool> seen(wf.task_count(), false);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
    const std::string where = path + " row " + std::to_string(i);
    ++report.checks_run;
    if (row.size() != 9) {
      report.add(InvariantCode::artifact_format, where, "expected 9 fields", 9,
                 static_cast<double>(row.size()));
      continue;
    }
    ++report.checks_run;
    const dag::TaskId task = wf.find_task(row[0]);
    if (task == dag::invalid_task) {
      report.add(InvariantCode::artifact_format, where,
                 "task '" + row[0] + "' is not in workflow '" + wf.name() + "'");
      continue;
    }
    ++report.checks_run;
    if (seen[task]) {
      report.add(InvariantCode::artifact_format, where, "task '" + row[0] + "' listed twice");
      continue;
    }
    seen[task] = true;
    sim::TaskRecord& record = result.tasks[task];
    double vm = 0;
    if (parse_number(row[1], where + " vm", report, vm))
      record.vm = vm >= static_cast<double>(sim::invalid_vm) ? sim::invalid_vm
                                                             : static_cast<sim::VmId>(vm);
    double duration = 0;
    parse_number(row[2], where + " start", report, record.start);
    parse_number(row[3], where + " finish", report, record.finish);
    parse_number(row[4], where + " duration", report, duration);
    parse_number(row[5], where + " inputs_at_dc", report, record.inputs_at_dc);
    ++report.checks_run;
    if (std::abs(duration - (record.finish - record.start)) > 1e-6)
      report.add(InvariantCode::artifact_format, where, "duration != finish - start",
                 record.finish - record.start, duration);
    ++report.checks_run;
    if (row[6] == "-") {
      record.bound_by = dag::invalid_task;
    } else {
      record.bound_by = wf.find_task(row[6]);
      if (record.bound_by == dag::invalid_task)
        report.add(InvariantCode::artifact_format, where,
                   "bound_by task '" + row[6] + "' is not in the workflow");
    }
    parse_count(row[7], where + " restarts", report, record.restarts);
    parse_flag(row[8], where + " failed", report, record.failed);
  }
  ++report.checks_run;
  const auto missing = static_cast<std::size_t>(std::count(seen.begin(), seen.end(), false));
  if (missing > 0)
    report.add(InvariantCode::artifact_format, path,
               std::to_string(missing) + " workflow task(s) have no row",
               static_cast<double>(wf.task_count()),
               static_cast<double>(wf.task_count() - missing));
}

void read_vm_trace(const std::string& text, const std::string& path, sim::SimResult& result,
                   CheckReport& report) {
  const auto rows = parse_csv(text);
  if (!check_header(rows,
                    {"vm", "category", "boot_request", "boot_done", "end", "busy", "tasks",
                     "utilization", "boot_attempts", "crashed", "recovery", "billed"},
                    path, report))
    return;
  // The writer skips never-provisioned idle VMs, so absent ids get a default
  // (unbilled, empty) record; the result vector must still span every id a
  // task row referenced.
  std::size_t vm_span = 0;
  for (const sim::TaskRecord& record : result.tasks)
    if (record.vm != sim::invalid_vm)
      vm_span = std::max(vm_span, static_cast<std::size_t>(record.vm) + 1);
  std::vector<bool> present;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
    const std::string where = path + " row " + std::to_string(i);
    ++report.checks_run;
    if (row.size() != 12) {
      report.add(InvariantCode::artifact_format, where, "expected 12 fields", 12,
                 static_cast<double>(row.size()));
      continue;
    }
    std::size_t vm = 0;
    if (!parse_count(row[0], where + " vm", report, vm)) continue;
    if (vm >= result.vms.size()) result.vms.resize(vm + 1);
    if (vm >= present.size()) present.resize(vm + 1, false);
    ++report.checks_run;
    if (present[vm]) {
      report.add(InvariantCode::artifact_format, where,
                 "vm " + std::to_string(vm) + " listed twice");
      continue;
    }
    present[vm] = true;
    sim::VmRecord& record = result.vms[vm];
    std::size_t category = 0;
    if (parse_count(row[1], where + " category", report, category))
      record.category = static_cast<platform::CategoryId>(category);
    parse_number(row[2], where + " boot_request", report, record.boot_request);
    parse_number(row[3], where + " boot_done", report, record.boot_done);
    parse_number(row[4], where + " end", report, record.end);
    parse_number(row[5], where + " busy", report, record.busy);
    parse_count(row[6], where + " tasks", report, record.task_count);
    double utilization = 0;
    parse_number(row[7], where + " utilization", report, utilization);
    parse_count(row[8], where + " boot_attempts", report, record.boot_attempts);
    parse_flag(row[9], where + " crashed", report, record.crashed);
    parse_flag(row[10], where + " recovery", report, record.recovery);
    parse_flag(row[11], where + " billed", report, record.billed);
    ++report.checks_run;
    if (std::abs(utilization - sim::vm_utilization(record)) > 1e-6)
      report.add(InvariantCode::artifact_format, where,
                 "utilization does not match busy / (end - boot_done)",
                 sim::vm_utilization(record), utilization);
  }
  if (result.vms.size() < vm_span) result.vms.resize(vm_span);
  // A VM some task ran on must have a row: its boot/billing columns are what
  // the precedence and boot-window invariants are checked against.
  for (std::size_t t = 0; t < result.tasks.size(); ++t) {
    const sim::TaskRecord& record = result.tasks[t];
    if (record.vm == sim::invalid_vm) continue;
    ++report.checks_run;
    if (record.vm >= present.size() || !present[record.vm])
      report.add(InvariantCode::artifact_format, path,
                 "vm " + std::to_string(record.vm) + " hosts task " + std::to_string(t) +
                     " but has no row");
  }
}

// ---- commands ---------------------------------------------------------------

CheckReport lint_run(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "workflow file"), args.get_double("sigma", 0.5));
  const platform::Platform cloud = make_platform(args);
  const std::filesystem::path dir = args.get("trace-dir", ".");
  const std::string tasks_path = args.get("tasks", (dir / "tasks.csv").string());
  const std::string vms_path = args.get("vms", (dir / "vms.csv").string());
  const std::string summary_path = args.get("summary", (dir / "summary.json").string());

  CheckReport report;
  sim::SimResult result;
  read_task_trace(read_file(tasks_path), tasks_path, wf, result, report);
  read_vm_trace(read_file(vms_path), vms_path, result, report);
  read_summary(read_file(summary_path), summary_path, result, report);
  // A malformed artifact makes the reconstruction meaningless; report the
  // format problems alone instead of piling on spurious invariant noise.
  if (!report.ok()) return report;

  check::CheckOptions options;
  options.budget = args.get_double("budget", 0.0);
  report.merge(check::InvariantChecker(wf, cloud).check(result, options));
  return report;
}

CheckReport lint_schedule(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "workflow file"), args.get_double("sigma", 0.5));
  const platform::Platform cloud = make_platform(args);
  const std::string path = args.positional_at(1, "schedule file");
  const std::string text = read_file(path);

  CheckReport report;
  ++report.checks_run;
  Json root;
  try {
    root = Json::parse(text);
  } catch (const Error& error) {
    report.add(InvariantCode::artifact_format, path, error.what());
    return report;
  }
  ++report.checks_run;
  try {
    const sim::Schedule schedule = sim::schedule_from_json(root, wf);
    ++report.checks_run;
    try {
      schedule.validate(wf, cloud);
    } catch (const Error& error) {
      report.add(InvariantCode::schedule_structure, path, error.what());
    }
  } catch (const Error& error) {
    report.add(InvariantCode::artifact_format, path, error.what());
    return report;
  }
  // Provenance: the loader deliberately ignores the workflow name; the
  // linter is the place to be strict about it.
  ++report.checks_run;
  const Json* name = root.as_object().find("workflow");
  if (name == nullptr || !name->is_string())
    report.add(InvariantCode::artifact_format, path, "missing string field 'workflow'");
  else if (name->as_string() != wf.name())
    report.add(InvariantCode::artifact_format, path,
               "schedule was computed for workflow '" + name->as_string() + "', not '" +
                   wf.name() + "'");
  return report;
}

CheckReport lint_events(const cli::Args& args) {
  const std::string path = args.positional_at(0, "trace file");
  CheckReport report;
  ++report.checks_run;
  Json root;
  try {
    root = Json::parse(read_file(path));
  } catch (const Error& error) {
    report.add(InvariantCode::artifact_format, path, error.what());
    return report;
  }
  ++report.checks_run;
  if (!root.is_object() || !root.as_object().contains("traceEvents") ||
      !root.at("traceEvents").is_array()) {
    report.add(InvariantCode::artifact_format, path, "root must have a 'traceEvents' array");
    return report;
  }
  const Json::Array& records = root.at("traceEvents").as_array();

  // Chrome trace tid 0 is the scheduler's decision-index lane; every other
  // track carries simulation time.  Slices are written as ts = end - dur, so
  // the emission-order invariant is on ts + dur ("X") / ts ("i"): it must be
  // non-decreasing per timeline, mirroring check_events() on the live bus —
  // including the single allowed rewind into the finalize epilogue of
  // billing_tick / vm_shutdown records.
  double last_sim_us = -std::numeric_limits<double>::infinity();
  double last_sched_us = -std::numeric_limits<double>::infinity();
  bool epilogue = false;
  double run_end_us = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string where = path + " record " + std::to_string(i);
    ++report.checks_run;
    if (!records[i].is_object()) {
      report.add(InvariantCode::artifact_format, where, "trace record must be an object");
      continue;
    }
    const Json::Object& record = records[i].as_object();
    const Json* ph = record.find("ph");
    ++report.checks_run;
    if (ph == nullptr || !ph->is_string()) {
      report.add(InvariantCode::artifact_format, where, "missing string field 'ph'");
      continue;
    }
    if (ph->as_string() == "M") continue;  // metadata carries no timestamp
    ++report.checks_run;
    if (ph->as_string() != "X" && ph->as_string() != "i") {
      report.add(InvariantCode::artifact_format, where,
                 "unexpected phase '" + ph->as_string() + "' (cloudwf emits M, X, i)");
      continue;
    }
    const double ts = json_number(record, "ts", where, report);
    const double tid = json_number(record, "tid", where, report);
    double dur = 0;
    if (ph->as_string() == "X") {
      dur = json_number(record, "dur", where, report);
      ++report.checks_run;
      if (dur < 0)
        report.add(InvariantCode::record_range, where, "negative slice duration", 0, dur);
    }
    ++report.checks_run;
    if (!std::isfinite(ts) || ts < -1e-3)
      report.add(InvariantCode::record_range, where, "negative or non-finite timestamp", 0, ts);
    const double event_us = ts + dur;
    if (tid == 0) {
      ++report.checks_run;
      if (event_us < last_sched_us)
        report.add(InvariantCode::event_order, where,
                   "scheduler decision index went backwards", last_sched_us, event_us);
      last_sched_us = std::max(last_sched_us, event_us);
    } else {
      std::string kind;
      const Json* trace_args = record.find("args");
      if (trace_args != nullptr && trace_args->is_object()) {
        const Json* value = trace_args->as_object().find("kind");
        if (value != nullptr && value->is_string()) kind = value->as_string();
      }
      ++report.checks_run;
      if (kind.empty()) {
        report.add(InvariantCode::artifact_format, where, "missing string field 'args.kind'");
        continue;
      }
      // 1 us slack everywhere below: timestamps round-trip through decimal
      // microseconds.
      const bool tail_kind = kind == "billing_tick" || kind == "vm_shutdown";
      if (!epilogue && tail_kind && event_us < last_sim_us - 1.0) {
        epilogue = true;
        run_end_us = last_sim_us;
        last_sim_us = -std::numeric_limits<double>::infinity();
      }
      if (epilogue) {
        ++report.checks_run;
        if (!tail_kind)
          report.add(InvariantCode::event_order, where,
                     "non-billing event after the finalize epilogue began");
        ++report.checks_run;
        if (event_us > run_end_us + 1.0)
          report.add(InvariantCode::event_order, where,
                     "epilogue event after the run's last timestamp", run_end_us, event_us);
      }
      ++report.checks_run;
      if (event_us < last_sim_us - 1.0)
        report.add(InvariantCode::event_order, where,
                   "simulation-time event went backwards (EventSink contract)", last_sim_us,
                   event_us);
      last_sim_us = std::max(last_sim_us, event_us);
    }
  }
  return report;
}

CheckReport lint_checkpoint(const cli::Args& args) {
  const std::string path = args.positional_at(0, "journal file");
  const std::string text = read_file(path);
  CheckReport report;
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  std::unordered_set<std::string> fingerprints;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::string where = path + " line " + std::to_string(i + 1);
    const bool last = i + 1 == lines.size();
    ++report.checks_run;
    Json record;
    try {
      record = Json::parse(lines[i]);
    } catch (const Error& error) {
      // A torn final line is the expected signature of a mid-write crash;
      // CheckpointJournal skips it on resume, so the linter tolerates it too
      // unless asked to be strict.
      if (!last || args.has("strict"))
        report.add(InvariantCode::artifact_format, where, error.what());
      continue;
    }
    ++report.checks_run;
    if (!record.is_object() || !record.as_object().contains("fp") ||
        !record.at("fp").is_string() || !record.as_object().contains("result")) {
      report.add(InvariantCode::artifact_format, where,
                 "journal line must be {\"fp\": string, \"result\": object}");
      continue;
    }
    const std::string& fp = record.at("fp").as_string();
    ++report.checks_run;
    if (!fingerprints.insert(fp).second)
      report.add(InvariantCode::artifact_format, where,
                 "duplicate fingerprint '" + fp + "' (same cell journaled twice)");
    ++report.checks_run;
    try {
      (void)exp::eval_result_from_json(record.at("result"));
    } catch (const Error& error) {
      report.add(InvariantCode::artifact_format, where,
                 std::string("result does not replay: ") + error.what());
    }
  }
  return report;
}

CheckReport lint_summary(const cli::Args& args) {
  const std::string path = args.positional_at(0, "summary file");
  CheckReport report;
  sim::SimResult result;
  read_summary(read_file(path), path, result, report);
  if (!report.ok()) return report;
  // Without the CSVs only the summary's internal identities are checkable.
  ++report.checks_run;
  if (std::abs(result.makespan - (result.end_last - result.start_first)) > 1e-6)
    report.add(InvariantCode::makespan_identity, path,
               "makespan != end_last - start_first (Eq. 3)",
               result.end_last - result.start_first, result.makespan);
  for (const double value :
       {result.makespan, result.cost.vm_time, result.cost.vm_setup, result.cost.dc_time,
        result.cost.dc_transfer, result.transfers.bytes}) {
    ++report.checks_run;
    if (!std::isfinite(value) || value < 0) {
      report.add(InvariantCode::record_range, path, "negative or non-finite summary field", 0,
                 value);
    }
  }
  return report;
}

int dispatch(const cli::Args& args) {
  const std::string& command = args.command();
  CheckReport report;
  if (command == "run")
    report = lint_run(args);
  else if (command == "schedule")
    report = lint_schedule(args);
  else if (command == "events")
    report = lint_events(args);
  else if (command == "checkpoint")
    report = lint_checkpoint(args);
  else if (command == "summary")
    report = lint_summary(args);
  else {
    std::cerr << "unknown command '" << command << "'\n\n" << usage;
    return 2;
  }

  if (args.has("report")) {
    const std::string out = args.get("report", "violations.json");
    write_file_atomic(out, report.to_json().dump(2) + "\n");
    std::cerr << "wrote " << out << '\n';
  }
  if (!report.ok()) {
    std::cout << report.text() << '\n';
    return 1;
  }
  std::cout << "OK: " << report.checks_run << " checks passed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const cli::Args args(argc, argv, {"help", "strict"});
  if (args.command().empty() || args.command() == "help" || args.has("help")) {
    std::cout << usage;
    return 0;
  }
  return dispatch(args);
} catch (const std::exception& error) {
  std::cerr << "cloudwf-lint: " << error.what() << '\n';
  return 2;
}
