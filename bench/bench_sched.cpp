/// \file bench_sched.cpp
/// \brief The scheduler benchmark: planning-time gate, Table III and the
/// simulator's observability overhead, written to BENCH_sched.json.
///
/// One cell loop times `Scheduler::schedule()` (list pass, placement probes,
/// the conservative prediction and any refinement) over three cell sets:
///   - planning: every non-refining registry algorithm x the five Pegasus
///     families x {100, 1000} tasks at the medium budget;
///   - Table III(a): MONTAGE, every registry algorithm x the {low, medium,
///     high} budgets, at 60 tasks (90 with CLOUDWF_FULL, 30 with
///     CLOUDWF_QUICK);
///   - Table III(b): MONTAGE {30, 60, 90, 400} tasks ({30, 60} with
///     CLOUDWF_QUICK) x the six list algorithms at the high budget.
/// Every cell records its planning time and three deterministic work
/// counters: placement probes, simulations run and engine events.  The
/// stdout rows of the Table III cells are the paper's Table III report.
///
/// The output file is the perf gate's baseline: CI re-runs this binary and
/// scripts/check_bench_regression.py compares the fresh numbers against the
/// committed BENCH_sched.json.  Only the planning cells (`entries`) have
/// their times gated; Table III cells (`table3`) are kept apart because most
/// take well under the checker's 1 ms floor and the refining ones take a
/// single sample, but their counters are gated like every other cell's.
/// Absolute milliseconds are machine-dependent, so the file also records a
/// `calibration_ms` — the time of a fixed CPU-bound FNV-1a hashing loop —
/// and the checker scales the baseline by the ratio of the two calibrations.
///
/// The `sim` section times one 1000-task CYBERSHAKE simulation with no
/// event bus, with a bus but no sinks, and with a counting sink, and
/// records the overhead of the latter two: a bus nobody listens to must
/// cost under 2% (DESIGN.md §10).  It also records `allocs_per_run`, the
/// heap allocations of one more run on the warmed-up bus-less Simulator
/// (counted like tests/integration/test_alloc_budget.cpp does), which the
/// checker gates like the cell counters.
///
/// Usage: bench_sched [output.json]   (default: BENCH_sched.json in the
/// working directory).  CLOUDWF_QUICK shrinks the planning matrix to
/// 100-task instances with a single sample per cell.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "obs/event_bus.hpp"
#include "pegasus/generator.hpp"
#include "sched/eft.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cloudwf;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Median of \p samples (destructive).
double median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Fixed CPU-bound reference workload: FNV-1a over a pseudo-random buffer.
/// Its wall time calibrates this machine against the one that produced the
/// committed baseline, so the regression gate compares ratios, not
/// absolute milliseconds.
double calibration_ms() {
  std::vector<std::uint8_t> buffer(1 << 16);
  std::uint32_t state = 0x9E3779B9u;
  for (std::uint8_t& byte : buffer) {
    state = state * 1664525u + 1013904223u;  // LCG; deterministic filler
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  volatile std::uint64_t sink = 0;  // keeps the loop observable
  std::vector<double> times;
  for (int sample = 0; sample < 5; ++sample) {
    const auto start = Clock::now();
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (int round = 0; round < 400; ++round)
      for (const std::uint8_t byte : buffer) {
        hash ^= byte;
        hash *= 0x100000001B3ULL;
      }
    sink = sink + hash;
    times.push_back(elapsed_ms(start));
  }
  return median(times);
}

/// Simulations and engine events, counted by the post-run hook.
struct SimCounts {
  std::size_t runs = 0;
  std::size_t events = 0;
};
SimCounts sim_counts;

void count_run(const dag::Workflow& /*wf*/, const platform::Platform& /*platform*/,
               const sim::Schedule& /*schedule*/, const sim::SimResult& result) {
  ++sim_counts.runs;
  sim_counts.events += result.events_processed;
}

/// One benchmark cell and, once measured, its results.
struct Cell {
  std::string table;  ///< "plan" (timing-gated), "3a" or "3b"
  std::string algorithm;
  pegasus::WorkflowType type = pegasus::WorkflowType::montage;
  std::size_t tasks = 0;
  std::string budget;  ///< "low", "medium" or "high"
  bool refining = false;

  std::size_t samples = 0;
  double plan_ms = 0;  ///< minimum over the samples
  std::size_t probes = 0;
  std::size_t sims = 0;
  std::size_t events = 0;
};

/// A generated workflow and its characteristic budgets, shared by the
/// cells that use the same (family, size).
struct Instance {
  dag::Workflow wf;
  exp::BudgetLevels levels;
};

Dollars budget_of(const exp::BudgetLevels& levels, const std::string& level) {
  if (level == "low") return levels.low;
  if (level == "high") return levels.high;
  return levels.medium;
}

/// Times \p cell: the minimum of \p samples runs after a warm-up run.
/// Refining cells take up to seconds and their times are report-only, so
/// they get one cold sample.  The counters come from the last sample; they are
/// deterministic, so every sample gives the same counts.
void measure(Cell& cell, const Instance& instance, const platform::Platform& platform,
             std::size_t samples, double& sink) {
  const auto scheduler = sched::make_scheduler(cell.algorithm);
  const sched::SchedulerInput input =
      sched::make_input(instance.wf, platform, budget_of(instance.levels, cell.budget));
  cell.samples = cell.refining ? 1 : samples;
  if (!cell.refining) sink += scheduler->schedule(input).predicted_makespan;
  for (std::size_t s = 0; s < cell.samples; ++s) {
    const std::size_t probes_before = sched::probe_count();
    const SimCounts sims_before = sim_counts;
    const auto start = Clock::now();
    sink += scheduler->schedule(input).predicted_makespan;
    const double ms = elapsed_ms(start);
    cell.plan_ms = s == 0 ? ms : std::min(cell.plan_ms, ms);
    cell.probes = sched::probe_count() - probes_before;
    cell.sims = sim_counts.runs - sims_before.runs;
    cell.events = sim_counts.events - sims_before.events;
  }
}

void print_cell_header(const std::string& title) {
  std::cout << "\n" << title << "\n"
            << std::left << std::setw(20) << "algorithm" << std::setw(13) << "family"
            << std::right << std::setw(6) << "tasks" << std::setw(8) << "budget"
            << std::setw(12) << "plan_ms" << std::setw(10) << "probes" << std::setw(8)
            << "sims" << std::setw(11) << "events" << "\n";
}

void print_cell(const Cell& cell) {
  std::cout << std::left << std::setw(20) << cell.algorithm << std::setw(13)
            << pegasus::to_string(cell.type) << std::right << std::setw(6) << cell.tasks
            << std::setw(8) << cell.budget << std::setw(12) << cell.plan_ms << std::setw(10)
            << cell.probes << std::setw(8) << cell.sims << std::setw(11) << cell.events << "\n";
}

Json cell_json(const Cell& cell) {
  Json::Object row;
  if (cell.table != "plan") row["table"] = cell.table;
  row["algorithm"] = cell.algorithm;
  row["family"] = std::string(pegasus::to_string(cell.type));
  row["tasks"] = cell.tasks;
  if (cell.table != "plan") {
    row["budget"] = cell.budget;
    row["samples"] = cell.samples;
  }
  row["plan_ms"] = cell.plan_ms;
  row["probes"] = cell.probes;
  row["sims"] = cell.sims;
  row["events"] = cell.events;
  return Json(std::move(row));
}

/// Observability overhead of the simulator: one heft-budg schedule of a
/// CYBERSHAKE workflow, simulated with no bus, with a bus but no sinks and
/// with a counting sink.  Samples interleave the three configurations
/// round-robin so slow drift of the machine (frequency scaling,
/// co-tenants) hits all of them alike; each takes the median.
Json sim_section(const platform::Platform& platform, double& sink) {
  constexpr std::size_t runs_per_sample = 3;
  const std::size_t tasks = exp::quick_mode() ? 200 : 1000;
  const std::size_t samples = exp::quick_mode() ? 7 : 15;
  const dag::Workflow wf =
      pegasus::generate(pegasus::WorkflowType::cybershake, {tasks, 42, 0.5});
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const sim::Schedule schedule =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, budget}).schedule;
  Rng rng(7);
  const dag::WeightRealization weights = dag::sample_weights(wf, rng);

  sim::Simulator baseline_sim(wf, platform);  // no bus at all
  obs::EventBus disabled_bus;                 // bus, no sinks
  sim::Simulator disabled_sim(wf, platform, &disabled_bus);
  obs::EventBus enabled_bus;
  obs::CountingSink counter;
  enabled_bus.add_sink(&counter);
  sim::Simulator enabled_sim(wf, platform, &enabled_bus);

  const auto one_sample = [&](sim::Simulator& simulator) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < runs_per_sample; ++r)
      sink += simulator.run(schedule, weights).makespan;
    return elapsed_ms(start);
  };
  // Warm-up: fault in code/data and let the allocator settle.
  (void)one_sample(baseline_sim);
  (void)one_sample(enabled_sim);
  std::vector<double> baseline_times, disabled_times, enabled_times;
  for (std::size_t s = 0; s < samples; ++s) {
    baseline_times.push_back(one_sample(baseline_sim));
    disabled_times.push_back(one_sample(disabled_sim));
    enabled_times.push_back(one_sample(enabled_sim));
  }
  const double t_baseline = median(baseline_times);
  const double overhead_disabled = 100.0 * (median(disabled_times) / t_baseline - 1.0);
  const double overhead_enabled = 100.0 * (median(enabled_times) / t_baseline - 1.0);
  const double runs_per_sec = static_cast<double>(runs_per_sample) * 1e3 / t_baseline;
  std::size_t events = 0;
  const std::size_t allocs_per_run = alloc_counter::allocations_of(
      [&] { events = baseline_sim.run(schedule, weights).events_processed; });
  const double events_per_sec = runs_per_sec * static_cast<double>(events);

  std::cout << "\nsimulator (cybershake, " << tasks << " tasks, heft-budg; median of "
            << samples << " samples of " << runs_per_sample << " runs)\n"
            << "runs/s              : " << runs_per_sec << "\n"
            << "events/s            : " << events_per_sec << "\n"
            << "allocations/run     : " << allocs_per_run << "\n"
            << "bus, no sinks       : " << overhead_disabled << "% overhead\n"
            << "bus + counting sink : " << overhead_enabled << "% overhead\n";

  Json::Object section;
  section["workflow"] = std::string("cybershake");
  section["tasks"] = tasks;
  section["algorithm"] = std::string("heft-budg");
  section["runs_per_sample"] = runs_per_sample;
  section["samples"] = samples;
  section["runs_per_sec"] = runs_per_sec;
  section["events_per_sec"] = events_per_sec;
  section["overhead_disabled_pct"] = overhead_disabled;
  section["overhead_enabled_pct"] = overhead_enabled;
  section["allocs_per_run"] = allocs_per_run;
  return Json(std::move(section));
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_scale_banner("bench_sched — scheduler planning time, Table III, simulator");
  const std::string output_path = argc > 1 ? argv[1] : "BENCH_sched.json";

  const bool quick = exp::quick_mode();
  const std::size_t samples = quick ? 1 : 5;
  const platform::Platform platform = platform::paper_platform();

  // Refining algorithms resimulate the whole schedule per probe; their cost
  // is dominated by the simulator, not the planning kernel the timing gate
  // watches, so they join only the Table III(a) cells.
  const auto registry = sched::scheduler_registry();
  const std::vector<std::size_t> plan_sizes =
      quick ? std::vector<std::size_t>{100} : std::vector<std::size_t>{100, 1000};
  const std::size_t table3a_tasks = exp::full_mode() ? 90 : quick ? 30 : 60;
  const std::vector<std::size_t> table3b_sizes =
      quick ? std::vector<std::size_t>{30, 60} : std::vector<std::size_t>{30, 60, 90, 400};
  const pegasus::WorkflowType montage = pegasus::WorkflowType::montage;
  std::vector<Cell> cells;
  for (const pegasus::WorkflowType type : pegasus::extended_types())
    for (const std::size_t tasks : plan_sizes)
      for (const sched::SchedulerInfo& info : registry)
        if (!info.refining)
          cells.push_back({"plan", std::string(info.name), type, tasks, "medium", false});
  for (const sched::SchedulerInfo& info : registry)
    for (const char* level : {"low", "medium", "high"})
      cells.push_back({"3a", std::string(info.name), montage, table3a_tasks, level, info.refining});
  for (const sched::SchedulerInfo& info : registry)
    if (!info.refining)
      for (const std::size_t tasks : table3b_sizes)
        cells.push_back({"3b", std::string(info.name), montage, tasks, "high", false});

  const double cal_ms = calibration_ms();
  std::cout << std::fixed << std::setprecision(3)
            << "calibration (FNV loop) : " << cal_ms << " ms\n"
            << "samples per cell       : " << samples
            << " (minimum; refining cells: 1, no warm-up)\n";

  std::map<std::pair<pegasus::WorkflowType, std::size_t>, Instance> instances;
  const std::map<std::string, std::string> titles{
      {"plan", "planning cells (timing gate)"},
      {"3a", "Table III(a) — CPU time vs budget"},
      {"3b", "Table III(b) — CPU time vs task count, high budget"}};
  double sink = 0;  // keeps the schedules and runs observable
  sim::set_post_run_check(&count_run);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell& cell = cells[i];
    const std::pair key{cell.type, cell.tasks};
    auto found = instances.find(key);
    if (found == instances.end()) {
      dag::Workflow wf = pegasus::generate(cell.type, {cell.tasks, 1, 0.5});
      const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
      found = instances.emplace(key, Instance{std::move(wf), levels}).first;
    }
    measure(cell, found->second, platform, samples, sink);
    if (i == 0 || cells[i - 1].table != cell.table) print_cell_header(titles.at(cell.table));
    print_cell(cell);
  }
  sim::set_post_run_check(nullptr);

  Json::Object doc;
  doc["schema"] = std::string("cloudwf-bench-sched-v1");
  doc["benchmark"] = std::string("bench_sched");
  doc["quick"] = quick;
  doc["samples"] = samples;
  doc["calibration_ms"] = cal_ms;
  Json::Array planning;
  Json::Array table3;
  for (const Cell& cell : cells)
    (cell.table == "plan" ? planning : table3).push_back(cell_json(cell));
  doc["entries"] = std::move(planning);
  doc["table3"] = std::move(table3);
  doc["sim"] = sim_section(platform, sink);
  write_file_atomic(output_path, Json(std::move(doc)).dump(2) + "\n");
  std::cout << "\nwrote " << output_path << "  (sink=" << sink << ")\n";
  return 0;
}
