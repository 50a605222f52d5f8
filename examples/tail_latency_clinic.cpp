/// \file tail_latency_clinic.cpp
/// \brief Demonstrates the online re-scheduling extension (paper Section VI)
/// on a workflow with one pathological task draw.
///
/// We generate a CYBERSHAKE instance, force one SeismogramSynthesis task's
/// weight deep into the tail of its distribution, and execute the same
/// HEFTBUDG schedule offline and online.  The example prints both timelines,
/// shows which task was interrupted and where it was re-run, and writes two
/// Gantt charts for visual comparison.
///
/// Usage: tail_latency_clinic [output_dir=.]

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/gantt.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) try {
  using namespace cloudwf;
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : ".";

  const platform::Platform cloud = platform::paper_platform();
  const dag::Workflow wf =
      pegasus::generate(pegasus::WorkflowType::cybershake, {30, 5, 1.0});

  // A tight budget keeps the schedule on slow VMs, where migration to the
  // fast category has room to help.
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);
  const Dollars budget = 1.05 * levels.min_cost;
  const auto out = sched::make_scheduler("heft-budg")->schedule({wf, cloud, budget});
  std::cout << "schedule: heft-budg under $" << budget << " — "
            << out.schedule.used_vm_count() << " VMs, predicted makespan "
            << out.predicted_makespan << " s\n";

  // Sample weights, then push one synthesis task 5 sigma into the tail.
  Rng rng(11);
  std::vector<Instructions> weights = dag::sample_weights(wf, rng).weights();
  const dag::TaskId victim = wf.find_task("SeismogramSynthesis_0");
  weights[victim] = wf.task(victim).mean_weight + 5.0 * wf.task(victim).weight_stddev;
  const dag::WeightRealization realization{std::move(weights)};
  std::cout << "injected tail draw: " << wf.task(victim).name << " at mu + 5 sigma\n\n";

  sim::Simulator simulator(wf, cloud);
  const sim::SimResult offline = simulator.run(out.schedule, realization);

  sim::OnlinePolicy policy;
  policy.timeout_sigmas = 2.0;
  policy.budget_cap = 1.5 * budget;  // allow some headroom for the rescue VM
  const sim::SimResult online = simulator.run(out.schedule, realization, {.online = policy});

  std::cout << "offline: makespan " << offline.makespan << " s, cost $"
            << offline.total_cost() << "\n"
            << "online : makespan " << online.makespan << " s, cost $" << online.total_cost()
            << " (" << online.migrations << " migration(s))\n";
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    if (online.tasks[t].restarts == 0) continue;
    std::cout << "  " << wf.task(t).name << " interrupted after "
              << policy.timeout_sigmas << " sigma of compute and re-run on vm"
              << online.tasks[t].vm << " ("
              << cloud.category(out.schedule.vm_count() <= online.tasks[t].vm
                                    ? cloud.fastest_category()
                                    : out.schedule.vm_category(online.tasks[t].vm))
                     .name
              << " category), finishing at " << online.tasks[t].finish << " s\n";
  }
  std::cout << "speedup: " << offline.makespan / online.makespan << "x for $"
            << online.total_cost() - offline.total_cost() << " extra\n\n";

  for (const auto& [label, result] : {std::pair<const char*, const sim::SimResult&>{
                                          "offline", offline},
                                      {"online", online}}) {
    const auto path = out_dir / (std::string("clinic_") + label + ".svg");
    std::ofstream svg(path);
    sim::GanttOptions options;
    options.title = std::string("tail-latency clinic — ") + label;
    sim::write_gantt_svg(wf, result, svg, options);
    std::cout << "wrote " << path.string() << '\n';
  }
  return EXIT_SUCCESS;
} catch (const std::exception& error) {
  std::cerr << "tail_latency_clinic failed: " << error.what() << '\n';
  return EXIT_FAILURE;
}
