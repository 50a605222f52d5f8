/// \file ext_billing_quantum.cpp
/// \brief Billing-granularity study: the paper's platform bills per second
/// ("The VM is paid for each used second"), which our model treats as
/// continuous.  This bench re-executes the same schedules under coarser
/// billing quanta — per-minute, per-10-minutes, and Amazon's historical
/// per-hour billing — to show how much of the paper's budget framework
/// depends on fine-grained billing.
///
/// Expected shapes: HEFT's many-VM schedules suffer most under hourly
/// billing (every VM pays a full hour); the budgeted variants lose their
/// feasibility guarantee because Algorithm 2's cost estimate assumes
/// per-second billing — quantifying how load-bearing the paper's
/// per-second assumption is.

#include <iostream>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cloudwf;

platform::Platform quantized_paper_platform(Seconds quantum) {
  return platform::PlatformBuilder("paper-table2-q" + std::to_string(quantum))
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, 1})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
      .boot_delay(100.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .billing_quantum(quantum)
      .build();
}

}  // namespace

int main() {
  bench::print_scale_banner("Extended study: billing granularity");

  const auto continuous = platform::paper_platform();
  const std::size_t tasks = exp::full_mode() ? 90 : exp::quick_mode() ? 24 : 60;
  const std::size_t reps = exp::full_mode() ? 25 : 10;

  for (const pegasus::WorkflowType type : pegasus::all_types()) {
    const auto wf = pegasus::generate(type, {tasks, 11, 0.5});
    const auto levels = exp::compute_budget_levels(wf, continuous);
    const Dollars budget = 1.5 * levels.min_cost;

    TablePrinter table("billing granularity — " + std::string(pegasus::to_string(type)) + " (" +
                       std::to_string(tasks) + " tasks) @ 1.5*min_cost");
    table.columns({"algorithm", "billing", "mean spend ($)", "spend vs continuous",
                   "valid fraction", "#VMs"});

    for (const std::string algorithm : {"heft", "heft-budg"}) {
      // Schedules are computed once against the continuous model (like the
      // paper's planner) and billed under each quantum.
      const auto out = sched::make_scheduler(algorithm)->schedule({wf, continuous, budget});
      double continuous_spend = 0;
      for (const Seconds quantum : {0.0, 60.0, 600.0, 3600.0}) {
        const platform::Platform platform =
            quantum == 0.0 ? continuous : quantized_paper_platform(quantum);
        sim::Simulator simulator(wf, platform);
        Accumulator cost;
        Accumulator valid;
        const Rng base(99);
        for (std::size_t rep = 0; rep < reps; ++rep) {
          Rng stream = base.fork(rep);
          const auto run = simulator.run(out.schedule, dag::sample_weights(wf, stream));
          cost.add(run.total_cost());
          valid.add(run.total_cost() <= budget + money_epsilon ? 1.0 : 0.0);
        }
        if (quantum == 0.0) continuous_spend = cost.mean();
        const std::string label = quantum == 0.0      ? "continuous (paper)"
                                  : quantum == 3600.0 ? "hourly"
                                                      : TablePrinter::num(quantum, 0) + " s";
        table.row({algorithm, label, TablePrinter::num(cost.mean(), 4),
                   TablePrinter::num(cost.mean() / continuous_spend, 2) + "x",
                   TablePrinter::pm(valid.mean(), valid.stddev(), 2),
                   std::to_string(out.schedule.used_vm_count())});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
