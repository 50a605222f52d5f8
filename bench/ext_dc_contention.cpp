/// \file ext_dc_contention.cpp
/// \brief Reproduces the LIGO anomaly of Section V-B: near the minimum
/// budget, LIGO's many concurrent huge transfers saturate the datacenter,
/// so actual executions exceed the conservative estimates and can overrun
/// the budget — the one place the paper's simulations violated B_ini.
///
/// We execute HEFTBUDG schedules (planned with the uncontended model) on
/// platforms whose aggregate datacenter bandwidth is a small multiple of a
/// single VM link, and report makespan inflation and validity per family.
///
/// Expected shapes: LIGO suffers the largest inflation and validity drop
/// (parallel 30 MB inputs + one 3.6 GB input); MONTAGE/CYBERSHAKE are less
/// affected at the same aggregate factor.

#include <iostream>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Extended study: datacenter contention");

  const auto open = platform::paper_platform();
  const std::size_t tasks = exp::full_mode() ? 90 : exp::quick_mode() ? 30 : 60;
  const std::size_t reps = exp::full_mode() ? 25 : 10;
  // Data sizes scaled x16: emulates the paper's SimGrid setting (Table II's
  // literal 125 Mbps is 8x less than our 125 MB/s links) plus denser LIGO
  // frame data — the regime where its parallel huge transfers saturate the
  // datacenter (DESIGN.md Section 5).
  const double data_scale = 16.0;

  for (const pegasus::WorkflowType type : pegasus::all_types()) {
    const auto wf =
        dag::with_scaled_data(pegasus::generate(type, {tasks, 7, 0.5}), data_scale);
    const exp::BudgetLevels levels = exp::compute_budget_levels(wf, open);
    // Budget slightly above minimum: the regime where the paper observed
    // LIGO overruns.
    const Dollars budget = 1.1 * levels.min_cost;
    const auto out = sched::make_scheduler("heft-budg")->schedule({wf, open, budget});

    TablePrinter table("datacenter contention — " + std::string(pegasus::to_string(type)) +
                       " (" + std::to_string(tasks) + " tasks), HEFTBUDG @ 1.1*min_cost");
    table.columns({"aggregate DC bandwidth", "mean makespan (s)", "makespan inflation",
                   "valid fraction", "peak concurrent flows"});

    double open_makespan = 0;
    for (const double factor : {0.0, 8.0, 4.0, 2.0, 1.0}) {  // 0 = unlimited
      const platform::Platform platform =
          factor == 0.0 ? open : platform::paper_platform_with_contention(factor);
      sim::Simulator simulator(wf, platform);
      Accumulator makespan;
      Accumulator valid;
      std::size_t peak = 0;
      const Rng base(2024);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Rng stream = base.fork(rep);
        const auto run = simulator.run(out.schedule, dag::sample_weights(wf, stream));
        makespan.add(run.makespan);
        valid.add(run.total_cost() <= budget + money_epsilon ? 1.0 : 0.0);
        peak = std::max(peak, run.transfers.peak_concurrent);
      }
      if (factor == 0.0) open_makespan = makespan.mean();
      table.row({factor == 0.0 ? "unlimited (paper model)"
                               : TablePrinter::num(factor, 0) + "x one VM link",
                 TablePrinter::pm(makespan.mean(), makespan.stddev(), 1),
                 TablePrinter::num(makespan.mean() / open_makespan, 3) + "x",
                 TablePrinter::pm(valid.mean(), valid.stddev(), 3),
                 std::to_string(peak)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
