/// \file ext_online_rescheduling.cpp
/// \brief Explores the paper's future-work proposal (Section VI): monitor
/// execution and re-schedule tasks whose duration exceeds a timeout onto
/// faster VMs.
///
/// For HEFTBUDG schedules at a tight budget (small-VM regime) and high
/// uncertainty (sigma = mu) we sweep the timeout threshold k (interrupt
/// beyond mu + k*sigma) and report mean makespan, tail (p95) makespan, extra
/// spend and migration counts against the offline baseline.
///
/// Expected shape — and the honest finding this bench documents: with the
/// paper's Gaussian weights, tails are thin (E[w | w > mu+2sigma] is barely
/// above the timeout), so restarting from scratch buys little mean makespan
/// and costs extra; the tail (p95) improves first.  The paper anticipates
/// exactly this risk: "such dynamic decisions encompass risks in terms of
/// both final makespan and budget".

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
  bench::print_scale_banner("Extended study: online re-scheduling (Section VI)");

  const auto cloud = platform::paper_platform();
  const std::size_t tasks = exp::full_mode() ? 90 : exp::quick_mode() ? 23 : 50;
  const std::size_t reps = exp::full_mode() ? 50 : 25;

  for (const pegasus::WorkflowType type : pegasus::all_types()) {
    const auto wf = pegasus::generate(type, {tasks, 3, 1.0});
    const auto levels = exp::compute_budget_levels(wf, cloud);
    const Dollars budget = 1.05 * levels.min_cost;
    const auto out = sched::make_scheduler("heft-budg")->schedule({wf, cloud, budget});
    sim::Simulator simulator(wf, cloud);

    TablePrinter table("online re-scheduling — " + std::string(pegasus::to_string(type)) +
                       " (" + std::to_string(tasks) + " tasks, sigma=mu, HEFTBUDG @ 1.05*min)");
    table.columns({"policy", "mean makespan (s)", "p95 makespan (s)", "mean spend ($)",
                   "migrations/run"});

    const auto evaluate_policy = [&](const std::string& label, const sim::RunOptions& options) {
      Summary makespan;
      Summary cost;
      double migrations = 0;
      const Rng base(4242);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Rng stream = base.fork(rep);
        const dag::WeightRealization weights = dag::sample_weights(wf, stream);
        const sim::SimResult r = simulator.run(out.schedule, weights, options);
        makespan.add(r.makespan);
        cost.add(r.total_cost());
        migrations += static_cast<double>(r.migrations);
      }
      table.row({label, TablePrinter::pm(makespan.mean(), makespan.stddev(), 0),
                 TablePrinter::num(makespan.quantile(0.95), 0),
                 TablePrinter::num(cost.mean(), 4),
                 TablePrinter::num(migrations / static_cast<double>(reps), 2)});
    };

    evaluate_policy("offline (paper)", {});
    for (const double k : {1.5, 2.0, 2.5, 3.0}) {
      sim::OnlinePolicy policy;
      policy.timeout_sigmas = k;
      policy.max_restarts = 1;
      evaluate_policy("timeout mu+" + TablePrinter::num(k, 1) + "*sigma", {.online = policy});
    }
    {
      // Budget-capped variant: migrations are vetoed once the projected
      // spend reaches 1.2x the budget.
      sim::OnlinePolicy policy;
      policy.budget_cap = 1.2 * budget;
      evaluate_policy("timeout mu+2.0*sigma, capped", {.online = policy});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
