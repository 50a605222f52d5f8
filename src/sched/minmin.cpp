#include "sched/minmin.hpp"

#include <vector>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sched/best_host.hpp"
#include "sched/budget.hpp"
#include "sched/plan.hpp"
#include "sched/refine.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

sim::Schedule MinMinScheduler::run_list_pass(const SchedulerInput& input, bool budget_aware,
                                             std::vector<dag::TaskId>& order_out) {
  const dag::Workflow& wf = input.wf;
  require(wf.frozen(), "MinMinScheduler: workflow must be frozen");
  const obs::ProfileScope profile("sched.plan");
  const bool trace = input.bus != nullptr && input.bus->enabled();

  BudgetShares shares;
  if (budget_aware) {
    shares = input.plan != nullptr ? divide_budget(input.plan->budget_model, input.budget)
                                   : divide_budget(wf, input.platform, input.budget);
  }
  Dollars pot = 0;

  sim::Schedule schedule(wf.task_count());
  EftState state(wf, input.platform);
  order_out.clear();
  order_out.reserve(wf.task_count());

  // Ready set maintenance.  `table` memoizes every ready task's estimate on
  // every candidate host, row-aligned with `ready`; a committed placement
  // only changes the availability of the VM it landed on (and never the
  // inputs of an already-ready task — the committed task cannot be its
  // predecessor), so each round re-probes one column instead of the full
  // (ready x hosts) cross product.  The budget cap does change every round
  // through the pot, but it only affects selection, not the estimates;
  // each row's tournament tree answers it in O(log hosts).
  std::vector<std::size_t> pending(wf.task_count());
  std::vector<dag::TaskId> ready;
  BestHostTable table(input.platform.category_count());
  std::vector<PlacementEstimate> probed;
  const auto add_ready = [&](dag::TaskId task) {
    const std::span<const HostCandidate> hosts = state.candidates();
    probed.resize(hosts.size());
    for (std::size_t j = 0; j < hosts.size(); ++j) probed[j] = state.estimate(task, hosts[j]);
    ready.push_back(task);
    table.push_row(probed);
  };
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    pending[t] = wf.in_edges(t).size();
    if (pending[t] == 0) add_ready(t);
  }

  std::size_t scheduled = 0;
  while (scheduled < wf.task_count()) {
    CLOUDWF_ASSERT(!ready.empty());
    const std::span<const HostCandidate> hosts = state.candidates();

    // Among ready tasks, find the pair (task, best host) with minimal EFT.
    // Rows are compared in ready insertion order and a later row must
    // strictly beat the incumbent, as in the non-memoized implementation,
    // so cross-row tie-breaking is bit-identical.
    std::size_t best_index = 0;
    BestHost best{};
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const std::optional<Dollars> cap =
          budget_aware ? std::optional<Dollars>(shares.share(ready[i]) + pot) : std::nullopt;
      const BestHost candidate = table.best(i, hosts, cap);
      if (i == 0 ||
          better_placement(candidate.estimate, candidate.host, best.estimate, best.host)) {
        best = candidate;
        best_index = i;
      }
    }

    const dag::TaskId task = ready[best_index];
    const std::size_t n_candidates = trace ? ready.size() * hosts.size() : 0;
    const std::size_t old_used = state.used_host_count();
    const sim::VmId vm = state.commit(task, best.host, best.estimate, schedule);
    if (trace) {
      // MIN-MIN's candidate set is the (ready task, host) cross product.
      const std::optional<Dollars> cap =
          budget_aware ? std::optional<Dollars>(shares.share(task) + pot) : std::nullopt;
      emit_decision(*input.bus, scheduled, wf, input.platform, task, vm, best, n_candidates,
                    cap);
    }
    if (budget_aware) pot += shares.share(task) - best.estimate.cost;
    order_out.push_back(task);
    ++scheduled;

    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_index));
    table.erase_row(best_index);

    // Re-probe only what the commit invalidated: the landed-on VM's column
    // (its availability moved).  A fresh commit appends the new VM as used
    // column old_used (used VMs are id-ordered and the new id is the
    // largest); the fresh slots keep their estimates, which depend only on
    // the category.
    const std::span<const HostCandidate> new_hosts = state.candidates();
    std::size_t column = old_used;
    if (!best.host.fresh) {
      // Used VMs occupy candidate indices [0, used) in ascending id order.
      for (std::size_t j = 0; j < old_used; ++j) {
        if (new_hosts[j].vm == vm) {
          column = j;
          break;
        }
      }
      CLOUDWF_ASSERT(column < old_used);
    }
    table.update_column(column, [&](std::size_t i) {
      return state.estimate(ready[i], new_hosts[column]);
    });

    for (dag::EdgeId e : wf.out_edges(task)) {
      const dag::TaskId succ = wf.edge(e).dst;
      if (--pending[succ] == 0) add_ready(succ);
    }
  }
  return schedule;
}

SchedulerOutput MinMinScheduler::schedule(const SchedulerInput& input) const {
  std::vector<dag::TaskId> order;
  sim::Schedule result = run_list_pass(input, budget_aware_, order);
  return finish(input, std::move(result));
}

SchedulerOutput MinMinBudgPlusScheduler::schedule(const SchedulerInput& input) const {
  std::vector<dag::TaskId> order;
  sim::Schedule current = MinMinScheduler::run_list_pass(input, /*budget_aware=*/true, order);
  sim::Simulator simulator(input.wf, input.platform);
  refine_by_resimulation(input, current, order, simulator);
  return finish(input, std::move(current), simulator);
}

}  // namespace cloudwf::sched
