/// \file test_move_sweep.cpp
/// \brief Differential test of Simulator::sweep_moves against full runs.
///
/// A move sweep resumes every candidate from a paused run of the base
/// schedule instead of running it from time zero (DESIGN.md Section 12).
/// Every case here compares, bit for bit, what the sweep reports with
/// a conservative run of the candidate schedule built the way refinement
/// builds it: the makespan and cost the sweep returns, and every field of
/// the SimResult it hands to the post-run hook.  The hooked sweeps also
/// audit every candidate's makespan against its lower bound.
///
/// The lower bound behind screening (Simulator::makespan_lower_bound) is
/// checked against full runs of every candidate of the random corpora, and
/// screened sweeps against unscreened ones.  Each of these mutations of the
/// bound fails at least one case:
///  - the bound scaled by 1.05 (the random corpora);
///  - finish-to-start list-order constraints on multi-processor VMs too
///    (the random corpora);
///  - transfers not shortened by the fluid network's completion tolerance
///    (the early-completion case).
///
/// Each divergence rule and the inputs_at_dc fix-up of the patch is needed;
/// each of these mutations of the sweep fails at least one case:
///  - without the fix-up, inputs_at_dc records differ (both fuzz corpora,
///    refinement, the local/cross flip case);
///  - without rule 2 or rule 3, candidates deadlock (both fuzz corpora);
///  - without rule 2's limit at the next task's inputs_at_dc, outcomes
///    differ on random schedules and candidates deadlock with mid-DAG inputs;
///  - without rule 4, transfer counts differ (source VM) or candidates
///    deadlock (target VM), but only where non-entry tasks read external
///    data: generated workflows give external inputs to entry tasks only.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dag/analysis.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "obs/event_bus.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The first field in which two results differ, or "" when bit-identical.
std::string first_difference(const SimResult& a, const SimResult& b) {
  if (!same(a.start_first, b.start_first)) return "start_first";
  if (!same(a.end_last, b.end_last)) return "end_last";
  if (!same(a.makespan, b.makespan)) return "makespan";
  if (!same(a.cost.vm_time, b.cost.vm_time)) return "cost.vm_time";
  if (!same(a.cost.vm_setup, b.cost.vm_setup)) return "cost.vm_setup";
  if (!same(a.cost.dc_time, b.cost.dc_time)) return "cost.dc_time";
  if (!same(a.cost.dc_transfer, b.cost.dc_transfer)) return "cost.dc_transfer";
  if (a.used_vms != b.used_vms) return "used_vms";
  if (a.tasks.size() != b.tasks.size()) return "tasks.size";
  if (a.vms.size() != b.vms.size()) return "vms.size";
  if (a.transfers.count != b.transfers.count) return "transfers.count";
  if (!same(a.transfers.bytes, b.transfers.bytes)) return "transfers.bytes";
  if (a.transfers.peak_concurrent != b.transfers.peak_concurrent)
    return "transfers.peak_concurrent";
  if (a.migrations != b.migrations) return "migrations";
  const FaultStats& x = a.faults;
  const FaultStats& y = b.faults;
  if (x.boot_failures != y.boot_failures || x.crashes != y.crashes ||
      x.transfer_failures != y.transfer_failures || x.transfer_aborts != y.transfer_aborts ||
      x.task_reexecutions != y.task_reexecutions || x.failed_tasks != y.failed_tasks ||
      !same(x.wasted_compute, y.wasted_compute) || !same(x.recovery_cost, y.recovery_cost) ||
      x.degraded != y.degraded)
    return "faults";
  if (a.events_processed != b.events_processed) return "events_processed";
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    const TaskRecord& x = a.tasks[t];
    const TaskRecord& y = b.tasks[t];
    const std::string at = "tasks[" + std::to_string(t) + "].";
    if (x.vm != y.vm) return at + "vm";
    if (!same(x.inputs_at_dc, y.inputs_at_dc)) return at + "inputs_at_dc";
    if (!same(x.start, y.start)) return at + "start";
    if (!same(x.finish, y.finish)) return at + "finish";
    if (x.restarts != y.restarts) return at + "restarts";
    if (x.failed != y.failed) return at + "failed";
    if (x.bound_by != y.bound_by) return at + "bound_by";
  }
  for (std::size_t v = 0; v < a.vms.size(); ++v) {
    const VmRecord& x = a.vms[v];
    const VmRecord& y = b.vms[v];
    const std::string at = "vms[" + std::to_string(v) + "].";
    if (x.category != y.category) return at + "category";
    if (!same(x.boot_request, y.boot_request)) return at + "boot_request";
    if (!same(x.boot_done, y.boot_done)) return at + "boot_done";
    if (!same(x.end, y.end)) return at + "end";
    if (!same(x.busy, y.busy)) return at + "busy";
    if (x.task_count != y.task_count) return at + "task_count";
    if (x.boot_attempts != y.boot_attempts) return at + "boot_attempts";
    if (x.crashed != y.crashed) return at + "crashed";
    if (x.recovery != y.recovery) return at + "recovery";
    if (x.billed != y.billed) return at + "billed";
  }
  return {};
}

/// \p base with \p task moved to \p target, as refinement builds it.
Schedule moved(const Schedule& base, dag::TaskId task, const MoveTarget& target) {
  Schedule candidate = base;
  move_task(candidate, task, target);
  return candidate;
}

/// Every other VM of \p schedule (empty ones too), then a fresh VM per category.
std::vector<MoveTarget> all_targets(const Schedule& schedule, const platform::Platform& platform,
                                    dag::TaskId task) {
  std::vector<MoveTarget> targets;
  for (VmId vm = 0; vm < schedule.vm_count(); ++vm)
    if (vm != schedule.vm_of(task)) targets.push_back(MoveTarget::existing(vm));
  for (platform::CategoryId c = 0; c < platform.category_count(); ++c)
    targets.push_back(MoveTarget::fresh(c));
  return targets;
}

/// Tally of one differential case.
struct Tally {
  std::size_t candidates = 0;  ///< swept candidates
  std::size_t hooked = 0;      ///< results the comparing hook saw
  std::size_t screened = 0;    ///< candidates a screened sweep did not simulate
  std::size_t mismatches = 0;
  std::string first;  ///< the first mismatch, described

  void record(bool equal, const std::string& what) {
    if (equal) return;
    if (mismatches++ == 0) first = what;
  }
};

// The hook compares each result it is handed with a full run on a
// reference Simulator; the reference run's own hook call is skipped.
Tally* hook_tally = nullptr;
bool in_reference = false;

void compare_with_full_run(const dag::Workflow& wf, const platform::Platform& platform,
                           const Schedule& schedule, const SimResult& result) {
  if (in_reference) return;
  in_reference = true;
  Simulator reference(wf, platform);
  const SimResult full = reference.run(schedule, reference.conservative_weights());
  in_reference = false;
  ++hook_tally->hooked;
  const std::string difference = first_difference(result, full);
  hook_tally->record(difference.empty(), "hooked result differs in " + difference);
}

/// Installs compare_with_full_run for its lifetime.
class ComparingHook {
 public:
  explicit ComparingHook(Tally& tally) {
    hook_tally = &tally;
    set_post_run_check(&compare_with_full_run);
  }
  ~ComparingHook() {
    set_post_run_check(nullptr);
    hook_tally = nullptr;
  }
  ComparingHook(const ComparingHook&) = delete;
  ComparingHook& operator=(const ComparingHook&) = delete;
};

/// Sweeps \p task of \p base over \p targets twice on \p simulator: without
/// a hook, comparing the returned outcomes with full runs of the
/// candidates, and with the comparing hook, which sees every candidate's
/// full result.
void check_sweep(Simulator& simulator, const Schedule& base, dag::TaskId task,
                 std::span<const MoveTarget> targets, Tally& tally) {
  set_post_run_check(nullptr);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  const std::vector<MoveOutcome> outcomes =
      simulator.sweep_moves(base, base_result, task, targets);
  ASSERT_EQ(outcomes.size(), targets.size());
  Simulator reference(simulator.workflow(), simulator.platform());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const SimResult full =
        reference.run(moved(base, task, targets[i]), reference.conservative_weights());
    tally.record(same(outcomes[i].makespan, full.makespan) &&
                     same(outcomes[i].cost, full.total_cost()),
                 "outcome of task " + std::to_string(task) + " target " + std::to_string(i));
  }
  tally.candidates += targets.size();

  std::vector<MoveOutcome> hooked;
  {
    const ComparingHook hook(tally);
    hooked = simulator.sweep_moves(base, base_result, task, targets);
  }
  for (std::size_t i = 0; i < targets.size(); ++i)
    tally.record(same(hooked[i].makespan, outcomes[i].makespan) &&
                     same(hooked[i].cost, outcomes[i].cost),
                 "hooked outcome differs");
}

/// Sweeps every task of \p base over all_targets.
void check_every_task(Simulator& simulator, const Schedule& base, Tally& tally) {
  const platform::Platform& platform = simulator.platform();
  for (dag::TaskId t = 0; t < base.task_count(); ++t)
    check_sweep(simulator, base, t, all_targets(base, platform, t), tally);
}

/// Records the case's candidate count and expects no mismatch.
void expect_no_mismatch(const Tally& tally) {
  ::testing::Test::RecordProperty("candidates", std::to_string(tally.candidates));
  EXPECT_GT(tally.candidates, 0u);
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.candidates << " candidates; first: "
                                  << tally.first;
}

/// A random structurally valid schedule over a pool that may leave VMs
/// empty; bottom-level priorities keep every same-VM pair in order.
Schedule random_schedule(const dag::Workflow& wf, const platform::Platform& platform, Rng& rng) {
  Schedule schedule(wf.task_count());
  const std::size_t pool = 1 + rng.below(std::max<std::uint64_t>(2, wf.task_count() / 3));
  for (std::size_t v = 0; v < pool; ++v)
    schedule.add_vm(static_cast<platform::CategoryId>(rng.below(platform.category_count())));
  const dag::RankParams params{platform.mean_speed(), platform.bandwidth(), true};
  const std::vector<Seconds> ranks = dag::bottom_levels(wf, params);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) schedule.set_priority(t, ranks[t]);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    schedule.assign(t, static_cast<VmId>(rng.below(pool)));
  return schedule;
}

/// The paper platform with every category given \p processors slots.
platform::Platform multiprocessor_platform(std::uint32_t processors) {
  return platform::PlatformBuilder("paper-multiproc")
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, processors})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, processors})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, processors})
      .boot_delay(100.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .build();
}

/// The paper platform without boot delay, billed per started minute.
platform::Platform instant_boot_platform() {
  return platform::PlatformBuilder("paper-instant-boot")
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, 1})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
      .boot_delay(0.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .billing_quantum(60.0)
      .build();
}

std::vector<platform::Platform> fuzz_platforms() {
  std::vector<platform::Platform> platforms;
  platforms.push_back(platform::paper_platform());
  platforms.push_back(platform::paper_platform_with_contention(4));
  platforms.push_back(multiprocessor_platform(2));
  platforms.push_back(multiprocessor_platform(4));
  platforms.push_back(instant_boot_platform());
  return platforms;
}

/// \p wf with external inputs added to about a third of its non-entry
/// tasks, which generated workflows never have.
dag::Workflow with_mid_dag_inputs(const dag::Workflow& wf, Rng& rng) {
  dag::Workflow out(wf.name() + "-mid-inputs");
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    const dag::Task& task = wf.task(t);
    out.add_task(task.name, task.mean_weight, task.weight_stddev, task.type);
  }
  for (const dag::Edge& e : wf.edges()) out.add_edge(e.src, e.dst, e.bytes);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    if (wf.external_input_of(t) > 0) out.add_external_input(t, wf.external_input_of(t));
    if (wf.external_output_of(t) > 0) out.add_external_output(t, wf.external_output_of(t));
    if (!wf.in_edges(t).empty() && rng.below(3) == 0)
      out.add_external_input(t, rng.uniform(1e5, 5e8));
  }
  out.freeze();
  return out;
}

/// \p wf with about a quarter of its edges carrying no data.
dag::Workflow with_empty_edges(const dag::Workflow& wf, Rng& rng) {
  dag::Workflow out(wf.name() + "-empty-edges");
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    const dag::Task& task = wf.task(t);
    out.add_task(task.name, task.mean_weight, task.weight_stddev, task.type);
    if (wf.external_input_of(t) > 0) out.add_external_input(t, wf.external_input_of(t));
    if (wf.external_output_of(t) > 0) out.add_external_output(t, wf.external_output_of(t));
  }
  for (const dag::Edge& e : wf.edges()) out.add_edge(e.src, e.dst, rng.below(4) == 0 ? 0 : e.bytes);
  out.freeze();
  return out;
}

/// The workflows of a fuzz corpus.
enum class Corpus {
  generated,       ///< as generated
  mid_dag_inputs,  ///< with_mid_dag_inputs
  sparse_data,     ///< with_mid_dag_inputs, then with_empty_edges
};

/// One sweep of a fuzz corpus: a task of a base schedule over its targets.
using SweepCase = std::function<void(Simulator&, const Schedule& base, dag::TaskId task,
                                     std::span<const MoveTarget> targets)>;

/// Random schedules of every workflow family on every fuzz platform; a
/// few random tasks of each schedule swept over every target.
void fuzz(Corpus corpus, std::uint64_t seed, const SweepCase& sweep) {
  Rng rng(seed);
  for (const platform::Platform& platform : fuzz_platforms()) {
    for (const pegasus::WorkflowType type : pegasus::extended_types()) {
      const std::size_t tasks = 20 + rng.below(21);
      dag::Workflow wf = pegasus::generate(type, {tasks, rng.below(1000) + 1, 0.5});
      if (corpus != Corpus::generated) wf = with_mid_dag_inputs(wf, rng);
      if (corpus == Corpus::sparse_data) wf = with_empty_edges(wf, rng);
      Simulator simulator(wf, platform);
      for (int s = 0; s < 3; ++s) {
        const Schedule base = random_schedule(wf, platform, rng);
        for (int k = 0; k < 8; ++k) {
          const auto task = static_cast<dag::TaskId>(rng.below(wf.task_count()));
          sweep(simulator, base, task, all_targets(base, platform, task));
        }
      }
    }
  }
}

/// fuzz() with check_sweep.
Tally fuzz_sweeps(Corpus corpus, std::uint64_t seed) {
  Tally tally;
  fuzz(corpus, seed,
       [&tally](Simulator& simulator, const Schedule& base, dag::TaskId task,
                std::span<const MoveTarget> targets) {
         check_sweep(simulator, base, task, targets, tally);
       });
  return tally;
}

TEST(MoveSweep, MatchesFullRunsOnRandomSchedules) {
  const Tally tally = fuzz_sweeps(Corpus::generated, 11);
  expect_no_mismatch(tally);
}

TEST(MoveSweep, MatchesFullRunsWithExternalInputsOnNonEntryTasks) {
  const Tally tally = fuzz_sweeps(Corpus::mid_dag_inputs, 23);
  expect_no_mismatch(tally);
}

/// Checks the bound of every candidate against a full run of it: the bound
/// the move patches in equals the bound of the candidate schedule, and
/// neither exceeds the candidate's makespan.
void check_bounds(Simulator& simulator, const Schedule& base, dag::TaskId task,
                  std::span<const MoveTarget> targets, Tally& tally) {
  const dag::WeightRealization weights = dag::conservative_weights(simulator.workflow());
  Simulator reference(simulator.workflow(), simulator.platform());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Schedule candidate = moved(base, task, targets[i]);
    const std::optional<Seconds> patched =
        simulator.makespan_lower_bound(base, weights, task, targets[i]);
    const std::optional<Seconds> bound = reference.makespan_lower_bound(candidate, weights);
    const SimResult full = reference.run(candidate, reference.conservative_weights());
    const std::string at = "task " + std::to_string(task) + " target " + std::to_string(i);
    tally.record(patched && bound && same(*patched, *bound), "patched bound differs at " + at);
    tally.record(full.start_first == 0 && bound && *bound <= full.makespan,
                 "bound " + std::to_string(bound.value_or(-1)) + " exceeds makespan " +
                     std::to_string(full.makespan) + " at " + at);
  }
  tally.candidates += targets.size();
}

/// Sweeps with the thresholds Algorithm 5 and CG+ pass and one that screens
/// more: outcomes not screened are those of the unscreened sweep, bit for
/// bit, and screened ones exceed the threshold.
void check_screening(Simulator& simulator, const Schedule& base, dag::TaskId task,
                     std::span<const MoveTarget> targets, Tally& tally) {
  constexpr Seconds inf = std::numeric_limits<Seconds>::infinity();
  set_post_run_check(nullptr);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  const std::vector<MoveOutcome> all = simulator.sweep_moves(base, base_result, task, targets);
  Seconds best = base_result.makespan;
  for (const MoveOutcome& outcome : all) best = std::min(best, outcome.makespan);
  for (const Seconds threshold :
       {base_result.makespan, base_result.makespan - time_epsilon, best}) {
    const EngineCounters before = engine_counters();
    const std::vector<MoveOutcome> outcomes =
        simulator.sweep_moves(base, base_result, task, targets, threshold);
    const EngineCounters after = engine_counters();
    std::size_t screened = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::string at = "task " + std::to_string(task) + " target " + std::to_string(i);
      if (outcomes[i].makespan == inf) {
        ++screened;
        tally.record(outcomes[i].cost == inf && all[i].makespan > threshold,
                     "screened a candidate not above the threshold at " + at);
      } else {
        tally.record(same(outcomes[i].makespan, all[i].makespan) &&
                         same(outcomes[i].cost, all[i].cost),
                     "screening changed an outcome at " + at);
      }
    }
    tally.record(after.screened - before.screened == screened &&
                     after.simulated - before.simulated == targets.size() - screened,
                 "engine counters disagree with the outcomes");
    tally.screened += screened;
  }
  tally.candidates += targets.size();
}

TEST(MoveSweep, LowerBoundNeverExceedsTheMakespanOnRandomSchedules) {
  Tally tally;
  for (const Corpus corpus : {Corpus::generated, Corpus::mid_dag_inputs, Corpus::sparse_data})
    fuzz(corpus, 31,
         [&tally](Simulator& simulator, const Schedule& base, dag::TaskId task,
                  std::span<const MoveTarget> targets) {
           check_bounds(simulator, base, task, targets, tally);
         });
  expect_no_mismatch(tally);
}

TEST(MoveSweep, ScreeningChangesNoOutcome) {
  Tally tally;
  for (const Corpus corpus : {Corpus::generated, Corpus::sparse_data})
    fuzz(corpus, 37,
         [&tally](Simulator& simulator, const Schedule& base, dag::TaskId task,
                  std::span<const MoveTarget> targets) {
           check_screening(simulator, base, task, targets, tally);
         });
  expect_no_mismatch(tally);
  RecordProperty("screened", std::to_string(tally.screened));
  EXPECT_GT(tally.screened, 0u);
}

TEST(MoveSweep, LowerBoundAllowsForEarlyFlowCompletions) {
  // A's external input would be downloaded at 14 s, but B finishes on
  // another VM half a nanosecond earlier.  At that event the fluid network
  // completes the download within its tolerance, so A starts early.
  dag::Workflow wf("early-completion");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 4 - 0.5e-9, 0);
  wf.add_external_input(a, 4e6);
  wf.freeze();
  const platform::Platform platform = testing::toy_platform();
  Schedule schedule(wf.task_count());
  schedule.assign(a, schedule.add_vm(0));
  schedule.assign(b, schedule.add_vm(0));

  Simulator simulator(wf, platform);
  const SimResult run = simulator.run(schedule, simulator.conservative_weights());
  ASSERT_LT(run.tasks[a].start, 14.0);
  const std::optional<Seconds> bound =
      simulator.makespan_lower_bound(schedule, dag::conservative_weights(wf));
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(*bound, run.makespan);
  EXPECT_NEAR(*bound, run.makespan, 1e-9);
}

TEST(MoveSweep, MatchesFullRunsInsideRefinement) {
  // The sweeps refinement itself makes: every candidate reaches the
  // comparing hook, and the schedules must be those of full runs.
  Tally tally;
  const platform::Platform platform = platform::paper_platform();
  for (const pegasus::WorkflowType type : pegasus::all_types()) {
    const dag::Workflow wf = pegasus::generate(type, {30, 3, 0.5});
    const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
    for (const char* algorithm : {"heft-budg-plus", "minmin-budg-plus", "cg-plus"}) {
      const ComparingHook hook(tally);
      (void)sched::make_scheduler(algorithm)->schedule({wf, platform, budget});
    }
  }
  EXPECT_GT(tally.hooked, 1000u);
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.hooked << " results; first: " << tally.first;
}

TEST(MoveSweep, HandBuiltExternalInputsOnNonEntryTasks) {
  // E and F read external data although they have predecessors, so the
  // boot scan of the VM a task leaves or joins may fetch it (rule 4).
  dag::Workflow wf("mid-inputs");
  const auto a = wf.add_task("A", 100, 20);
  const auto b = wf.add_task("B", 300, 60);
  const auto c = wf.add_task("C", 50, 10);
  const auto e = wf.add_task("E", 200, 40);
  const auto f = wf.add_task("F", 80, 0);
  wf.add_edge(a, e, 2e6);
  wf.add_edge(b, e, 1e6);
  wf.add_edge(c, f, 3e6);
  wf.add_edge(e, f, 1e6);
  wf.add_external_input(a, 4e6);
  wf.add_external_input(e, 8e6);
  wf.add_external_input(f, 5e6);
  wf.add_external_output(f, 1e6);
  wf.freeze();
  const platform::Platform platform = testing::toy_platform();

  Schedule base(wf.task_count());
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(1);
  const VmId v2 = base.add_vm(0);
  base.assign(b, v0);
  base.assign(a, v1);
  base.assign(e, v1);
  base.assign(c, v2);
  base.assign(f, v0);
  Simulator simulator(wf, platform);
  Tally tally;
  check_every_task(simulator, base, tally);
  expect_no_mismatch(tally);
}

TEST(MoveSweep, TaskFirstOnItsVmAndTaskAloneOnItsVm) {
  // VM 0 runs [A, B]: A is first and B follows it; VM 1 runs C alone.
  dag::Workflow wf("first-and-alone");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 0);
  const auto c = wf.add_task("C", 400, 0);
  const auto d = wf.add_task("D", 50, 0);
  wf.add_edge(c, a, 1e6);
  wf.add_edge(c, b, 1e6);
  wf.add_edge(a, d, 2e6);
  wf.add_edge(b, d, 1e6);
  wf.freeze();
  const platform::Platform platform = testing::toy_platform();

  Schedule base(wf.task_count());
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(1);
  const VmId v2 = base.add_vm(0);
  base.assign(c, v1);
  base.assign(a, v0);
  base.assign(b, v0);
  base.assign(d, v2);
  ASSERT_EQ(base.vm_tasks(v0).front(), a);
  ASSERT_EQ(base.vm_tasks(v1).size(), 1u);

  Simulator simulator(wf, platform);
  Tally tally;
  check_sweep(simulator, base, a, all_targets(base, platform, a), tally);
  check_sweep(simulator, base, c, all_targets(base, platform, c), tally);
  check_sweep(simulator, base, d, all_targets(base, platform, d), tally);
  expect_no_mismatch(tally);
}

TEST(MoveSweep, InsertionAtTheHeadOfAVmBookedAtTimeZero) {
  // VM 1 books at time zero for the entry task E.  X outranks E, so moving
  // X there puts it first, ahead of a VM that is already up and running E
  // in the base run (rule 3 resumes such a move from before the boot pass).
  dag::Workflow wf("head-insert");
  const auto p = wf.add_task("P", 100, 0);
  const auto x = wf.add_task("X", 100, 0);
  const auto e = wf.add_task("E", 300, 0);
  wf.add_edge(p, x, 1e6);
  wf.freeze();
  const platform::Platform platform = testing::toy_platform();

  Schedule base(wf.task_count());
  base.set_priority(p, 30);
  base.set_priority(x, 20);
  base.set_priority(e, 10);
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(0);
  base.assign(p, v0);
  base.assign(x, v0);
  base.assign(e, v1);
  ASSERT_EQ(base.insert_position(x, v1), 0u);

  Simulator simulator(wf, platform);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  ASSERT_EQ(base_result.vms[v1].boot_request, 0.0);
  Tally tally;
  check_sweep(simulator, base, x, all_targets(base, platform, x), tally);
  expect_no_mismatch(tally);
}

TEST(MoveSweep, SuccessorEdgesFlipBetweenLocalAndCrossVm) {
  // T leaves VM 0, where its consumer S stays (local -> cross-VM), for VM 1,
  // where its consumer U waits (cross-VM -> local).  U's other input, from
  // Q, reaches the datacenter long before the move can matter, so the
  // patched U has all its cross-VM inputs at the DC at once.
  dag::Workflow wf("flips");
  const auto p = wf.add_task("P", 100, 0);
  const auto t = wf.add_task("T", 100, 0);
  const auto s = wf.add_task("S", 50, 0);
  const auto q = wf.add_task("Q", 10, 0);
  const auto u = wf.add_task("U", 50, 0);
  wf.add_edge(p, t, 1e6);
  wf.add_edge(t, s, 1e6);
  wf.add_edge(t, u, 1e6);
  wf.add_edge(q, u, 1e6);
  wf.add_edge(q, s, 1e6);
  wf.freeze();
  const platform::Platform platform = testing::toy_platform();

  Schedule base(wf.task_count());
  base.set_priority(p, 50);
  base.set_priority(t, 40);
  base.set_priority(q, 60);
  base.set_priority(s, 10);
  base.set_priority(u, 20);
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(0);
  const VmId v2 = base.add_vm(0);
  const VmId v3 = base.add_vm(0);
  base.assign(p, v3);
  base.assign(t, v0);
  base.assign(s, v0);
  base.assign(u, v1);
  base.assign(q, v2);

  Simulator simulator(wf, platform);
  Tally tally;
  check_sweep(simulator, base, t, std::vector{MoveTarget::existing(v1)}, tally);
  expect_no_mismatch(tally);
  // The candidate's U finds Q's data at the DC from the start of its wait.
  const SimResult candidate =
      simulator.run(moved(base, t, MoveTarget::existing(v1)), simulator.conservative_weights());
  EXPECT_GT(candidate.tasks[u].inputs_at_dc, 0.0);
  EXPECT_LT(candidate.tasks[u].inputs_at_dc, candidate.tasks[t].finish);
  check_every_task(simulator, base, tally);
  expect_no_mismatch(tally);
}

TEST(MoveSweep, MoveBreakingSameVmOrderThrowsTheValidateError) {
  // B outranks its producer A, so A moved next to B lands after it.
  dag::Workflow wf("misorder");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 0);
  wf.add_edge(a, b, 1e6);
  wf.freeze();
  const platform::Platform platform = testing::toy_platform();
  Schedule base(wf.task_count());
  base.set_priority(a, 1);
  base.set_priority(b, 2);
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(0);
  base.assign(a, v0);
  base.assign(b, v1);

  Simulator simulator(wf, platform);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  const std::vector targets{MoveTarget::fresh(1), MoveTarget::existing(v1)};
  std::string expected;
  try {
    (void)Simulator(wf, platform).run(moved(base, a, targets[1]), dag::conservative_weights(wf));
  } catch (const ValidationError& error) {
    expected = error.what();
  }
  ASSERT_FALSE(expected.empty());
  // Whatever the threshold screens, the misordered candidate is not.
  for (const Seconds threshold : {std::numeric_limits<Seconds>::infinity(), 0.0}) {
    try {
      (void)simulator.sweep_moves(base, base_result, a, targets, threshold);
      FAIL() << "the sweep accepted a move that breaks same-VM order";
    } catch (const ValidationError& error) {
      EXPECT_EQ(std::string(error.what()), expected);
    }
  }
  // The failed sweep leaves the Simulator usable.
  EXPECT_EQ(simulator.run(base, simulator.conservative_weights()).makespan, base_result.makespan);
}

TEST(MoveSweep, ScreenedSweepKeepsTheDeadlockOfAMultiprocessorVm) {
  // Y -> Z -> X, but X outranks Y: Y moved next to X on the two-processor
  // VM 0 waits behind X in list order, X waits for Z and Z for Y.
  dag::Workflow wf("list-order-deadlock");
  const auto x = wf.add_task("X", 100, 0);
  const auto y = wf.add_task("Y", 100, 0);
  const auto z = wf.add_task("Z", 100, 0);
  wf.add_edge(y, z, 1e6);
  wf.add_edge(z, x, 1e6);
  wf.freeze();
  const platform::Platform platform = multiprocessor_platform(2);
  Schedule base(wf.task_count());
  base.set_priority(x, 30);
  base.set_priority(z, 20);
  base.set_priority(y, 10);
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(0);
  const VmId v2 = base.add_vm(0);
  base.assign(x, v0);
  base.assign(y, v1);
  base.assign(z, v2);

  const std::vector targets{MoveTarget::fresh(2), MoveTarget::existing(v0)};
  std::string expected;
  try {
    (void)Simulator(wf, platform).run(moved(base, y, targets[1]), dag::conservative_weights(wf));
  } catch (const ValidationError& error) {
    expected = error.what();
  }
  ASSERT_NE(expected.find("deadlocked"), std::string::npos) << expected;

  Simulator simulator(wf, platform);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  const dag::WeightRealization weights = dag::conservative_weights(wf);
  EXPECT_FALSE(simulator.makespan_lower_bound(base, weights, y, targets[1]).has_value());
  EXPECT_TRUE(simulator.makespan_lower_bound(base, weights, y, targets[0]).has_value());
  try {
    (void)simulator.sweep_moves(base, base_result, y, targets, /*threshold=*/0.0);
    FAIL() << "the sweep screened a deadlocking candidate";
  } catch (const ValidationError& error) {
    EXPECT_EQ(std::string(error.what()), expected);
  }
}

Simulator* sweeping = nullptr;

void run_the_sweeping_simulator(const dag::Workflow& /*wf*/, const platform::Platform& /*p*/,
                                const Schedule& schedule, const SimResult& /*result*/) {
  (void)sweeping->run(schedule, sweeping->conservative_weights());
}

TEST(MoveSweep, RefusesToRunTheSimulatorItIsSweeping) {
  const dag::Workflow wf = testing::diamond();
  const platform::Platform platform = testing::toy_platform();
  Schedule base(wf.task_count());
  const VmId v0 = base.add_vm(0);
  const VmId v1 = base.add_vm(1);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) base.assign(t, t == 2 ? v1 : v0);
  Simulator simulator(wf, platform);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  sweeping = &simulator;
  set_post_run_check(&run_the_sweeping_simulator);
  const std::vector targets{MoveTarget::existing(v1)};
  EXPECT_THROW((void)simulator.sweep_moves(base, base_result, 1, targets), InvalidArgument);
  set_post_run_check(nullptr);
  sweeping = nullptr;
}

TEST(MoveSweep, NeedsASimulatorWithoutABus) {
  const dag::Workflow wf = testing::diamond();
  const platform::Platform platform = testing::toy_platform();
  Schedule base(wf.task_count());
  const VmId v0 = base.add_vm(0);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) base.assign(t, v0);
  obs::EventBus bus;
  Simulator simulator(wf, platform, &bus);
  const SimResult base_result = simulator.run(base, simulator.conservative_weights());
  const std::vector targets{MoveTarget::fresh(0)};
  EXPECT_THROW((void)simulator.sweep_moves(base, base_result, 3, targets), InvalidArgument);
}

}  // namespace
}  // namespace cloudwf::sim
