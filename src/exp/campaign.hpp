#pragma once

/// \file campaign.hpp
/// \brief Figure-style experiment campaigns (Section V).
///
/// A campaign fixes a workflow family, size and sigma, generates the
/// per-instance budget sweep, evaluates every algorithm at every budget on
/// every instance, and aggregates results across instances per budget index
/// (the paper plots mean +- stddev across 5 instances x 25 repetitions).
///
/// The CLOUDWF_QUICK environment variable (any non-empty value) shrinks
/// instances/repetitions/budget points so the bench binaries stay fast in
/// CI; unset it to reproduce paper-scale campaigns.

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "exp/budget_levels.hpp"
#include "exp/evaluate.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"

namespace cloudwf::exp {

/// Parameters of one figure campaign.
struct CampaignConfig {
  pegasus::WorkflowType type = pegasus::WorkflowType::montage;
  std::size_t tasks = 90;
  std::size_t instances = 5;       ///< random instances per (type, size)
  double sigma_ratio = 0.5;        ///< sigma/mu for every task
  std::size_t budget_points = 8;   ///< sweep resolution
  std::size_t repetitions = 25;    ///< stochastic executions per point
  std::vector<std::string> algorithms;  ///< e.g. {"heft", "heft-budg"}
  std::uint64_t seed = 42;
  /// Sweep start as a multiple of the cheapest-execution cost.  Figure 3/4
  /// use 0.5: the paper sweeps budgets below the feasible minimum, which is
  /// where the %valid curves separate (BDT collapses, HEFTBUDG degrades
  /// gracefully).
  double low_budget_factor = 1.0;
  /// When positive, caps the sweep's top budget at this multiple of the
  /// cheapest-execution cost.  Figure 2 uses ~2.5: the refinement gains of
  /// HEFTBUDG+ live in the narrow band just above the minimum budget, so a
  /// full-range sweep would step over them.
  double high_budget_cap_factor = 0.0;
  /// Worker threads for the evaluation matrix; 0 = hardware concurrency,
  /// 1 = serial.  Results are bit-identical regardless of thread count
  /// (per-point seeding); only the sched_time metric gets noisier under
  /// contention.
  std::size_t threads = 1;
  /// When non-empty, every completed cell is journaled to
  /// `<checkpoint_dir>/campaign-<family>-<confighash>.jsonl` the moment it
  /// finishes (append + fsync), making the campaign crash-safe.
  std::string checkpoint_dir;
  /// With a checkpoint_dir, replay journaled cells from a previous
  /// (interrupted) run bit-identically instead of starting fresh.
  bool resume = false;
  /// Per-cell wall-clock watchdog (seconds); 0 disables it.  A cell whose
  /// evaluation exceeds this becomes a `timed_out` degraded cell instead
  /// of hanging the sweep (see EvalConfig::run_timeout for granularity).
  Seconds run_timeout = 0;

  /// Applies the CLOUDWF_QUICK scaling (if the env var is set).
  void apply_quick_mode();
};

/// Cross-instance aggregate of one (algorithm, budget-index) cell.  Each
/// accumulator collects the result field that names it in
/// exp::result_fields.  Degraded per-instance results (watchdog timeouts,
/// evaluation errors) are excluded from the accumulators and counted
/// instead, so a single bad instance degrades one cell rather than aborting
/// the campaign.
struct CampaignCell {
  Accumulator makespan;   ///< mean execution makespan per instance
  Accumulator cost;       ///< mean actual cost per instance
  Accumulator used_vms;   ///< schedule VM count per instance
  Accumulator valid;      ///< valid fraction per instance
  Accumulator sched_time; ///< scheduler CPU seconds per instance
  // Observability aggregates (see EvalResult), one observation per instance.
  Accumulator queue_wait_p95;    ///< pooled p95 task queue wait (seconds)
  Accumulator vm_util;           ///< mean busy/billed VM fraction
  Accumulator transfer_retries;  ///< transfer retries per repetition
  Accumulator budget_headroom;   ///< mean relative budget slack
  std::size_t timed_out = 0;  ///< instances lost to the watchdog
  std::size_t errored = 0;    ///< instances lost to an exception
  [[nodiscard]] std::size_t degraded() const { return timed_out + errored; }
};

/// All series of one campaign.
struct CampaignResult {
  CampaignConfig config;
  std::vector<Dollars> mean_budgets;  ///< per budget index, averaged over instances
  /// cells[a][b]: algorithm a at budget index b.
  std::vector<std::vector<CampaignCell>> cells;
  Accumulator min_cost;  ///< per-instance cheapest-execution cost
  std::size_t timed_out_cells = 0;  ///< degraded (request, instance) evaluations
  std::size_t errored_cells = 0;    ///< ditto, for thrown exceptions
  std::size_t replayed_cells = 0;   ///< cells served from the checkpoint journal
  std::string journal_path;         ///< checkpoint journal (empty when disabled)
};

/// Runs the campaign (single-threaded; bench binaries parallelize by
/// running several campaigns through a ThreadPool if desired).
[[nodiscard]] CampaignResult run_campaign(const platform::Platform& platform,
                                          const CampaignConfig& config);

/// Renders one metric of the campaign as an aligned table (one column per
/// algorithm, one row per budget).  \p metric is the campaign metric name
/// of a row of exp::result_fields (result_fields.hpp), such as "makespan" or
/// "util"; an unknown name throws InvalidArgument.
void print_campaign_table(std::ostream& out, const CampaignResult& result,
                          const std::string& metric, const std::string& title);

/// True when CLOUDWF_QUICK is set in the environment.
[[nodiscard]] bool quick_mode();

/// True when CLOUDWF_FULL is set: paper-scale campaigns (5 instances x 25
/// repetitions x 8 budgets at 90 tasks).  Without it the bench binaries run
/// a trimmed-but-representative configuration.
[[nodiscard]] bool full_mode();

}  // namespace cloudwf::exp
