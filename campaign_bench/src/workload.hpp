#pragma once

/// \file workload.hpp
/// \brief The campaign benchmark's workloads: their cell matrices, the
/// seeded input files, the timed set-up phase and the output hash.
///
/// A workload is a campaign matrix of (algorithm, instance, budget) cells.
/// Its instances are generated once per seed with pegasus::generate and
/// written to disk (JSON, or DAX for faults300); the timed part only ever
/// sees those files.  Set-up loads them, builds the platform, computes the
/// budget levels and builds the RunRequest list that exp::run_parallel
/// consumes.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/workflow.hpp"
#include "exp/evaluate.hpp"
#include "exp/runner.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sim/faults.hpp"

namespace cloudwf::bench {

class Tracer;

/// One slice of a workload's matrix: every listed algorithm on every
/// instance of every family at this task count, at each budget.
struct CellGroup {
  std::size_t tasks = 0;
  std::vector<std::string> algorithms;
  std::size_t instances = 1;  ///< per family
  /// Budgets as multiples of the cheapest execution (BudgetLevels::min_cost,
  /// the left edge of the paper's budget sweeps).
  std::vector<double> budget_factors;
};

struct WorkloadSpec {
  std::string name;
  std::vector<pegasus::WorkflowType> families;
  std::vector<CellGroup> groups;
  bool dax = false;  ///< inputs as DAX files instead of JSON
  std::size_t repetitions = 25;
  double contention_factor = 0;  ///< > 0: paper_platform_with_contention
  sim::FaultModel faults;        ///< seed is replaced per benchmark seed
  double recovery_cap_factor = 0;  ///< recovery budget cap, x cell budget
  bool journal = false;            ///< journal every cell (CheckpointJournal)
};

/// One of the benchmark's workloads; throws InvalidArgument for an unknown
/// name.
[[nodiscard]] const WorkloadSpec& find_workload(std::string_view name);

[[nodiscard]] std::size_t cell_count(const WorkloadSpec& spec);

/// One generated input file.
struct InputFile {
  std::filesystem::path path;
  std::size_t group = 0;
  pegasus::WorkflowType family{};
  std::size_t instance = 0;
};

/// The input files of \p spec under \p dir, one per (group, family,
/// instance).
[[nodiscard]] std::vector<InputFile> input_files(const WorkloadSpec& spec,
                                                 const std::filesystem::path& dir);

/// Generates every instance in \p files for \p seed and writes it (parent
/// directories created if needed).  Not timed.
void write_inputs(const WorkloadSpec& spec, std::uint64_t seed, std::span<const InputFile> files);

/// Work counted during set-up.
struct SetupWork {
  std::uintmax_t bytes = 0;
  std::size_t level_sims = 0;  ///< simulations inside compute_budget_levels
};

/// What set-up produces.  Requests point into `workflows`, and the runner's
/// plan cache keys on the workflow and platform addresses, so a Campaign
/// lives behind a unique_ptr and never moves.
struct Campaign {
  platform::Platform platform;
  std::vector<dag::Workflow> workflows;
  std::vector<exp::RunRequest> requests;
  std::uint64_t fingerprint_salt = 0;
  SetupWork work;
};

/// The timed set-up phase: loads \p inputs, builds the platform, computes
/// every instance's budget levels and builds the request list.  With a
/// tracer, each load and each budget-level computation is a span.
[[nodiscard]] std::unique_ptr<Campaign> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                               std::span<const InputFile> inputs,
                                               Tracer* tracer);

/// FNV-1a over every deterministic EvalResult field, i.e. all but the
/// wall-clock telemetry (schedule_seconds, sim_events_per_sec).
[[nodiscard]] std::uint64_t hash_results(std::span<const exp::EvalResult> results);

}  // namespace cloudwf::bench
