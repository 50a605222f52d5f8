#include "exp/campaign.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <ostream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "dag/stochastic.hpp"
#include "exp/checkpoint.hpp"
#include "exp/result_fields.hpp"
#include "exp/runner.hpp"

namespace cloudwf::exp {

namespace {

/// Hash of every result-affecting campaign parameter (threads and the
/// checkpoint knobs are deliberately excluded: they do not change the
/// numbers).  Names the journal file, and salts request fingerprints so a
/// journal can never be replayed against a different configuration.
std::uint64_t campaign_config_hash(const CampaignConfig& config) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof v; ++i, v >>= 8) {
      hash ^= v & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  const auto mix_double = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(config.type));
  mix(config.tasks);
  mix(config.instances);
  mix_double(config.sigma_ratio);
  mix(config.budget_points);
  mix(config.repetitions);
  mix(config.seed);
  mix_double(config.low_budget_factor);
  mix_double(config.high_budget_cap_factor);
  mix(config.algorithms.size());
  for (const std::string& algorithm : config.algorithms) {
    for (const char c : algorithm) mix(static_cast<unsigned char>(c));
    mix(0x1F);  // separator: {"a","bc"} != {"ab","c"}
  }
  return hash;
}

}  // namespace

bool quick_mode() {
  const char* value = std::getenv("CLOUDWF_QUICK");
  return value != nullptr && *value != '\0';
}

bool full_mode() {
  const char* value = std::getenv("CLOUDWF_FULL");
  return value != nullptr && *value != '\0';
}

void CampaignConfig::apply_quick_mode() {
  if (!quick_mode()) return;
  instances = std::min<std::size_t>(instances, 2);
  budget_points = std::min<std::size_t>(budget_points, 4);
  repetitions = std::min<std::size_t>(repetitions, 5);
  tasks = std::min<std::size_t>(tasks, 30);
}

CampaignResult run_campaign(const platform::Platform& platform, const CampaignConfig& config) {
  require(!config.algorithms.empty(), "run_campaign: no algorithms listed");
  // Unknown algorithm names are deliberately NOT rejected here: the runner's
  // crash containment turns them into degraded (errored) cells so one typo
  // cannot void a long campaign.  Interactive entry points (the CLI) validate
  // against the registry up front instead.
  require(config.instances >= 1, "run_campaign: need at least one instance");
  require(config.budget_points >= 2, "run_campaign: need at least two budget points");
  require(config.low_budget_factor > 0, "run_campaign: low_budget_factor must be positive");
  require(config.run_timeout >= 0, "run_campaign: run_timeout must be non-negative");
  require(!config.resume || !config.checkpoint_dir.empty(),
          "run_campaign: resume requires a checkpoint_dir");

  CampaignResult result;
  result.config = config;
  result.mean_budgets.assign(config.budget_points, 0);
  result.cells.assign(config.algorithms.size(),
                      std::vector<CampaignCell>(config.budget_points));

  std::vector<Accumulator> budget_acc(config.budget_points);

  // Phase 1 (serial): instances and their budget sweeps.
  std::vector<dag::Workflow> instances;
  instances.reserve(config.instances);
  std::vector<std::vector<Dollars>> sweeps;
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    const pegasus::GeneratorConfig gen{config.tasks, config.seed + inst, config.sigma_ratio};
    instances.push_back(pegasus::generate(config.type, gen));

    BudgetLevels levels = compute_budget_levels(instances.back(), platform);
    result.min_cost.add(levels.min_cost);
    levels.low *= config.low_budget_factor;
    if (config.high_budget_cap_factor > 0)
      levels.high = std::max(levels.low * 1.01,
                             std::min(levels.high, config.high_budget_cap_factor *
                                                       levels.min_cost));
    sweeps.push_back(budget_sweep(levels, config.budget_points));
    for (std::size_t b = 0; b < config.budget_points; ++b) budget_acc[b].add(sweeps.back()[b]);
  }

  // Phase 2: the evaluation matrix, optionally across a thread pool.  The
  // tag pins each request to its (instance, budget-index) cell so journal
  // fingerprints are unique across the matrix.
  std::vector<RunRequest> requests;
  requests.reserve(config.instances * config.budget_points * config.algorithms.size());
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    for (std::size_t b = 0; b < config.budget_points; ++b) {
      for (const std::string& algorithm : config.algorithms) {
        RunRequest request;
        request.wf = &instances[inst];
        request.algorithm = algorithm;
        request.budget = sweeps[inst][b];
        request.config.repetitions = config.repetitions;
        request.config.seed = config.seed * 1000003 + inst * 101 + b;
        request.config.measure_cpu_time = true;
        request.tag = "inst=" + std::to_string(inst) + ";b=" + std::to_string(b);
        requests.push_back(std::move(request));
      }
    }
  }

  RunPolicy policy;
  policy.run_timeout = config.run_timeout;
  std::unique_ptr<CheckpointJournal> journal;
  if (!config.checkpoint_dir.empty()) {
    std::filesystem::create_directories(config.checkpoint_dir);
    policy.fingerprint_salt = campaign_config_hash(config);
    const std::filesystem::path path =
        std::filesystem::path(config.checkpoint_dir) /
        ("campaign-" + std::string(pegasus::to_string(config.type)) + "-" +
         hex64(policy.fingerprint_salt) + ".jsonl");
    journal = std::make_unique<CheckpointJournal>(path.string(), config.resume);
    policy.journal = journal.get();
    result.journal_path = path.string();
  }

  std::vector<EvalResult> results;
  if (config.threads == 1) {
    results = run_serial(platform, requests, policy);
  } else {
    ThreadPool pool(config.threads);
    results = run_parallel(platform, requests, pool, policy);
  }
  // Phase 3: aggregation (deterministic request order).  Degraded cells
  // carry no sample data; they are counted, not averaged.
  std::size_t index = 0;
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    for (std::size_t b = 0; b < config.budget_points; ++b) {
      for (std::size_t a = 0; a < config.algorithms.size(); ++a, ++index) {
        const EvalResult& point = results[index];
        CampaignCell& cell = result.cells[a][b];
        if (!point.ok()) {
          if (point.status == RunStatus::timed_out) {
            ++cell.timed_out;
            ++result.timed_out_cells;
          } else {
            ++cell.errored;
            ++result.errored_cells;
          }
          continue;
        }
        for (const ResultField& field : result_fields)
          if (field.cell != nullptr)
            visit_field(field, requests[index], point, [&](const auto& value) {
              if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(value)>>)
                (cell.*field.cell).add(static_cast<double>(value));
            });
      }
    }
  }

  // Fresh completions were recorded, degraded cells never enter the
  // journal — everything else was replayed from a previous run.
  if (journal)
    result.replayed_cells = requests.size() - journal->recorded() - result.timed_out_cells -
                            result.errored_cells;

  for (std::size_t b = 0; b < config.budget_points; ++b)
    result.mean_budgets[b] = budget_acc[b].mean();
  return result;
}

void print_campaign_table(std::ostream& out, const CampaignResult& result,
                          const std::string& metric, const std::string& title) {
  const auto row = std::ranges::find_if(result_fields, [&](const ResultField& field) {
    return field.cell != nullptr && field.metric == metric;
  });
  if (row == std::end(result_fields))
    throw InvalidArgument("print_campaign_table: unknown metric '" + metric + "'");

  TablePrinter table(title);
  std::vector<std::string> columns{"budget($)"};
  for (const std::string& algorithm : result.config.algorithms)
    columns.push_back(algorithm);
  table.columns(std::move(columns));

  for (std::size_t b = 0; b < result.mean_budgets.size(); ++b) {
    std::vector<std::string> cells{TablePrinter::num(result.mean_budgets[b], 4)};
    for (std::size_t a = 0; a < result.config.algorithms.size(); ++a) {
      const CampaignCell& cell = result.cells[a][b];
      const Accumulator& acc = cell.*row->cell;
      // A degraded instance leaves the cell with fewer (possibly zero)
      // observations; mark it so the table never silently averages less
      // data than the clean cells.
      std::string text = acc.count() == 0
                             ? std::string("n/a")
                             : TablePrinter::pm(acc.mean(), acc.stddev(), row->precision);
      if (cell.degraded() > 0) text += " [-" + std::to_string(cell.degraded()) + "]";
      cells.push_back(std::move(text));
    }
    table.row(std::move(cells));
  }
  table.print(out);
  if (result.timed_out_cells + result.errored_cells > 0)
    out << "degraded cells excluded from aggregates: " << result.timed_out_cells
        << " timed_out, " << result.errored_cells << " errored\n";
  if (row->cell == &CampaignCell::makespan)
    out << "min_cost reference (all tasks on one cheapest VM): $"
        << TablePrinter::num(result.min_cost.mean(), 4) << "\n";
  out << '\n';
}

}  // namespace cloudwf::exp
