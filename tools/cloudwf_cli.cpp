/// \file cloudwf_cli.cpp
/// \brief The `cloudwf` command-line tool: generate, inspect, convert,
/// schedule, simulate and sweep workflows without writing C++.
///
/// Commands:
///   generate  --type montage --tasks 90 --seed 1 --sigma 0.5 --out wf.json
///   info      <wf.{json,dax}>
///   convert   <in.{json,dax}> <out.{json,dax,dot}>
///   schedule  <wf> --algorithm heft-budg --budget 3.0 [--gantt out.svg]
///             [--trace-dir DIR] [--trace-events out.json]
///             [--schedule-out sched.json]
///             [--metrics-out metrics.json] [--profile]
///   simulate  <wf> --algorithm heft-budg --budget 3.0 [--reps 25] [--seed 7]
///             [--trace-events out.json] [--metrics-out metrics.json]
///             [--profile]
///             [--deadline D] [--online] [--timeout-sigmas 2]
///             [--fault-lambda-crash 1.0] [--fault-p-boot-fail 0.05]
///             [--fault-p-transfer-fail 0.01] [--fault-acquisition-delay 60]
///             [--fault-seed S] [--recovery-budget-cap C]
///             [--recovery-max-task-retries 2] [--recovery-max-boot-attempts 3]
///             [--recovery-max-transfer-retries 3] [--recovery-transfer-backoff 1]
///   sweep     <wf> [--algorithms LIST|all] [--points 6]
///             [--reps 10] [--threads N] [--csv raw.csv] [--run-timeout S]
///             [--fault-* as above]
///   campaign  --type montage [--tasks 90] [--instances 3] [--sigma 0.5]
///             [--algorithms LIST|all] [--points 6] [--reps 10] [--threads N]
///             [--checkpoint-dir DIR] [--resume] [--run-timeout S]
///
/// Algorithm lists come from the scheduler registry: sweep defaults to every
/// budget-aware non-refining algorithm, campaign to every non-refining one
/// (refinement passes are opt-in; they dominate run time), and
/// `--algorithms all` expands to the full registry.  Unknown names fail
/// before any work starts.
///
/// Durability: with --checkpoint-dir every completed campaign cell is
/// journaled (append + fsync) to DIR/campaign-<family>-<confighash>.jsonl;
/// after a crash or Ctrl-C, re-running the same command with --resume
/// replays finished cells bit-identically and computes only the rest.
/// --run-timeout S turns a hung evaluation into a reported `timed_out`
/// cell instead of stalling the sweep; SIGINT/SIGTERM stop at the next
/// cell boundary with the journal already flushed (exit code 130).
///
/// Workflow files are recognized by extension: .json (cloudwf schema) or
/// .dax/.xml (Pegasus DAX).  Commands run on the reconstructed Table II
/// platform by default; --platform FILE.json loads a custom provider offer
/// (see platform/io.hpp for the schema) and --contention FACTOR enables the
/// finite-datacenter mode.
///
/// Observability: --trace-events PATH writes a Chrome trace-event JSON of
/// the scheduler's decisions plus one simulated execution (open it in
/// Perfetto or chrome://tracing); --metrics-out PATH writes the run's
/// metrics registry (counters/gauges/histograms); --profile prints a
/// wall-clock profile of scheduler planning, the simulator event loop and
/// generator construction to stderr on exit.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "check/auto_check.hpp"
#include "cli_args.hpp"
#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dag/analysis.hpp"
#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "exp/campaign.hpp"
#include "exp/evaluate.hpp"
#include "exp/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "pegasus/generator.hpp"
#include "platform/io.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/gantt.hpp"
#include "sim/schedule_io.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace {

using namespace cloudwf;

constexpr const char* usage = R"(cloudwf — budget-aware workflow scheduling toolbox

usage: cloudwf <command> [args]

commands:
  generate   synthesize a CYBERSHAKE/LIGO/MONTAGE instance
  info       show structure and metrics of a workflow file
  convert    convert between .json, .dax and .dot
  schedule   compute a schedule and its deterministic prediction
  simulate   execute a schedule against stochastic weights
  sweep      compare algorithms across a budget sweep
  campaign   multi-instance figure-style campaign for one family
  help       print this message

run `cloudwf <command> --help` conventions: see the header of tools/cloudwf_cli.cpp.
)";

std::string extension(const std::string& path) {
  return std::filesystem::path(path).extension().string();
}

dag::Workflow load_workflow(const std::string& path, double sigma) {
  const std::string ext = extension(path);
  if (ext == ".json") return dag::load_json(path);
  if (ext == ".dax" || ext == ".xml")
    return dag::load_dax(path, {.reference_speed = 1.0, .stddev_ratio = sigma});
  throw InvalidArgument("unrecognized workflow extension '" + ext + "' (use .json or .dax)");
}

void save_workflow(const dag::Workflow& wf, const std::string& path) {
  const std::string ext = extension(path);
  if (ext == ".json") {
    dag::save_json(wf, path);
  } else if (ext == ".dax" || ext == ".xml") {
    dag::save_dax(wf, path);
  } else if (ext == ".dot") {
    std::ofstream out(path);
    if (!out.good()) throw InvalidArgument("cannot open " + path);
    out << dag::to_dot(wf);
  } else {
    throw InvalidArgument("unrecognized output extension '" + ext + "'");
  }
  std::cout << "wrote " << path << '\n';
}

platform::Platform make_platform(const cli::Args& args) {
  if (args.has("platform")) return platform::load_json(args.get("platform", ""));
  const double contention = args.get_double("contention", 0.0);
  return contention > 0 ? platform::paper_platform_with_contention(contention)
                        : platform::paper_platform();
}

/// Observability wiring shared by schedule and simulate: --trace-events
/// attaches a Chrome-trace sink to the scheduler and simulator event bus,
/// --metrics-out collects a metrics registry.  finish() writes whatever was
/// requested.
struct ObsOptions {
  explicit ObsOptions(const cli::Args& args)
      : trace_path(args.get("trace-events", "")),
        metrics_path(args.get("metrics-out", "")) {
    if (!trace_path.empty()) bus.add_sink(&trace);
  }

  /// The bus to hand to SchedulerInput / Simulator; null when tracing is
  /// off, which keeps the simulator on its zero-overhead path.
  [[nodiscard]] obs::EventBus* bus_or_null() { return bus.enabled() ? &bus : nullptr; }
  [[nodiscard]] bool want_metrics() const { return !metrics_path.empty(); }

  void finish() {
    if (!trace_path.empty()) {
      trace.write(trace_path);
      std::cout << "wrote " << trace_path << " (" << trace.record_count()
                << " trace records)\n";
    }
    if (want_metrics()) {
      metrics.save_json(metrics_path);
      std::cout << "wrote " << metrics_path << '\n';
    }
  }

  std::string trace_path;
  std::string metrics_path;
  obs::EventBus bus;
  obs::ChromeTraceSink trace;
  obs::MetricsRegistry metrics;
};

/// Comma-joined names of the registry entries matching \p filter — the
/// registry-driven default algorithm sets (no hard-coded name lists).
template <typename Filter>
std::string join_algorithms(Filter filter) {
  std::string out;
  for (const sched::SchedulerInfo& info : sched::scheduler_registry()) {
    if (!filter(info)) continue;
    if (!out.empty()) out += ',';
    out += info.name;
  }
  return out;
}

/// Resolves an --algorithms list: "all" expands to every registered name,
/// and every name is validated against the registry up front (fail fast
/// instead of erroring mid-sweep).
std::vector<std::string> resolve_algorithms(std::vector<std::string> algorithms) {
  if (algorithms.size() == 1 && algorithms[0] == "all") return sched::algorithm_names();
  for (const std::string& algorithm : algorithms) (void)sched::scheduler_info(algorithm);
  return algorithms;
}

/// Reads the --fault-* / --recovery-* knobs shared by simulate and sweep.
void read_fault_args(const cli::Args& args, exp::EvalConfig& config) {
  config.faults.p_boot_fail = args.get_double("fault-p-boot-fail", 0.0);
  config.faults.lambda_crash = args.get_double("fault-lambda-crash", 0.0);
  config.faults.p_transfer_fail = args.get_double("fault-p-transfer-fail", 0.0);
  config.faults.acquisition_delay = args.get_double("fault-acquisition-delay", 60.0);
  config.faults.seed = args.get_size("fault-seed", 0xFA177ULL);
  config.recovery.budget_cap = args.has("recovery-budget-cap")
                                   ? args.get_double("recovery-budget-cap", 0)
                                   : std::numeric_limits<Dollars>::infinity();
  config.recovery.max_task_retries = args.get_size("recovery-max-task-retries", 2);
  config.recovery.max_boot_attempts = args.get_size("recovery-max-boot-attempts", 3);
  config.recovery.max_transfer_retries = args.get_size("recovery-max-transfer-retries", 3);
  config.recovery.transfer_backoff_base = args.get_double("recovery-transfer-backoff", 1.0);
  config.faults.validate();
  config.recovery.validate();
}

int cmd_generate(const cli::Args& args) {
  const pegasus::GeneratorConfig config{args.get_size("tasks", 90),
                                        args.get_size("seed", 1),
                                        args.get_double("sigma", 0.5)};
  const dag::Workflow wf =
      pegasus::generate(pegasus::parse_type(args.get("type", "montage")), config);
  save_workflow(wf, args.get("out", std::string(pegasus::to_string(pegasus::parse_type(
                                        args.get("type", "montage")))) +
                                        ".json"));
  return 0;
}

int cmd_info(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "workflow file"), args.get_double("sigma", 0.5));
  const platform::Platform cloud = make_platform(args);
  const dag::RankParams params{cloud.mean_speed(), cloud.bandwidth(), true};
  const dag::GraphMetrics metrics = dag::graph_metrics(wf, params);
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);

  TablePrinter table("workflow " + wf.name());
  table.columns({"property", "value"});
  table.row({"tasks", std::to_string(wf.task_count())});
  table.row({"edges", std::to_string(wf.edge_count())});
  table.row({"depth (levels)", std::to_string(metrics.depth)});
  table.row({"width (max level)", std::to_string(metrics.width)});
  table.row({"CCR", TablePrinter::num(metrics.ccr, 4)});
  table.row({"parallelism", TablePrinter::num(metrics.parallelism, 2)});
  table.row({"total work (instr)", TablePrinter::num(wf.total_mean_weight(), 0)});
  table.row({"data in DAG (MB)", TablePrinter::num(wf.total_edge_bytes() / 1e6, 1)});
  table.row({"external in/out (MB)",
             TablePrinter::num(wf.external_input_bytes() / 1e6, 1) + " / " +
                 TablePrinter::num(wf.external_output_bytes() / 1e6, 1)});
  table.row({"cheapest execution ($)", TablePrinter::num(levels.min_cost, 4)});
  table.row({"baseline-reaching budget ($)",
             TablePrinter::num(levels.baseline_reaching, 4)});
  table.row({"high budget ($)", TablePrinter::num(levels.high, 4)});
  table.print(std::cout);
  return 0;
}

int cmd_convert(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "input file"), args.get_double("sigma", 0.5));
  save_workflow(wf, args.positional_at(1, "output file"));
  return 0;
}

int cmd_schedule(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "workflow file"), args.get_double("sigma", 0.5));
  const platform::Platform cloud = make_platform(args);
  const std::string algorithm = args.get("algorithm", "heft-budg");
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);
  const Dollars budget = args.has("budget") ? args.get_double("budget", 0) : levels.medium;

  ObsOptions obs_options(args);
  const sched::SchedulerInput input =
      sched::make_input(wf, cloud, budget, obs_options.bus_or_null());
  const auto out = sched::make_scheduler(algorithm)->schedule(input);
  std::cout << algorithm << " under $" << budget << ":\n"
            << "  predicted makespan : " << out.predicted_makespan << " s\n"
            << "  predicted cost     : $" << out.predicted_cost
            << (out.budget_feasible ? " (within budget)" : " (OVER budget)") << "\n"
            << "  VMs                : " << out.schedule.used_vm_count() << "\n";

  sim::Simulator simulator(wf, cloud, obs_options.bus_or_null());
  const sim::SimResult prediction = simulator.run_conservative(out.schedule);
  if (obs_options.want_metrics())
    sim::record_run_metrics(obs_options.metrics, prediction, budget);
  if (args.has("gantt")) {
    std::ofstream svg(args.get("gantt", "schedule.svg"));
    require(svg.good(), "cannot open gantt output file");
    sim::write_gantt_svg(wf, prediction, svg);
    std::cout << "wrote " << args.get("gantt", "schedule.svg") << '\n';
  }
  if (args.has("trace-dir")) {
    const std::filesystem::path dir = args.get("trace-dir", ".");
    std::filesystem::create_directories(dir);
    sim::save_task_trace_csv(wf, prediction, (dir / "tasks.csv").string());
    sim::save_vm_trace_csv(prediction, (dir / "vms.csv").string());
    sim::save_result_summary_json(prediction, (dir / "summary.json").string());
    std::cout << "wrote " << (dir / "tasks.csv").string() << ", " << (dir / "vms.csv").string()
              << ", " << (dir / "summary.json").string() << '\n';
  }
  if (args.has("schedule-out")) {
    const std::string path = args.get("schedule-out", "schedule.json");
    sim::save_schedule_json(out.schedule, wf, path);
    std::cout << "wrote " << path << '\n';
  }
  obs_options.finish();
  return 0;
}

int cmd_simulate(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "workflow file"), args.get_double("sigma", 0.5));
  const platform::Platform cloud = make_platform(args);
  const std::string algorithm = args.get("algorithm", "heft-budg");
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);
  const Dollars budget = args.has("budget") ? args.get_double("budget", 0) : levels.medium;

  ObsOptions obs_options(args);
  const sched::SchedulerInput input =
      sched::make_input(wf, cloud, budget, obs_options.bus_or_null());
  const auto out = sched::make_scheduler(algorithm)->schedule(input);
  sim::Simulator simulator(wf, cloud);

  if (args.has("online")) {
    sim::OnlinePolicy policy;
    policy.timeout_sigmas = args.get_double("timeout-sigmas", 2.0);
    policy.budget_cap = args.has("budget-cap")
                            ? args.get_double("budget-cap", 0)
                            : std::numeric_limits<Dollars>::infinity();
    Summary makespan;
    Summary cost;
    double migrations = 0;
    const Rng base(args.get_size("seed", 7));
    const std::size_t reps = args.get_size("reps", 25);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Rng stream = base.fork(rep);
      const sim::SimResult r =
          simulator.run_online(out.schedule, dag::sample_weights(wf, stream), policy);
      makespan.add(r.makespan);
      cost.add(r.total_cost());
      migrations += static_cast<double>(r.migrations);
    }
    std::cout << "online (" << reps << " runs): makespan "
              << TablePrinter::pm(makespan.mean(), makespan.stddev(), 1) << " s, cost $"
              << TablePrinter::num(cost.mean(), 4) << ", "
              << migrations / static_cast<double>(reps) << " migrations/run\n";
    obs_options.finish();  // scheduler decisions only; online runs untraced
    return 0;
  }

  exp::EvalConfig config;
  config.repetitions = args.get_size("reps", 25);
  config.seed = args.get_size("seed", 7);
  config.deadline = args.get_double("deadline", 0);
  read_fault_args(args, config);
  if (obs_options.want_metrics()) config.metrics = &obs_options.metrics;
  const exp::EvalResult r = exp::evaluate_schedule(wf, cloud, out, algorithm, budget, config);

  // Traced execution: repetition 0 re-run with the event bus attached, so
  // the trace shows exactly the realization the first repetition saw (the
  // evaluation loop itself stays on the zero-overhead path).
  if (obs_options.bus_or_null() != nullptr) {
    sim::Simulator traced(wf, cloud, &obs_options.bus);
    const Rng base(config.seed);
    Rng stream = base.fork(0);
    const dag::WeightRealization weights = dag::sample_weights(wf, stream);
    if (config.faults.enabled())
      (void)traced.run_with_faults(out.schedule, weights, config.faults.for_repetition(0),
                                   config.recovery);
    else
      (void)traced.run(out.schedule, weights);
  }

  TablePrinter table(algorithm + " on " + wf.name() + " — " +
                     std::to_string(config.repetitions) + " stochastic executions");
  table.columns({"metric", "value"});
  table.row({"budget ($)", TablePrinter::num(budget, 4)});
  table.row({"predicted makespan (s)", TablePrinter::num(r.predicted_makespan, 1)});
  table.row({"makespan (s)", TablePrinter::pm(r.makespan.mean(), r.makespan.stddev(), 1)});
  table.row({"makespan p95 (s)", TablePrinter::num(r.makespan.quantile(0.95), 1)});
  table.row({"cost ($)", TablePrinter::pm(r.cost.mean(), r.cost.stddev(), 4)});
  table.row({"budget respected", TablePrinter::num(100 * r.valid_fraction, 1) + "%"});
  if (config.deadline > 0) {
    table.row({"deadline met", TablePrinter::num(100 * r.deadline_fraction, 1) + "%"});
    table.row({"objective (Eq. 3) met", TablePrinter::num(100 * r.objective_fraction, 1) + "%"});
  }
  table.row({"VMs", std::to_string(r.used_vms)});
  if (config.faults.enabled()) {
    table.row({"success (no failed tasks)",
               TablePrinter::num(100 * r.success_fraction, 1) + "%"});
    table.row({"crashes / run", TablePrinter::num(r.crashes_mean, 2)});
    table.row({"failed tasks / run", TablePrinter::num(r.failed_tasks_mean, 2)});
    table.row({"recovery cost ($/run)", TablePrinter::num(r.recovery_cost_mean, 4)});
    table.row({"wasted compute (s/run)", TablePrinter::num(r.wasted_compute_mean, 1)});
  }
  table.print(std::cout);
  obs_options.finish();
  return 0;
}

int cmd_sweep(const cli::Args& args) {
  const dag::Workflow wf =
      load_workflow(args.positional_at(0, "workflow file"), args.get_double("sigma", 0.5));
  const platform::Platform cloud = make_platform(args);
  // Default: every budget-aware, non-refining algorithm from the registry.
  const auto algorithms = resolve_algorithms(args.get_list(
      "algorithms", join_algorithms([](const sched::SchedulerInfo& info) {
        return info.needs_budget && !info.refining;
      })));
  const std::size_t points = args.get_size("points", 6);
  const std::size_t reps = args.get_size("reps", 10);

  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);
  const auto budgets = exp::budget_sweep(levels, points);

  // Build the request matrix and run it (parallel with --threads N).
  std::vector<exp::RunRequest> requests;
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    for (const std::string& algorithm : algorithms) {
      exp::RunRequest request;
      request.wf = &wf;
      request.algorithm = algorithm;
      request.budget = budgets[b];
      request.config.repetitions = reps;
      request.config.seed = args.get_size("seed", 7);
      read_fault_args(args, request.config);
      request.tag = "b";
      request.tag += std::to_string(b);
      requests.push_back(std::move(request));
    }
  }
  exp::RunPolicy policy;
  policy.run_timeout = args.get_double("run-timeout", 0.0);
  std::vector<exp::EvalResult> results;
  const std::size_t threads = args.get_threads(1);
  if (threads == 1) {
    results = exp::run_serial(cloud, requests, policy);
  } else {
    ThreadPool pool(threads);
    results = exp::run_parallel(cloud, requests, pool, policy);
  }

  TablePrinter table("budget sweep on " + wf.name() + " (makespan s | cost $ | %valid)");
  std::vector<std::string> columns{"budget($)"};
  for (const std::string& algorithm : algorithms) columns.push_back(algorithm);
  table.columns(std::move(columns));
  std::size_t index = 0;
  std::size_t degraded = 0;
  for (const Dollars budget : budgets) {
    std::vector<std::string> cells{TablePrinter::num(budget, 4)};
    for (std::size_t a = 0; a < algorithms.size(); ++a, ++index) {
      const exp::EvalResult& r = results[index];
      if (!r.ok()) {
        ++degraded;
        cells.push_back(std::string(to_string(r.status)) + " (" +
                        std::string(to_string(r.error_kind)) + ")");
        continue;
      }
      cells.push_back(TablePrinter::num(r.makespan.mean(), 0) + " | " +
                      TablePrinter::num(r.cost.mean(), 3) + " | " +
                      TablePrinter::num(100 * r.valid_fraction, 0) + "%");
    }
    table.row(std::move(cells));
  }
  table.print(std::cout);
  if (degraded > 0)
    std::cout << degraded << " degraded cell(s); see the status/error_kind CSV columns\n";

  if (args.has("csv")) {
    AtomicFile out(args.get("csv", "sweep.csv"));
    exp::write_results_csv(out.stream(), requests, results);
    out.commit();
    std::cout << "wrote " << args.get("csv", "sweep.csv")
              << "  (plot with scripts/plot_results.py)\n";
  }
  return 0;
}

int cmd_campaign(const cli::Args& args) {
  exp::CampaignConfig config;
  config.type = pegasus::parse_type(args.get("type", "montage"));
  config.tasks = args.get_size("tasks", 90);
  config.instances = args.get_size("instances", 3);
  config.sigma_ratio = args.get_double("sigma", 0.5);
  config.budget_points = args.get_size("points", 6);
  config.repetitions = args.get_size("reps", 10);
  // Default: every non-refining algorithm (baselines included); refinement
  // passes are opt-in because they dominate campaign run time.
  config.algorithms = resolve_algorithms(args.get_list(
      "algorithms",
      join_algorithms([](const sched::SchedulerInfo& info) { return !info.refining; })));
  config.seed = args.get_size("seed", 42);
  config.threads = args.get_threads(1);
  config.low_budget_factor = args.get_double("low-factor", 1.0);
  config.checkpoint_dir = args.get("checkpoint-dir", "");
  config.resume = args.has("resume");
  config.run_timeout = args.get_double("run-timeout", 0.0);
  config.apply_quick_mode();

  const exp::CampaignResult result = exp::run_campaign(make_platform(args), config);
  // Journal bookkeeping goes to stderr so a resumed campaign's stdout stays
  // byte-identical to an uninterrupted run (diffable in CI).
  if (!result.journal_path.empty())
    std::cerr << "checkpoint journal: " << result.journal_path << " ("
              << result.replayed_cells << " cells replayed)\n";
  const std::string family(pegasus::to_string(config.type));
  exp::print_campaign_table(std::cout, result, "makespan",
                            family + " campaign — makespan (s)");
  exp::print_campaign_table(std::cout, result, "cost", family + " campaign — spend ($)");
  exp::print_campaign_table(std::cout, result, "vms", family + " campaign — #VMs");
  exp::print_campaign_table(std::cout, result, "valid",
                            family + " campaign — valid fraction");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  exp::install_interrupt_handlers();
  // CLOUDWF_CHECK=1 (or -DCLOUDWF_CHECK=ON builds): validate every
  // simulated run against the paper's invariants, failing loudly on bugs.
  check::auto_check_from_env();
  const cli::Args args(argc, argv, {"online", "help", "resume", "profile"});
  const std::string& command = args.command();
  if (command.empty() || command == "help" || args.has("help")) {
    std::cout << usage;
    return 0;
  }
  if (args.has("profile")) obs::set_profiling(true);
  const auto dispatch = [&]() -> int {
    if (command == "generate") return cmd_generate(args);
    if (command == "info") return cmd_info(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "campaign") return cmd_campaign(args);
    std::cerr << "unknown command '" << command << "'\n\n" << usage;
    return 2;
  };
  const int code = dispatch();
  // Profile table on stderr: stdout stays byte-identical with/without it.
  if (obs::profiling_enabled()) std::cerr << obs::profile_report();
  return code;
} catch (const cloudwf::Interrupted& error) {
  // 128 + SIGINT, the conventional "killed by Ctrl-C" exit code.  The
  // checkpoint journal (if any) is already flushed and fsynced.
  std::cerr << "cloudwf: " << error.what() << '\n';
  return 130;
} catch (const std::exception& error) {
  std::cerr << "cloudwf: " << error.what() << '\n';
  return 1;
}
