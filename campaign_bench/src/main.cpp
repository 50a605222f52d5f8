/// \file main.cpp
/// \brief Campaign benchmark: end-to-end metrics of exp::run_parallel
/// over a workload's RunRequests (--trace 0), or per-layer metrics from a
/// traced run that makes the same per-cell calls layer by layer (--trace 1).
///
///   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
///                  [--work-dir DIR] [--hashes FILE]
///
/// The last stdout line is one JSON object: correct, attempted, failed and
/// metrics.  campaign_bench/README.md defines every metric.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "check/auto_check.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace cloudwf;
using namespace cloudwf::bench;

namespace {

constexpr std::uint64_t default_seed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = default_seed;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir = ".bench_build/campaign_bench/work";
  fs::path hashes;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    require(i + 1 < argc, "missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      options.workload = value;
    else if (flag == "--seed")
      options.seed = std::stoull(value);
    else if (flag == "--seconds")
      options.seconds = std::stod(value);
    else if (flag == "--trace")
      options.trace = value == "1";
    else if (flag == "--work-dir")
      options.work_dir = value;
    else if (flag == "--hashes")
      options.hashes = value;
    else
      throw InvalidArgument("unknown flag " + flag);
  }
  require(!options.workload.empty(), "--workload is required");
  require(options.seconds > 0, "--seconds must be positive");
  return options;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << value;
  return os.str();
}

/// Committed output hash of \p workload for the default seed, or "".
std::string expected_hash(const fs::path& file, const std::string& workload) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t seed = 0;
    std::string hash;
    if (line.starts_with('#') || !(fields >> name >> seed >> hash)) continue;
    if (name == workload && seed == default_seed) return hash;
  }
  return {};
}

/// Everything a round needs that stays fixed for the run.
struct Context {
  const WorkloadSpec& spec;
  std::uint64_t seed;
  std::vector<InputFile> inputs;
  fs::path journal_path;
  fs::path csv_path;
};

std::unique_ptr<exp::CheckpointJournal> open_journal(const Context& ctx) {
  if (!ctx.spec.journal) return nullptr;
  return std::make_unique<exp::CheckpointJournal>(ctx.journal_path.string(), /*resume=*/false);
}

void write_csv(const Context& ctx, const Campaign& campaign,
               const std::vector<exp::EvalResult>& results) {
  std::ofstream out(ctx.csv_path);
  exp::write_results_csv(out, campaign.requests, results);
  require(static_cast<bool>(out), "cannot write " + ctx.csv_path.string());
}

/// What one campaign round measured.
struct Round {
  double setup_s = 0;  ///< start to the run_parallel call (first dispatch)
  double cells_s = 0;  ///< the run_parallel call
  double wall_s = 0;   ///< set-up, cells and CSV
  std::vector<double> schedule_ms;
  std::size_t cells = 0;
  std::size_t degraded = 0;
  std::uint64_t hash = 0;
};

void summarize(Round& round, const std::vector<exp::EvalResult>& results) {
  round.cells = results.size();
  for (const exp::EvalResult& r : results) {
    round.schedule_ms.push_back(1e3 * r.schedule_seconds);
    if (!r.ok()) {
      ++round.degraded;
      std::cerr << "campaign_bench: degraded cell (" << exp::to_string(r.status)
                << "): " << r.error_message << "\n";
    }
  }
  round.hash = hash_results(results);
}

/// One untraced round through the public campaign entry point.  The
/// round's campaign is handed back in \p campaign for the checked pass.
Round untraced_round(const Context& ctx, ThreadPool& pool, std::unique_ptr<Campaign>& campaign) {
  Round round;
  const auto t0 = Clock::now();
  campaign = set_up(ctx.spec, ctx.seed, ctx.inputs, nullptr);
  exp::RunPolicy policy;
  policy.fingerprint_salt = campaign->fingerprint_salt;
  const auto journal = open_journal(ctx);
  policy.journal = journal.get();
  const auto t1 = Clock::now();
  const auto results = exp::run_parallel(campaign->platform, campaign->requests, pool, policy);
  const auto t2 = Clock::now();
  write_csv(ctx, *campaign, results);
  const auto t3 = Clock::now();
  round.setup_s = seconds_between(t0, t1);
  round.cells_s = seconds_between(t1, t2);
  round.wall_s = seconds_between(t0, t3);
  summarize(round, results);
  return round;
}

/// Per-layer figures of one traced round.
struct TracedRound {
  Round round;
  std::array<double, layer_count> self_ms{};
  CellWork work;
  SetupWork setup;
  std::size_t plan_builds = 0;
  std::size_t journal_appends = 0;
  std::uintmax_t journal_bytes = 0;
};

TracedRound traced_round(const Context& ctx, ThreadPool& pool, Tracer& tracer,
                         std::uint32_t index) {
  TracedRound traced;
  Round& round = traced.round;
  tracer.set_round(index);
  std::vector<exp::EvalResult> results;
  const auto t0 = Clock::now();
  {
    const Tracer::Scope span(&tracer, Layer::round);
    const auto campaign = set_up(ctx.spec, ctx.seed, ctx.inputs, &tracer);
    const auto journal = open_journal(ctx);
    const auto t1 = Clock::now();
    const std::size_t n = campaign->requests.size();
    sched::PlanCache plans;
    results.resize(n);
    std::vector<CellWork> work(n);
    pool.parallel_for(n, [&](std::size_t i) {
      results[i] = traced_cell(*campaign, i, plans, journal.get(), tracer, work[i]);
    });
    const auto t2 = Clock::now();
    {
      const Tracer::Scope csv(&tracer, Layer::csv);
      write_csv(ctx, *campaign, results);
    }
    round.setup_s = seconds_between(t0, t1);
    round.cells_s = seconds_between(t1, t2);
    for (const CellWork& w : work) traced.work += w;
    traced.setup = campaign->work;
    traced.plan_builds = plans.size();
    if (journal) {
      traced.journal_appends = journal->recorded();
      traced.journal_bytes = fs::file_size(ctx.journal_path);
    }
  }
  round.wall_s = seconds_between(t0, Clock::now());
  traced.self_ms = tracer.self_ms(index);
  summarize(round, results);
  return traced;
}

/// Untimed pass under the invariant checker: one cell of \p campaign per
/// (task count, algorithm, family).  Returns the number of cells that
/// failed a check.
std::size_t checked_pass(const Campaign& campaign, ThreadPool& pool) {
  std::vector<exp::RunRequest> picked;
  std::set<std::string> seen;
  for (const exp::RunRequest& request : campaign.requests) {
    const std::string family = request.tag.substr(0, request.tag.find(';'));
    const std::string key = request.algorithm + "/" + family + "/" +
                            std::to_string(request.wf->task_count());
    if (!seen.insert(key).second) continue;
    picked.push_back(request);
    // The checker covers the schedule on every repetition; a few keep the
    // pass short next to the timed rounds.
    picked.back().config.repetitions = std::min<std::size_t>(request.config.repetitions, 5);
  }
  check::install_auto_check();
  const auto results = exp::run_parallel(campaign.platform, picked, pool);
  check::uninstall_auto_check();
  std::size_t violations = 0;
  for (const exp::EvalResult& r : results) {
    if (r.ok()) continue;
    ++violations;
    std::cerr << "campaign_bench: check pass: " << r.algorithm << ": " << r.error_message << "\n";
  }
  return violations;
}

/// Cell value with exactly ten cells above it in a round of \p n cells,
/// i.e. the (n - 10) / n quantile.
double tail_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.size() > 10 ? values[values.size() - 11] : values.back();
}

/// Peak resident set of this process image (VmHWM).  getrusage's ru_maxrss
/// is not used: it keeps the launching process's peak from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // in kB
  throw Error("no VmHWM in /proc/self/status");
}

/// Writes the inputs from a child process, so that the generator's memory
/// stays out of this process's peak RSS.
void write_inputs_in_child(const WorkloadSpec& spec, std::uint64_t seed,
                           std::span<const InputFile> files) {
  std::cout.flush();
  const pid_t child = fork();
  require(child >= 0, "cannot fork the input generator");
  if (child == 0) {
    int code = 0;
    try {
      write_inputs(spec, seed, files);
    } catch (const std::exception& error) {
      std::cerr << "campaign_bench: input generation: " << error.what() << "\n";
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  require(waitpid(child, &status, 0) == child && WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "input generation failed");
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    os_ << (first_ ? "" : ", ") << '"' << name << "\": {\"value\": " << std::string(buf, end)
        << ", \"unit\": \"" << unit << "\"}";
    first_ = false;
  }
  [[nodiscard]] std::string str() const {
    std::string json = "{";
    json += os_.str();
    json += '}';
    return json;
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

void end_to_end_metrics(MetricsJson& m, std::span<const Round> rounds, double rss_mb,
                        std::size_t attempted, std::size_t degraded) {
  // Each cell's schedule time is its median over the rounds; p50 and tail
  // are taken over those per-cell times.
  std::vector<double> rate, setup, cell_ms;
  for (const Round& r : rounds) {
    rate.push_back(static_cast<double>(r.cells) / r.cells_s);
    setup.push_back(r.setup_s);
  }
  for (std::size_t i = 0; i < rounds.front().schedule_ms.size(); ++i) {
    std::vector<double> samples;
    for (const Round& r : rounds) samples.push_back(r.schedule_ms[i]);
    cell_ms.push_back(median(samples));
  }
  m.add("cells_per_s", median(rate), "cells/s");
  m.add("schedule_ms_p50", median(cell_ms), "ms");
  m.add("schedule_ms_tail", tail_of(cell_ms), "ms");
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mb", rss_mb, "MB");
  m.add("cells_ok_frac", 1.0 - ratio(static_cast<double>(degraded), static_cast<double>(attempted)),
        "ratio");
}

void per_layer_metrics(MetricsJson& m, const std::vector<TracedRound>& traced,
                       std::span<const Round> untraced, std::size_t executors) {
  // Times: medians over traced rounds.  Counts: the last traced round (they
  // repeat exactly from round to round).
  const auto layer_ms = [&](Layer layer) {
    std::vector<double> v;
    for (const TracedRound& t : traced) v.push_back(t.self_ms[static_cast<std::size_t>(layer)]);
    return median(v);
  };
  const TracedRound& last = traced.back();
  const CellWork& w = last.work;
  const double list_ms = layer_ms(Layer::list);
  const double refine_ms = layer_ms(Layer::refine);
  const double sim_ms = layer_ms(Layer::sim);

  std::vector<double> wall, untraced_wall, accounted, runner_self;
  for (const TracedRound& t : traced) {
    const auto ms = [&](Layer layer) { return t.self_ms[static_cast<std::size_t>(layer)]; };
    const double serial = ms(Layer::dag_load) + ms(Layer::budget_levels) + ms(Layer::csv);
    const double cells = ms(Layer::cell) + ms(Layer::plan) + ms(Layer::list) +
                         ms(Layer::refine) + ms(Layer::sim) + ms(Layer::journal);
    // Cell layers run on `executors` threads at once: their thread time
    // divided by the thread count is their share of the wall time.
    const double layers = serial + cells / static_cast<double>(executors);
    wall.push_back(1e3 * t.round.wall_s);
    accounted.push_back(layers / (1e3 * t.round.wall_s));
    runner_self.push_back(1e3 * t.round.wall_s - layers);
  }
  for (const Round& r : untraced) untraced_wall.push_back(1e3 * r.wall_s);

  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  m.add("dag.load_ms", layer_ms(Layer::dag_load), "ms");
  m.add("dag.load_bytes", n(last.setup.bytes), "bytes");
  m.add("budget_levels.ms", layer_ms(Layer::budget_levels), "ms");
  m.add("budget_levels.sims", n(last.setup.level_sims), "count");
  m.add("plan.ms", layer_ms(Layer::plan), "ms");
  m.add("plan.builds", n(last.plan_builds), "count");
  m.add("plan.hit_ratio", 1.0 - ratio(n(last.plan_builds), n(w.plan_gets)), "ratio");
  m.add("list.ms", list_ms, "ms");
  m.add("list.calls", n(w.list_calls), "count");
  m.add("list.probes", n(w.probes), "count");
  m.add("list.probes_per_s", ratio(n(w.probes), list_ms / 1e3), "1/s");
  m.add("list.probes_per_task", ratio(n(w.probes), n(w.list_tasks)), "count");
  m.add("refine.ms", refine_ms, "ms");
  m.add("refine.sims", n(w.refine.runs), "count");
  m.add("refine.events", n(w.refine.events), "count");
  m.add("refine.moves", n(w.refine_moves), "count");
  m.add("refine.accept_ratio", ratio(n(w.refine_moves), n(w.refine.runs)), "ratio");
  m.add("refine.sims_per_s", ratio(n(w.refine.runs), refine_ms / 1e3), "1/s");
  m.add("sim.ms", sim_ms, "ms");
  m.add("sim.runs", n(w.sim.runs), "count");
  m.add("sim.runs_per_s", ratio(n(w.sim.runs), sim_ms / 1e3), "1/s");
  m.add("sim.events", n(w.sim.events), "count");
  m.add("sim.events_per_s", ratio(n(w.sim.events), sim_ms / 1e3), "1/s");
  m.add("sim.failed_task_frac", ratio(n(w.sim.failed_tasks), n(w.sim.tasks)), "ratio");
  m.add("sim.transfer_retries", n(w.sim.transfer_retries), "count");
  m.add("cell.glue_ms", layer_ms(Layer::cell), "ms");
  m.add("journal.ms", layer_ms(Layer::journal), "ms");
  m.add("journal.appends", n(last.journal_appends), "count");
  m.add("journal.bytes", n(last.journal_bytes), "bytes");
  m.add("runner.csv_ms", layer_ms(Layer::csv), "ms");
  m.add("runner.self_ms", median(runner_self), "ms");
  m.add("trace.wall_ms", median(wall), "ms");
  m.add("trace.untraced_wall_ms", median(untraced_wall), "ms");
  m.add("trace.overhead_ratio", ratio(median(wall), median(untraced_wall)), "ratio");
  m.add("trace.accounted_frac", median(accounted), "ratio");
}

int run(const Options& options) {
  require(std::getenv("CLOUDWF_CHECK") == nullptr,
          "refusing to run with CLOUDWF_CHECK set: the invariant checker shares the "
          "post-run hook the benchmark counts with, and would be timed");
  require(std::string_view(CAMPAIGN_BENCH_BUILD_TYPE) == "Release",
          "refusing to run a non-Release build (" CAMPAIGN_BENCH_BUILD_TYPE ")");

  const auto process_start = Clock::now();
  const WorkloadSpec& spec = find_workload(options.workload);
  const fs::path work_dir = options.work_dir;
  fs::create_directories(work_dir);
  Context ctx{spec, options.seed,
              input_files(spec, work_dir / "inputs" /
                                    (spec.name + "-" + std::to_string(options.seed))),
              work_dir / (spec.name + ".journal.jsonl"), work_dir / (spec.name + ".csv")};
  write_inputs_in_child(spec, options.seed, ctx.inputs);

  std::cerr << "campaign_bench: inputs written in " << seconds_between(process_start, Clock::now())
            << " s\n";

  const std::size_t hardware = std::max(1U, std::thread::hardware_concurrency());
  // Runner threads, the caller included: min(4, nproc), at least 2.
  const std::size_t executors = std::max<std::size_t>(2, std::min<std::size_t>(4, hardware));
  ThreadPool pool(executors - 1);  // parallel_for's caller is the last executor

  std::size_t attempted = 0;
  std::size_t degraded = 0;
  std::set<std::uint64_t> hashes;
  const auto account = [&](const Round& r) {
    attempted += r.cells;
    degraded += r.degraded;
    hashes.insert(r.hash);
  };

  std::vector<Round> rounds;
  std::unique_ptr<Campaign> campaign;
  std::vector<TracedRound> traced;
  Tracer tracer;
  const auto start = Clock::now();
  do {
    rounds.push_back(untraced_round(ctx, pool, campaign));
    account(rounds.back());
    std::cerr << "campaign_bench: round " << rounds.size() << ": set-up " << rounds.back().setup_s
              << " s, cells " << rounds.back().cells_s << " s\n";
    if (options.trace) {
      install_sim_counter();
      traced.push_back(traced_round(ctx, pool, tracer, static_cast<std::uint32_t>(traced.size())));
      uninstall_sim_counter();
      account(traced.back().round);
    }
  } while (seconds_between(start, Clock::now()) < options.seconds || rounds.size() < 2);
  const double rss_mb = peak_rss_mb();
  // The first round warms caches and the allocator; it is checked, not timed.
  const std::span<const Round> timed(rounds.begin() + 1, rounds.end());

  const auto check_start = Clock::now();
  std::size_t failed = checked_pass(*campaign, pool) + degraded;
  std::cerr << "campaign_bench: check pass " << seconds_between(check_start, Clock::now())
            << " s\n";
  bool correct = failed == 0;
  if (hashes.size() != 1) {
    std::cerr << "campaign_bench: output hash differs between rounds\n";
    correct = false;
    ++failed;
  }
  const std::string hash = hex(*hashes.begin());
  std::cout << "campaign_bench: " << spec.name << " seed " << options.seed << " output hash "
            << hash << "\n";
  if (options.seed == default_seed) {
    const std::string expected = expected_hash(options.hashes, spec.name);
    if (expected != hash) {
      std::cerr << "campaign_bench: output hash " << hash << " differs from the committed "
                << (expected.empty() ? "(none)" : expected) << "\n";
      correct = false;
      ++failed;
    }
  }
  if (options.trace)
    tracer.write_chrome_trace(work_dir / (spec.name + "-" + std::to_string(options.seed) +
                                          ".trace.json"));

  MetricsJson metrics;
  if (options.trace)
    per_layer_metrics(metrics, traced, timed, executors);
  else
    end_to_end_metrics(metrics, timed, rss_mb, attempted, degraded);
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << metrics.str() << "}"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "campaign_bench: " << error.what() << "\n";
    return 2;
  }
}
