#include "workload.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "exp/budget_levels.hpp"
#include "tracer.hpp"

namespace cloudwf::bench {

namespace {

using pegasus::WorkflowType;

std::vector<WorkloadSpec> make_workloads() {
  constexpr auto paper_types = pegasus::all_types();
  constexpr auto all_types = pegasus::extended_types();
  const std::vector<WorkflowType> paper(paper_types.begin(), paper_types.end());
  const std::vector<WorkflowType> all(all_types.begin(), all_types.end());
  std::vector<WorkloadSpec> specs;

  // Re-simulation inside sched.refine dominates (HEFTBUDG+, CG+).  CG+ runs
  // at 30 tasks because one 90-task CG+ cell takes seconds.
  WorkloadSpec refine90;
  refine90.name = "refine90";
  refine90.families = paper;
  refine90.groups = {
      {90, {"minmin-budg-plus", "heft-budg-plus", "heft-budg-plus-inv"}, 2, {1.1, 1.4}},
      {30, {"cg-plus"}, 2, {1.1, 1.4}},
  };
  refine90.repetitions = 10;
  specs.push_back(refine90);

  // The list pass and the plain simulator carry the load at 1000 tasks.
  WorkloadSpec scale1000;
  scale1000.name = "scale1000";
  scale1000.families = all;
  scale1000.groups = {{1000, {"minmin", "minmin-budg", "bdt", "heft-budg", "cg"}, 1, {1.05, 1.5}}};
  scale1000.repetitions = 25;
  specs.push_back(scale1000);

  // DAX loading, fluid network contention, fault recovery and the journal.
  WorkloadSpec faults300;
  faults300.name = "faults300";
  faults300.families = all;
  faults300.groups = {{300, {"minmin-budg", "heft-budg"}, 2, {1.05, 1.5}}};
  faults300.dax = true;
  faults300.repetitions = 100;
  faults300.contention_factor = 4.0;
  faults300.faults.p_boot_fail = 0.05;
  faults300.faults.lambda_crash = 0.25;
  faults300.faults.p_transfer_fail = 0.005;
  faults300.recovery_cap_factor = 1.5;
  faults300.journal = true;
  specs.push_back(faults300);
  return specs;
}

/// SplitMix64 finalizer: decorrelates derived seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string file_name(const WorkloadSpec& spec, const CellGroup& group, WorkflowType family,
                      std::size_t instance) {
  return std::string(pegasus::to_string(family)) + "-" + std::to_string(group.tasks) + "-" +
         std::to_string(instance) + (spec.dax ? ".dax" : ".json");
}

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) hash_ = (hash_ ^ p[i]) * 0x100000001B3ULL;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void samples(const Summary& summary) {
    std::vector<double> values = summary.values();
    std::sort(values.begin(), values.end());
    u64(values.size());
    for (const double v : values) f64(v);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

const WorkloadSpec& find_workload(std::string_view name) {
  static const std::vector<WorkloadSpec> specs = make_workloads();
  for (const WorkloadSpec& spec : specs)
    if (spec.name == name) return spec;
  throw InvalidArgument("unknown workload '" + std::string(name) +
                        "' (refine90, scale1000, faults300)");
}

std::size_t cell_count(const WorkloadSpec& spec) {
  std::size_t cells = 0;
  for (const CellGroup& group : spec.groups)
    cells += spec.families.size() * group.instances * group.budget_factors.size() *
             group.algorithms.size();
  return cells;
}

std::vector<InputFile> input_files(const WorkloadSpec& spec, const std::filesystem::path& dir) {
  std::vector<InputFile> files;
  for (std::size_t g = 0; g < spec.groups.size(); ++g)
    for (const WorkflowType family : spec.families)
      for (std::size_t inst = 0; inst < spec.groups[g].instances; ++inst)
        files.push_back({dir / file_name(spec, spec.groups[g], family, inst), g, family, inst});
  return files;
}

void write_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                  std::span<const InputFile> files) {
  for (const InputFile& file : files) {
    const std::size_t tasks = spec.groups[file.group].tasks;
    const std::uint64_t instance_seed =
        mix(seed) ^ (tasks * 7919 + static_cast<std::uint64_t>(file.family) * 101 + file.instance);
    const dag::Workflow wf =
        pegasus::generate(file.family, {tasks, instance_seed, /*stddev_ratio=*/0.5});
    std::filesystem::create_directories(file.path.parent_path());
    if (spec.dax)
      dag::save_dax(wf, file.path.string());
    else
      dag::save_json(wf, file.path.string());
  }
}

std::unique_ptr<Campaign> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::span<const InputFile> inputs, Tracer* tracer) {
  auto campaign = std::make_unique<Campaign>(Campaign{
      spec.contention_factor > 0 ? platform::paper_platform_with_contention(spec.contention_factor)
                                 : platform::paper_platform(),
      {}, {}, 0, {}});
  Fnv salt;
  salt.str(spec.name);
  salt.u64(seed);
  campaign->fingerprint_salt = salt.value();
  Campaign& c = *campaign;
  c.workflows.reserve(inputs.size());

  std::vector<exp::BudgetLevels> levels;
  levels.reserve(inputs.size());
  for (const InputFile& input : inputs) {
    {
      const Tracer::Scope span(tracer, Layer::dag_load);
      c.workflows.push_back(spec.dax ? dag::load_dax(input.path.string())
                                     : dag::load_json(input.path.string()));
      c.work.bytes += std::filesystem::file_size(input.path);
    }
    const Tracer::Scope span(tracer, Layer::budget_levels);
    const SimCounts before = thread_sim_counts();
    levels.push_back(exp::compute_budget_levels(c.workflows.back(), c.platform));
    c.work.level_sims += (thread_sim_counts() - before).runs;
  }

  // Request order: group, algorithm, input file, budget.  Algorithms are
  // listed slowest first, so the longest cells are dispatched first and the
  // round does not end on one straggler.
  c.requests.reserve(cell_count(spec));
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    const CellGroup& group = spec.groups[g];
    for (const std::string& algorithm : group.algorithms) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const InputFile& input = inputs[i];
        if (input.group != g) continue;
        for (std::size_t b = 0; b < group.budget_factors.size(); ++b) {
          exp::RunRequest request;
          request.wf = &c.workflows[i];
          request.algorithm = algorithm;
          request.budget = group.budget_factors[b] * levels[i].min_cost;
          request.config.repetitions = spec.repetitions;
          request.config.seed = mix(seed * 1000003 + c.requests.size());
          request.config.measure_cpu_time = true;
          if (spec.faults.enabled()) {
            request.config.faults = spec.faults;
            request.config.faults.seed = mix(spec.faults.seed ^ seed);
            request.config.recovery.budget_cap = spec.recovery_cap_factor * request.budget;
          }
          request.tag = std::string(pegasus::to_string(input.family)) +
                        ";inst=" + std::to_string(input.instance) + ";b=" + std::to_string(b);
          c.requests.push_back(std::move(request));
        }
      }
    }
  }
  require(c.requests.size() == cell_count(spec), "set_up: cell count mismatch");
  return campaign;
}

std::uint64_t hash_results(std::span<const exp::EvalResult> results) {
  Fnv h;
  h.u64(results.size());
  for (const exp::EvalResult& r : results) {
    h.str(r.algorithm);
    h.f64(r.budget);
    h.u64(static_cast<std::uint64_t>(r.status));
    h.u64(static_cast<std::uint64_t>(r.error_kind));
    h.str(r.error_message);
    h.f64(r.predicted_makespan);
    h.f64(r.predicted_cost);
    h.u64(r.predicted_feasible ? 1 : 0);
    h.u64(r.used_vms);
    h.samples(r.makespan);
    h.samples(r.cost);
    for (const double v :
         {r.valid_fraction, r.deadline_fraction, r.objective_fraction, r.success_fraction,
          r.crashes_mean, r.failed_tasks_mean, r.recovery_cost_mean, r.wasted_compute_mean,
          r.queue_wait_p50, r.queue_wait_p95, r.queue_wait_p99, r.vm_util_mean,
          r.transfer_retries_mean, r.budget_headroom_mean})
      h.f64(v);
  }
  return h.value();
}

}  // namespace cloudwf::bench
