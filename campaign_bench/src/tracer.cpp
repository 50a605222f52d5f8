#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "common/error.hpp"
#include "sched/eft.hpp"
#include "sched/heft.hpp"
#include "sched/minmin.hpp"
#include "sched/refine.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "workload.hpp"

namespace cloudwf::bench {

namespace {

constexpr std::array<std::string_view, layer_count> layer_names{
    "exp.runner", "dag",  "exp.budget_levels", "exp.cell",       "sched.plan",
    "sched.list", "sched.refine", "sim",       "exp.checkpoint", "exp.runner.csv"};

std::string_view layer_name(Layer layer) { return layer_names[static_cast<std::size_t>(layer)]; }

thread_local SimCounts thread_counts;

void count_run(const dag::Workflow& /*wf*/, const platform::Platform& /*platform*/,
               const sim::Schedule& /*schedule*/, const sim::SimResult& result) {
  ++thread_counts.runs;
  thread_counts.events += result.events_processed;
  thread_counts.tasks += result.tasks.size();
  thread_counts.failed_tasks += result.faults.failed_tasks;
  thread_counts.transfer_retries += result.faults.transfer_failures;
}

/// Exposes Scheduler::finish (compaction + conservative prediction), so the
/// traced refining path packages its output exactly as the schedulers do.
struct Finisher : sched::Scheduler {
  using Scheduler::finish;
};

/// How a refining algorithm splits into a base list pass and refinement.
struct RefiningSplit {
  std::string_view name;
  bool heft_base;  ///< HEFTBUDG pass (else MIN-MINBUDG)
  bool reversed;   ///< visit order reversed (HEFTBUDG+INV)
};
constexpr std::array<RefiningSplit, 3> refining_splits{{
    {"heft-budg-plus", true, false},
    {"heft-budg-plus-inv", true, true},
    {"minmin-budg-plus", false, false},
}};

/// Runs \p body as one list-pass call and counts its probes.
template <typename Body>
auto counted_list_call(Tracer& tracer, const sched::SchedulerInput& input, CellWork& work,
                       Body&& body) {
  const Tracer::Scope span(&tracer, Layer::list);
  const std::size_t probes = sched::probe_count();
  auto out = body();
  work.probes += sched::probe_count() - probes;
  ++work.list_calls;
  work.list_tasks += input.wf.task_count();
  return out;
}

sched::SchedulerOutput traced_schedule(const sched::SchedulerInput& input,
                                       const std::string& algorithm, Tracer& tracer,
                                       CellWork& work) {
  if (!sched::scheduler_info(algorithm).refining) {
    const auto scheduler = sched::make_scheduler(algorithm);
    return counted_list_call(tracer, input, work, [&] { return scheduler->schedule(input); });
  }

  if (algorithm == "cg-plus") {
    // CG+ has no public split: the whole call, its CG base pass included,
    // is one refine span.
    const Tracer::Scope span(&tracer, Layer::refine);
    const SimCounts before = thread_sim_counts();
    sched::SchedulerOutput out = sched::make_scheduler("cg-plus")->schedule(input);
    work.refine += thread_sim_counts() - before;
    return out;
  }

  const auto split = std::find_if(refining_splits.begin(), refining_splits.end(),
                                  [&](const RefiningSplit& s) { return s.name == algorithm; });
  require(split != refining_splits.end(), "traced_schedule: no split for '" + algorithm + "'");
  std::vector<dag::TaskId> order;
  sim::Schedule schedule = counted_list_call(tracer, input, work, [&] {
    return split->heft_base ? sched::HeftScheduler::run_list_pass(input, true, order)
                            : sched::MinMinScheduler::run_list_pass(input, true, order);
  });
  if (split->reversed) std::reverse(order.begin(), order.end());

  const Tracer::Scope span(&tracer, Layer::refine);
  const SimCounts before = thread_sim_counts();
  work.refine_moves += sched::refine_by_resimulation(input, schedule, order);
  sched::SchedulerOutput out = Finisher::finish(input, std::move(schedule));
  work.refine += thread_sim_counts() - before;
  return out;
}

}  // namespace

struct Tracer::Buffer {
  std::uint32_t thread = 0;
  std::int32_t open = -1;  ///< innermost open span, -1 when none
  struct Span {
    Layer layer;
    std::uint32_t round;
    std::int32_t parent;  ///< same-thread parent index, -1 for a thread root
    std::int64_t cell;    ///< request index, -1 outside cells
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans;
};

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

Tracer::Buffer& Tracer::local_buffer() {
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    const std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(4096);
    buffer = buffers_.back().get();
    owner = this;
  }
  return *buffer;
}

void Tracer::set_round(std::uint32_t round) { round_ = round; }

Tracer::Scope::Scope(Tracer* tracer, Layer layer, std::int64_t cell) {
  if (tracer == nullptr) return;
  buffer_ = &tracer->local_buffer();
  index_ = buffer_->spans.size();
  const std::int32_t parent = buffer_->open;
  if (cell < 0 && parent >= 0) cell = buffer_->spans[static_cast<std::size_t>(parent)].cell;
  buffer_->spans.push_back({layer, tracer->round_, parent, cell, Clock::now(), {}});
  buffer_->open = static_cast<std::int32_t>(index_);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  auto& span = buffer_->spans[index_];
  span.end = Clock::now();
  buffer_->open = span.parent;
}

std::array<double, layer_count> Tracer::self_ms(std::uint32_t round) const {
  std::array<double, layer_count> total{};
  const std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::vector<double> self(buffer->spans.size());
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const auto& span = buffer->spans[i];
      const double ms = std::chrono::duration<double, std::milli>(span.end - span.start).count();
      self[i] += ms;
      if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= ms;
    }
    for (std::size_t i = 0; i < buffer->spans.size(); ++i)
      if (buffer->spans[i].round == round)
        total[static_cast<std::size_t>(buffer->spans[i].layer)] += self[i];
  }
  return total;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  require(static_cast<bool>(out), "cannot write trace file " + path.string());
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  bool first = true;
  const std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const auto& span = buffer->spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << layer_name(span.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << buffer->thread << ",\"ts\":" << us(span.start)
          << ",\"dur\":" << us(span.end) - us(span.start) << ",\"args\":{\"round\":" << span.round
          << ",\"cell\":" << span.cell << ",\"parent\":" << span.parent << ",\"id\":" << i
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  require(static_cast<bool>(out), "failed writing trace file " + path.string());
}

SimCounts& SimCounts::operator+=(const SimCounts& other) {
  runs += other.runs;
  events += other.events;
  tasks += other.tasks;
  failed_tasks += other.failed_tasks;
  transfer_retries += other.transfer_retries;
  return *this;
}

SimCounts SimCounts::operator-(const SimCounts& other) const {
  return {runs - other.runs, events - other.events, tasks - other.tasks,
          failed_tasks - other.failed_tasks, transfer_retries - other.transfer_retries};
}

void install_sim_counter() { sim::set_post_run_check(&count_run); }
void uninstall_sim_counter() { sim::set_post_run_check(nullptr); }
SimCounts thread_sim_counts() { return thread_counts; }

CellWork& CellWork::operator+=(const CellWork& other) {
  plan_gets += other.plan_gets;
  list_calls += other.list_calls;
  list_tasks += other.list_tasks;
  probes += other.probes;
  refine += other.refine;
  refine_moves += other.refine_moves;
  sim += other.sim;
  return *this;
}

exp::EvalResult traced_cell(const Campaign& campaign, std::size_t index,
                            sched::PlanCache& plans, exp::CheckpointJournal* journal,
                            Tracer& tracer, CellWork& work) {
  const Tracer::Scope cell(&tracer, Layer::cell, static_cast<std::int64_t>(index));
  const exp::RunRequest& request = campaign.requests[index];
  const sched::WorkflowPlan* plan = nullptr;
  {
    const Tracer::Scope span(&tracer, Layer::plan);
    plan = &plans.get(*request.wf, campaign.platform);
    ++work.plan_gets;
  }
  const sched::SchedulerInput input =
      sched::make_input(*request.wf, campaign.platform, request.budget, nullptr, plan);
  const auto t0 = Clock::now();
  const sched::SchedulerOutput output = traced_schedule(input, request.algorithm, tracer, work);
  const auto t1 = Clock::now();

  exp::EvalResult result;
  {
    const Tracer::Scope span(&tracer, Layer::sim);
    const SimCounts before = thread_sim_counts();
    result = exp::evaluate_schedule(*request.wf, campaign.platform, output, request.algorithm,
                                    request.budget, request.config);
    work.sim += thread_sim_counts() - before;
  }
  result.schedule_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (journal != nullptr) {
    const Tracer::Scope span(&tracer, Layer::journal);
    journal->record(exp::fingerprint_request(request, campaign.fingerprint_salt), result);
  }
  return result;
}

}  // namespace cloudwf::bench
