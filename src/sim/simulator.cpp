#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "platform/pricing.hpp"
#include "sim/fluid.hpp"

// Observability emission uses designated initializers and leaves the
// kind-irrelevant obs::Event fields at their defaults on purpose.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace cloudwf::sim {

namespace {

constexpr Seconds infinity = std::numeric_limits<Seconds>::infinity();

/// This thread's engine_counters().
thread_local EngineCounters counters;

/// Relative margin of a sweep's screening: a candidate is screened when its
/// lower bound exceeds the threshold by more than this fraction, and a
/// simulated candidate whose makespan falls below its bound by more than
/// this fraction reveals a bug in the engine or the bound.
constexpr double bound_margin = 1e-9;

/// Direction of a transfer relative to the VM.
enum class Direction { upload, download };

/// What a completed flow means.
enum class JobKind { edge_upload, ext_output_upload, edge_download, ext_input_download };

struct TransferJob {
  JobKind kind{};
  VmId vm = invalid_vm;
  dag::EdgeId edge = 0;                  // for edge_* kinds
  dag::TaskId task = dag::invalid_task;  // producer (uploads) / consumer (downloads)
  Bytes bytes = 0;
  std::size_t attempts = 0;  // failed attempts so far (fault injection)
  Seconds started = 0;       // last flow start (observability slice origin)
};

/// Engine events other than flow completions.
struct Event {
  Seconds time = 0;
  std::uint64_t seq = 0;  // insertion order; makes ties deterministic
  enum class Kind { boot_done, task_done, timeout, crash, transfer_retry } kind{};
  VmId vm = invalid_vm;
  dag::TaskId task = dag::invalid_task;
  std::uint32_t epoch = 0;  // task (re)start generation; stale events are dropped
  std::size_t job = 0;      // TransferJob index (transfer_retry only)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// FIFO of pending TransferJob indexes on one VM link: a vector and a head
/// index.  Draining it rewinds both, so its storage survives for later jobs
/// and later runs (a std::deque allocates even while empty).
class LinkQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  void push_back(std::size_t job) { items_.push_back(job); }
  std::size_t pop_front() {
    const std::size_t job = items_[head_++];
    if (empty()) clear();
    return job;
  }
  void clear() {
    items_.clear();
    head_ = 0;
  }
  /// Drops the pending jobs matching \p pred, keeping the order of the rest.
  template <class Pred>
  void erase_if(Pred pred) {
    const auto pending = items_.begin() + static_cast<std::ptrdiff_t>(head_);
    items_.erase(std::remove_if(pending, items_.end(), pred), items_.end());
    if (empty()) clear();
  }

 private:
  std::vector<std::size_t> items_;
  std::size_t head_ = 0;
};

/// The mutable state of one execution: what every run resets in place and
/// what a paused run hands over to a copy (Simulator::sweep_moves).  Plain
/// copy-assignable data; the pooled per-VM plans and link queues and the
/// per-run scratch live in the Engine, which copies the pools by hand.
struct EngineState {
  enum class BootState { unrequested, booting, up };

  struct VmState {
    BootState boot = BootState::unrequested;
    Seconds boot_request = 0;
    Seconds boot_done = 0;
    Seconds end = 0;   // last activity
    Seconds busy = 0;  // total compute time
    std::size_t next_start_idx = 0;
    std::uint32_t free_procs = 0;
    bool uplink_busy = false;
    bool downlink_busy = false;
    std::size_t tasks_done = 0;
    // Fault bookkeeping.  A dead VM computes nothing and bills nothing past
    // `end`, but its persistent volume can still drain already-produced data
    // through the datacenter.
    bool dead = false;
    bool crashed = false;
    bool recovery_vm = false;
    std::size_t boot_attempts = 0;
  };

  struct TaskState {
    std::size_t remote_in_pending = 0;  // downloads not yet finished
    std::size_t local_in_pending = 0;   // same-VM predecessors not finished
    std::size_t dc_in_pending = 0;      // cross-VM inputs not yet at the DC
    bool started = false;
    bool finished = false;
    bool failed = false;  // terminal: will never (re)run / output lost
    std::uint32_t epoch = 0;  // bumped on every interruption
    Seconds gate_time = 0;
    dag::TaskId gate_task = dag::invalid_task;
  };

  explicit EngineState(const platform::Platform& platform)
      : fluid_(platform.bandwidth(), platform.dc_aggregate_bandwidth()) {}

  FluidNetwork fluid_;

  // ---- per-run inputs (set by init) ----------------------------------------
  const Schedule* schedule_ = nullptr;
  const dag::WeightRealization* weights_ = nullptr;
  RunOptions options_;                     // a copy: the run needs no caller storage
  bool obs_ = false;                       // cached bus_ && bus_->enabled()
  std::optional<FaultInjector> injector_;  // engaged only for an enabled model

  // Mutable mapping (seeded from schedule_, extended by migrations/recovery).
  std::vector<VmId> vm_of_;

  std::vector<VmState> vms_;
  std::vector<TaskState> tasks_;
  std::vector<Seconds> edge_at_dc_;        // -1 until uploaded (cross-VM edges only)
  std::vector<bool> edge_needs_transfer_;  // vm_of_[src] != vm_of_[dst]
  std::vector<bool> download_enqueued_;    // per edge
  std::vector<TransferJob> jobs_;
  std::vector<std::size_t> flow_to_job_;  // FlowId -> job index
  std::vector<Event> events_;             // binary heap ordered by EventLater
  std::uint64_t next_seq_ = 0;
  Seconds now_ = 0;
  std::size_t tasks_terminal_ = 0;  // finished or failed-before-finishing
  std::size_t pending_retries_ = 0;
  std::size_t events_processed_ = 0;
  std::size_t transfers_done_ = 0;
  Bytes transfer_bytes_ = 0;
  std::size_t migrations_ = 0;
  FaultStats stats_;
  std::vector<TaskRecord> records_;
};

}  // namespace

/// The execution state of one Simulator, reset in place by every run.
///
/// The task-to-VM mapping starts as a copy of the static Schedule but is
/// *mutable*: the online policy (paper Section VI) may interrupt a running
/// task and restart it on a freshly provisioned VM of the fastest category,
/// and fault recovery (faults.hpp) may re-home the work of a crashed VM.
///
/// Every container keeps its capacity from run to run.  The per-VM plans
/// and link queues are pooled past the current VM count, so a run with
/// fewer VMs than the last one keeps the storage of the others for the
/// next run that needs it.
///
/// A run is init() (state setup), start() (the time-zero boot pass) and
/// main_loop(); main_loop(until) pauses before the first event at `until`,
/// and copy_state_from() resumes another engine's paused run in this one.
class Simulator::Engine : private EngineState {
 public:
  Engine(const dag::Workflow& wf, const platform::Platform& platform, obs::EventBus* bus)
      : EngineState(platform), wf_(wf), platform_(platform), bus_(bus) {}

  /// One execution of \p schedule.
  SimResult run(const Schedule& schedule, const dag::WeightRealization& weights,
                const RunOptions& options);

  /// Validates \p schedule and resets the state for a run of it; no event
  /// has happened yet and no VM is booked.
  void init(const Schedule& schedule, const dag::WeightRealization& weights,
            const RunOptions& options);
  /// The time-zero boot pass: books every VM whose first task is ready.
  void start();
  /// Processes events until the run ends, or until the next one would
  /// happen at or after \p until.
  void main_loop(Seconds until = std::numeric_limits<Seconds>::infinity());
  [[nodiscard]] SimResult finalize() const;
  /// The makespan and total cost finalize() would report.
  [[nodiscard]] MoveOutcome outcome() const;

  /// Becomes a copy of \p other's run, paused wherever \p other is.
  void copy_state_from(const Engine& other);
  /// Moves \p task, not yet started, from position \p from_index of its
  /// VM's list to position \p to_index of \p target's (a fresh VM of
  /// \p fresh_category when \p target is invalid_vm), and rebuilds the
  /// state the move touches (DESIGN.md Section 12).  Throws the
  /// Schedule::validate error when the move breaks same-VM order.
  void apply_move(dag::TaskId task, std::size_t from_index, VmId target,
                  platform::CategoryId fresh_category, std::size_t to_index);

  [[nodiscard]] bool has_bus() const { return bus_ != nullptr; }

 private:
  /// The two link queues of one VM.
  struct VmLinks {
    LinkQueue up;
    LinkQueue down;
  };

  /// What finalize() and outcome() both sum, in the same order.
  struct Totals {
    Seconds start_first = 0;
    Seconds end_last = 0;
    platform::CostBreakdown cost;
  };

  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  obs::EventBus* const bus_;  // nullptr = no observability

  // Pools: only the first vms_.size() entries belong to the current run.
  std::vector<VmPlan> plans_;
  std::vector<VmLinks> links_;

  // Scratch: FluidNetwork::advance output, and recover_tasks' buffers (it
  // never re-enters itself).
  std::vector<FlowId> completed_flows_;
  std::vector<dag::TaskId> recovery_moved_;
  std::vector<dag::TaskId> recovery_tail_;
  std::vector<TransferJob> recovery_uploads_;

  // ---- helpers --------------------------------------------------------------

  void push_event(Seconds time, Event::Kind kind, VmId vm, dag::TaskId task,
                  std::uint32_t epoch = 0, std::size_t job = 0) {
    events_.push_back(Event{time, next_seq_++, kind, vm, task, epoch, job});
    std::push_heap(events_.begin(), events_.end(), EventLater{});
  }

  Event pop_event() {
    std::pop_heap(events_.begin(), events_.end(), EventLater{});
    const Event event = events_.back();
    events_.pop_back();
    return event;
  }

  /// Appends a VM running \p tasks in order, reusing a pooled plan and link
  /// queues when an earlier run left one at this index.
  VmId add_vm(platform::CategoryId category, std::span<const dag::TaskId> tasks) {
    const auto vm = static_cast<VmId>(vms_.size());
    if (plans_.size() == vm) {
      plans_.emplace_back();
      links_.emplace_back();
    }
    plans_[vm].category = category;
    plans_[vm].tasks.assign(tasks.begin(), tasks.end());
    links_[vm].up.clear();
    links_[vm].down.clear();
    vms_.push_back(VmState{});
    vms_.back().free_procs = platform_.category(category).processors;
    return vm;
  }

  /// Observability emission.  Callers must test `obs_` *before* building the
  /// Event (strings!): the disabled path is a single cached bool test.
  void emit(const obs::Event& event) const { bus_->emit(event); }

  [[nodiscard]] std::int64_t obs_vm(VmId vm) const {
    return vm == invalid_vm ? obs::no_id : static_cast<std::int64_t>(vm);
  }

  [[nodiscard]] std::int64_t obs_task(dag::TaskId task) const {
    return task == dag::invalid_task ? obs::no_id : static_cast<std::int64_t>(task);
  }

  /// Transfer lane of a job relative to its VM ("up" or "down").
  [[nodiscard]] static const char* lane_of(const TransferJob& job) {
    const bool is_upload =
        job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
    return is_upload ? "up" : "down";
  }

  void gate_update(dag::TaskId task, Seconds time, dag::TaskId cause) {
    TaskState& ts = tasks_[task];
    if (time >= ts.gate_time) {
      ts.gate_time = time;
      if (cause != dag::invalid_task) ts.gate_task = cause;
    }
  }

  [[nodiscard]] const platform::VmCategory& vm_category(VmId vm) const {
    return platform_.category(plans_[vm].category);
  }

  [[nodiscard]] InstrPerSec vm_speed(VmId vm) const { return vm_category(vm).speed; }

  void request_boot(VmId vm);
  void maybe_request_boot(VmId vm);
  void on_boot_done(VmId vm);
  void enqueue_job(TransferJob job);
  void pump_link(VmId vm, Direction dir);
  void on_flow_complete(FlowId flow);
  void on_upload_done(const TransferJob& job);
  void on_download_done(const TransferJob& job);
  void try_start_tasks(VmId vm);
  void on_task_done(VmId vm, dag::TaskId task);
  void on_timeout(VmId vm, dag::TaskId task);
  void migrate(VmId from, dag::TaskId task);
  void interrupt_running(VmId vm, dag::TaskId task);
  void on_crash(VmId vm);
  void abandon_boot(VmId vm);
  void recover_tasks(VmId from, bool allow_provisioning);
  void restage_task(dag::TaskId task, std::vector<TransferJob>& uploads);
  void enqueue_moved_downloads(VmId vm, const std::vector<dag::TaskId>& moved);
  void on_transfer_retry(std::size_t job_index);
  void abort_transfer(const TransferJob& job);
  void fail_task(dag::TaskId task);
  [[nodiscard]] Dollars committed_vm_cost() const;
  [[noreturn]] void report_deadlock() const;
  [[nodiscard]] Totals totals() const;
};

void Simulator::Engine::init(const Schedule& schedule, const dag::WeightRealization& weights,
                             const RunOptions& options) {
  schedule.validate(wf_, platform_);
  require(weights.size() == wf_.task_count(),
          "Simulator: weight realization size differs from workflow");

  // Reset every piece of run state; the containers keep their capacity.
  schedule_ = &schedule;
  weights_ = &weights;
  options_ = options;
  obs_ = bus_ != nullptr && bus_->enabled();
  if (options_.faults.enabled())
    injector_.emplace(options_.faults);
  else
    injector_.reset();
  fluid_.reset();
  jobs_.clear();
  flow_to_job_.clear();
  events_.clear();
  next_seq_ = 0;
  now_ = 0;
  tasks_terminal_ = 0;
  pending_retries_ = 0;
  events_processed_ = 0;
  transfers_done_ = 0;
  transfer_bytes_ = 0;
  migrations_ = 0;
  stats_ = FaultStats{};

  vms_.clear();
  for (VmId v = 0; v < schedule.vm_count(); ++v)
    add_vm(schedule.vm_category(v), schedule.vm_tasks(v));
  vm_of_.resize(wf_.task_count());
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) vm_of_[t] = schedule.vm_of(t);

  tasks_.assign(wf_.task_count(), TaskState{});
  records_.assign(wf_.task_count(), TaskRecord{});
  edge_at_dc_.assign(wf_.edge_count(), -1.0);
  edge_needs_transfer_.assign(wf_.edge_count(), false);
  download_enqueued_.assign(wf_.edge_count(), false);

  for (dag::EdgeId e = 0; e < wf_.edge_count(); ++e) {
    const dag::Edge& edge = wf_.edge(e);
    edge_needs_transfer_[e] = vm_of_[edge.src] != vm_of_[edge.dst];
  }
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) {
    records_[t].vm = vm_of_[t];
    for (dag::EdgeId e : wf_.in_edges(t)) {
      if (edge_needs_transfer_[e]) {
        ++tasks_[t].remote_in_pending;
        ++tasks_[t].dc_in_pending;
      } else {
        ++tasks_[t].local_in_pending;
      }
    }
    if (wf_.external_input_of(t) > 0) ++tasks_[t].remote_in_pending;
  }
}

void Simulator::Engine::start() {
  if (obs_) {
    // The static placement, one dispatch per task in list order.
    for (VmId v = 0; v < vms_.size(); ++v)
      for (dag::TaskId t : plans_[v].tasks)
        emit({.kind = obs::EventKind::task_dispatch,
              .time = now_,
              .vm = obs_vm(v),
              .task = obs_task(t),
              .name = wf_.task(t).name});
  }

  // Book every VM whose first task already has its cross-VM inputs at the DC
  // (entry tasks: external inputs wait at the DC from time zero).
  for (VmId v = 0; v < vms_.size(); ++v) maybe_request_boot(v);
}

void Simulator::Engine::request_boot(VmId vm) {
  VmState& state = vms_[vm];
  CLOUDWF_ASSERT(state.boot == BootState::unrequested && !state.dead);
  state.boot = BootState::booting;
  state.boot_request = now_;
  state.boot_attempts = 1;
  state.boot_done = now_ + platform_.boot_delay();
  push_event(state.boot_done, Event::Kind::boot_done, vm, dag::invalid_task);
  if (obs_)
    emit({.kind = obs::EventKind::vm_boot_request,
          .time = now_,
          .vm = obs_vm(vm),
          .detail = platform_.category(plans_[vm].category).name});
}

void Simulator::Engine::maybe_request_boot(VmId vm) {
  VmState& state = vms_[vm];
  if (state.boot != BootState::unrequested || state.dead) return;
  // Boot gate: the first runnable task of the list must have its cross-VM
  // inputs at the DC.  Failed tasks will never run, so they cannot hold the
  // gate; without faults this is exactly "the first task of the list".
  for (dag::TaskId t : plans_[vm].tasks) {
    if (vm_of_[t] != vm || tasks_[t].finished || tasks_[t].failed) continue;
    if (tasks_[t].dc_in_pending == 0) request_boot(vm);
    return;
  }
}

void Simulator::Engine::on_boot_done(VmId vm) {
  VmState& state = vms_[vm];
  if (injector_ && injector_->boot_fails()) {
    ++stats_.boot_failures;
    if (obs_)
      emit({.kind = obs::EventKind::fault_injected,
            .time = now_,
            .vm = obs_vm(vm),
            .detail = "boot_failure",
            .value = static_cast<double>(state.boot_attempts)});
    if (state.boot_attempts < options_.recovery.max_boot_attempts) {
      // Re-provision: a fresh acquisition after the IaaS acquisition delay.
      ++state.boot_attempts;
      state.boot_done = now_ + options_.faults.acquisition_delay + platform_.boot_delay();
      push_event(state.boot_done, Event::Kind::boot_done, vm, dag::invalid_task);
    } else {
      abandon_boot(vm);
    }
    return;
  }
  state.boot = BootState::up;
  state.end = std::max(state.end, now_);
  if (obs_)
    emit({.kind = obs::EventKind::vm_boot_done,
          .time = now_,
          .vm = obs_vm(vm),
          .name = "boot",
          .detail = platform_.category(plans_[vm].category).name,
          .duration = now_ - state.boot_request});
  if (injector_) {
    // Billed uptime until an injected crash; the event is ignored if the VM
    // drains all of its work before the crash fires.
    const Seconds uptime = injector_->crash_after();
    if (std::isfinite(uptime)) push_event(now_ + uptime, Event::Kind::crash, vm, dag::invalid_task);
  }

  // Enqueue every download that is already possible, in list order (stable
  // FIFO per link keeps the run deterministic).
  for (dag::TaskId t : plans_[vm].tasks) {
    if (vm_of_[t] != vm || tasks_[t].started || tasks_[t].finished || tasks_[t].failed)
      continue;  // migration/recovery leftovers
    if (wf_.external_input_of(t) > 0)
      enqueue_job({JobKind::ext_input_download, vm, 0, t, wf_.external_input_of(t)});
    for (dag::EdgeId e : wf_.in_edges(t)) {
      if (!edge_needs_transfer_[e] || download_enqueued_[e]) continue;
      if (edge_at_dc_[e] >= 0) {
        download_enqueued_[e] = true;
        enqueue_job({JobKind::edge_download, vm, e, t, wf_.edge(e).bytes});
      }
    }
  }
  try_start_tasks(vm);
}

void Simulator::Engine::enqueue_job(TransferJob job) {
  const bool is_upload = job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
  if (job.bytes <= 0) {
    // Zero-byte data is instantaneous; dispatch inline (and below the fault
    // layer: a flow that never exists cannot fail).
    if (is_upload)
      on_upload_done(job);
    else
      on_download_done(job);
    return;
  }
  jobs_.push_back(job);
  VmLinks& links = links_[job.vm];
  (is_upload ? links.up : links.down).push_back(jobs_.size() - 1);
  pump_link(job.vm, is_upload ? Direction::upload : Direction::download);
}

void Simulator::Engine::pump_link(VmId vm, Direction dir) {
  VmState& state = vms_[vm];
  LinkQueue& queue = dir == Direction::upload ? links_[vm].up : links_[vm].down;
  bool& busy = dir == Direction::upload ? state.uplink_busy : state.downlink_busy;
  if (busy || queue.empty()) return;
  const std::size_t job_index = queue.pop_front();
  busy = true;
  TransferJob& job = jobs_[job_index];
  job.started = now_;
  const FlowId flow = fluid_.start_flow(job.bytes, now_);
  if (flow_to_job_.size() <= flow) flow_to_job_.resize(flow + 1);
  flow_to_job_[flow] = job_index;
  if (obs_)
    emit({.kind = obs::EventKind::transfer_start,
          .time = now_,
          .vm = obs_vm(job.vm),
          .task = obs_task(job.task),
          .name = wf_.task(job.task).name,
          .detail = lane_of(job),
          .value = job.bytes});
}

void Simulator::Engine::on_flow_complete(FlowId flow) {
  const std::size_t job_index = flow_to_job_[flow];
  const TransferJob job = jobs_[job_index];
  VmState& state = vms_[job.vm];

  const bool is_upload = job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
  (is_upload ? state.uplink_busy : state.downlink_busy) = false;
  pump_link(job.vm, is_upload ? Direction::upload : Direction::download);

  // Stale download: the consumer moved away (crash recovery) or failed while
  // the flow was in flight; discard the data silently.
  if (!is_upload && (vm_of_[job.task] != job.vm || tasks_[job.task].failed)) return;

  // A dead VM's billing froze at the crash; volume drains do not extend it.
  if (!state.dead) state.end = std::max(state.end, now_);

  if (injector_ && injector_->transfer_fails()) {
    ++stats_.transfer_failures;
    TransferJob& stored = jobs_[job_index];
    ++stored.attempts;
    if (obs_)
      emit({.kind = obs::EventKind::fault_injected,
            .time = now_,
            .vm = obs_vm(job.vm),
            .task = obs_task(job.task),
            .detail = "transfer_failure",
            .value = static_cast<double>(stored.attempts)});
    if (stored.attempts <= options_.recovery.max_transfer_retries) {
      // Exponential backoff: retry n waits base * 2^(n-1) seconds.
      const Seconds backoff = options_.recovery.transfer_backoff_base *
                              std::ldexp(1.0, static_cast<int>(stored.attempts) - 1);
      ++pending_retries_;
      push_event(now_ + backoff, Event::Kind::transfer_retry, job.vm, job.task, 0, job_index);
      if (obs_)
        emit({.kind = obs::EventKind::transfer_retry,
              .time = now_,
              .vm = obs_vm(job.vm),
              .task = obs_task(job.task),
              .name = wf_.task(job.task).name,
              .detail = lane_of(job),
              .value = backoff});
    } else {
      ++stats_.transfer_aborts;
      if (obs_)
        emit({.kind = obs::EventKind::fault_injected,
              .time = now_,
              .vm = obs_vm(job.vm),
              .task = obs_task(job.task),
              .detail = "transfer_abort"});
      abort_transfer(stored);
    }
    return;
  }

  ++transfers_done_;
  transfer_bytes_ += job.bytes;
  if (obs_)
    emit({.kind = obs::EventKind::transfer_done,
          .time = now_,
          .vm = obs_vm(job.vm),
          .task = obs_task(job.task),
          .name = wf_.task(job.task).name,
          .detail = lane_of(job),
          .value = job.bytes,
          .duration = now_ - job.started});

  if (is_upload)
    on_upload_done(job);
  else
    on_download_done(job);
}

void Simulator::Engine::on_transfer_retry(std::size_t job_index) {
  --pending_retries_;
  const TransferJob& job = jobs_[job_index];
  const bool is_upload = job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
  if (is_upload) {
    // Pointless when the consumer already failed for other reasons.
    if (job.kind == JobKind::edge_upload && tasks_[wf_.edge(job.edge).dst].failed) return;
  } else {
    if (vm_of_[job.task] != job.vm || tasks_[job.task].failed) return;  // stale
  }
  VmLinks& links = links_[job.vm];
  (is_upload ? links.up : links.down).push_back(job_index);
  pump_link(job.vm, is_upload ? Direction::upload : Direction::download);
}

void Simulator::Engine::abort_transfer(const TransferJob& job) {
  switch (job.kind) {
    case JobKind::edge_upload:
      fail_task(wf_.edge(job.edge).dst);  // its input can never arrive
      break;
    case JobKind::edge_download:
    case JobKind::ext_input_download:
      fail_task(job.task);
      break;
    case JobKind::ext_output_upload:
      fail_task(job.task);  // computed, but the final delivery was lost
      break;
  }
}

void Simulator::Engine::fail_task(dag::TaskId task) {
  TaskState& ts = tasks_[task];
  if (ts.failed) return;
  ts.failed = true;
  records_[task].failed = true;
  ++stats_.failed_tasks;
  if (obs_)
    emit({.kind = obs::EventKind::task_fail,
          .time = now_,
          .vm = obs_vm(vm_of_[task]),
          .task = obs_task(task),
          .name = wf_.task(task).name});
  if (!ts.finished) {
    CLOUDWF_ASSERT(!ts.started);  // running tasks are interrupted before failing
    ++tasks_terminal_;
    // Without this task's outputs none of its consumers can ever run.
    for (dag::EdgeId e : wf_.out_edges(task)) fail_task(wf_.edge(e).dst);
  }
  // Skipping the failed slot may unblock its host VM's list scan or boot gate.
  const VmId vm = vm_of_[task];
  if (vm != invalid_vm && !vms_[vm].dead) {
    if (vms_[vm].boot == BootState::up)
      try_start_tasks(vm);
    else if (vms_[vm].boot == BootState::unrequested)
      maybe_request_boot(vm);
  }
}

void Simulator::Engine::on_upload_done(const TransferJob& job) {
  if (job.kind == JobKind::ext_output_upload) return;  // data now at DC for the user

  const dag::EdgeId e = job.edge;
  const dag::Edge& edge = wf_.edge(e);
  edge_at_dc_[e] = now_;
  const dag::TaskId consumer = edge.dst;
  TaskState& ts = tasks_[consumer];
  if (ts.failed) return;  // data parked at the DC; nobody will fetch it
  CLOUDWF_ASSERT(ts.dc_in_pending > 0);
  if (--ts.dc_in_pending == 0) records_[consumer].inputs_at_dc = now_;

  const VmId cvm = vm_of_[consumer];
  VmState& consumer_vm = vms_[cvm];
  if (consumer_vm.boot == BootState::up && !download_enqueued_[e]) {
    download_enqueued_[e] = true;
    enqueue_job({JobKind::edge_download, cvm, e, consumer, edge.bytes});
  } else if (consumer_vm.boot == BootState::unrequested) {
    maybe_request_boot(cvm);
  }
}

void Simulator::Engine::on_download_done(const TransferJob& job) {
  const dag::TaskId task = job.task;
  TaskState& ts = tasks_[task];
  if (ts.failed) return;
  CLOUDWF_ASSERT(ts.remote_in_pending > 0);
  --ts.remote_in_pending;
  const dag::TaskId cause =
      job.kind == JobKind::edge_download ? wf_.edge(job.edge).src : dag::invalid_task;
  gate_update(task, now_, cause);
  try_start_tasks(job.vm);
}

void Simulator::Engine::try_start_tasks(VmId vm) {
  VmState& state = vms_[vm];
  if (state.boot != BootState::up || state.dead) return;
  const auto& plan = plans_[vm].tasks;
  while (state.next_start_idx < plan.size()) {
    const dag::TaskId t = plan[state.next_start_idx];
    TaskState& ts = tasks_[t];
    if (ts.finished || ts.failed || (ts.started && vm_of_[t] != vm)) {
      // Migration/recovery leftover: the task moved away (or already
      // completed elsewhere) or can never run; skip its old slot.
      ++state.next_start_idx;
      continue;
    }
    if (state.free_procs == 0 || ts.started || ts.remote_in_pending > 0 ||
        ts.local_in_pending > 0)
      return;

    ts.started = true;
    --state.free_procs;
    ++state.next_start_idx;
    gate_update(t, state.boot_done, dag::invalid_task);
    const Seconds duration = (*weights_)[t] / vm_speed(vm);
    records_[t].start = now_;
    records_[t].finish = now_ + duration;
    records_[t].bound_by = ts.gate_task;
    state.busy += duration;
    push_event(now_ + duration, Event::Kind::task_done, vm, t, ts.epoch);
    if (obs_)
      emit({.kind = obs::EventKind::task_start,
            .time = now_,
            .vm = obs_vm(vm),
            .task = obs_task(t),
            .name = wf_.task(t).name,
            .duration = duration});

    // Online policy: arm a timeout when the actual draw exceeds the
    // tolerated compute time on this host (the engine exploits its knowledge
    // of the realization only to skip timeouts that would never fire).
    if (const std::optional<OnlinePolicy>& policy = options_.online) {
      const Seconds tolerated = (wf_.task(t).mean_weight +
                                 policy->timeout_sigmas * wf_.task(t).weight_stddev) /
                                vm_speed(vm);
      if (duration > tolerated && records_[t].restarts < policy->max_restarts)
        push_event(now_ + tolerated, Event::Kind::timeout, vm, t, ts.epoch);
    }

    // Gate the next task in list order on our start (relevant only for
    // multi-processor VMs, where starts must stay in list order).
    if (state.next_start_idx < plan.size()) gate_update(plan[state.next_start_idx], now_, t);
  }
}

void Simulator::Engine::on_task_done(VmId vm, dag::TaskId task) {
  VmState& state = vms_[vm];
  TaskState& ts = tasks_[task];
  ts.finished = true;
  ++tasks_terminal_;
  ++state.tasks_done;
  ++state.free_procs;
  state.end = std::max(state.end, now_);
  if (obs_)
    emit({.kind = obs::EventKind::task_finish,
          .time = now_,
          .vm = obs_vm(vm),
          .task = obs_task(task),
          .name = wf_.task(task).name,
          .duration = now_ - records_[task].start});

  for (dag::EdgeId e : wf_.out_edges(task)) {
    const dag::Edge& edge = wf_.edge(e);
    if (tasks_[edge.dst].failed) continue;  // nobody left to deliver to
    if (edge_needs_transfer_[e]) {
      enqueue_job({JobKind::edge_upload, vm, e, task, edge.bytes});
    } else {
      TaskState& consumer = tasks_[edge.dst];
      CLOUDWF_ASSERT(consumer.local_in_pending > 0);
      --consumer.local_in_pending;
      gate_update(edge.dst, now_, task);
    }
  }
  if (wf_.external_output_of(task) > 0)
    enqueue_job({JobKind::ext_output_upload, vm, 0, task, wf_.external_output_of(task)});

  // The freed processor may unblock the next task in list order.
  const auto& plan = plans_[vm].tasks;
  if (state.next_start_idx < plan.size()) gate_update(plan[state.next_start_idx], now_, task);
  try_start_tasks(vm);
}

Dollars Simulator::Engine::committed_vm_cost() const {
  // Billed time so far plus setups of all booked VMs (the spend guard of the
  // online policy and of fault recovery; datacenter charges are not included
  // — they are small and budget reservations already cover them).
  Dollars committed = 0;
  for (VmId v = 0; v < vms_.size(); ++v) {
    const VmState& state = vms_[v];
    if (state.boot == BootState::unrequested) continue;
    if (state.dead && state.boot != BootState::up) continue;  // abandoned boot: never billed
    const platform::VmCategory& category = vm_category(v);
    committed += category.setup_cost;
    if (state.boot == BootState::up) {
      const Seconds until =
          state.dead ? std::max(state.end, state.boot_done) : std::max(now_, state.boot_done);
      committed += (until - state.boot_done) * category.price_per_second;
    }
  }
  return committed;
}

void Simulator::Engine::on_timeout(VmId vm, dag::TaskId task) {
  const TaskState& ts = tasks_[task];
  if (ts.finished || !ts.started || vm_of_[task] != vm) return;  // raced with completion
  CLOUDWF_ASSERT(options_.online.has_value());
  const OnlinePolicy& policy = *options_.online;

  // Policy checks: a meaningfully faster category must exist...
  const platform::CategoryId fastest = platform_.fastest_category();
  const platform::VmCategory& target = platform_.category(fastest);
  if (target.speed < policy.min_speedup * vm_speed(vm)) return;
  // ... and the projected spend must stay *strictly below* the cap (the
  // projection is an estimate; consuming the cap exactly leaves no headroom).
  // Projection: spend so far + conservative compute of the restarted task +
  // its input re-stage.
  Bytes restage = wf_.external_input_of(task);
  for (dag::EdgeId e : wf_.in_edges(task)) restage += wf_.edge(e).bytes;
  const Seconds projected_time = wf_.task(task).conservative_weight() / target.speed +
                                 restage / platform_.bandwidth();
  if (committed_vm_cost() + target.setup_cost + projected_time * target.price_per_second >=
      policy.budget_cap)
    return;

  migrate(vm, task);
}

void Simulator::Engine::interrupt_running(VmId vm, dag::TaskId task) {
  TaskState& ts = tasks_[task];
  VmState& state = vms_[vm];
  // Drop the pending task_done (and timeout) events by bumping the epoch;
  // the work done so far is lost.
  ++ts.epoch;
  ts.started = false;
  ++state.free_procs;
  // The busy accounting speculatively added the full duration at start;
  // replace it with the actually spent slice.
  state.busy -= records_[task].finish - records_[task].start;
  state.busy += now_ - records_[task].start;
}

void Simulator::Engine::migrate(VmId from, dag::TaskId task) {
  TaskState& ts = tasks_[task];
  VmState& old_state = vms_[from];

  interrupt_running(from, task);
  old_state.end = std::max(old_state.end, now_);
  ++records_[task].restarts;
  ++migrations_;

  // Provision the rescue VM (fastest category, this task only).
  const VmId rescue = add_vm(platform_.fastest_category(), std::span(&task, 1));
  vm_of_[task] = rescue;
  records_[task].vm = rescue;
  if (obs_)
    emit({.kind = obs::EventKind::task_dispatch,
          .time = now_,
          .vm = obs_vm(rescue),
          .task = obs_task(task),
          .name = wf_.task(task).name,
          .detail = "migration"});

  // Re-stage the inputs: data already at the datacenter is re-downloaded;
  // data that had been local to the old VM must be uploaded first.
  ts.remote_in_pending = 0;
  ts.local_in_pending = 0;
  ts.dc_in_pending = 0;
  ts.gate_time = now_;
  ts.gate_task = dag::invalid_task;
  if (wf_.external_input_of(task) > 0) ++ts.remote_in_pending;
  for (dag::EdgeId e : wf_.in_edges(task)) {
    ++ts.remote_in_pending;
    if (edge_at_dc_[e] >= 0) {
      download_enqueued_[e] = false;  // the boot scan re-enqueues it
    } else {
      // Was local to the old VM: ship it through the datacenter now.
      CLOUDWF_ASSERT(!edge_needs_transfer_[e]);
      edge_needs_transfer_[e] = true;
      ++ts.dc_in_pending;
      enqueue_job({JobKind::edge_upload, from, e, wf_.edge(e).src, wf_.edge(e).bytes});
    }
  }

  // Out-edges whose consumer sat on the old VM become cross-VM transfers.
  for (dag::EdgeId e : wf_.out_edges(task)) {
    const dag::TaskId consumer = wf_.edge(e).dst;
    if (edge_needs_transfer_[e] || vm_of_[consumer] == rescue) continue;
    CLOUDWF_ASSERT(vm_of_[consumer] == from);
    edge_needs_transfer_[e] = true;
    TaskState& cs = tasks_[consumer];
    CLOUDWF_ASSERT(cs.local_in_pending > 0);
    --cs.local_in_pending;
    ++cs.remote_in_pending;
    ++cs.dc_in_pending;
  }

  request_boot(rescue);
  // Other tasks on the old VM may have been waiting for the processor.
  try_start_tasks(from);
}

void Simulator::Engine::on_crash(VmId vm) {
  VmState& state = vms_[vm];
  if (state.dead || state.boot != BootState::up) return;
  // A crash only matters while the VM still owes work; afterwards the VM is
  // considered released (billing already stopped at its last activity).
  bool live = false;
  for (dag::TaskId t : plans_[vm].tasks) {
    if (vm_of_[t] == vm && !tasks_[t].finished && !tasks_[t].failed) {
      live = true;
      break;
    }
  }
  if (!live) return;
  ++stats_.crashes;
  state.crashed = true;
  state.dead = true;
  state.end = std::max(state.end, now_);  // billing freezes here
  if (obs_)
    emit({.kind = obs::EventKind::fault_injected,
          .time = now_,
          .vm = obs_vm(vm),
          .detail = "vm_crash"});
  recover_tasks(vm, /*allow_provisioning=*/true);
}

void Simulator::Engine::abandon_boot(VmId vm) {
  // Provisioning retries exhausted.  Nothing was ever billed (the VM never
  // came up); re-home its tasks without provisioning a replacement — the
  // boot retries *were* the re-provisioning attempts for this placement.
  vms_[vm].dead = true;
  recover_tasks(vm, /*allow_provisioning=*/false);
}

void Simulator::Engine::recover_tasks(VmId from, bool allow_provisioning) {
  // 1. Interrupt whatever was running; bounded re-executions per task.
  for (dag::TaskId t : plans_[from].tasks) {
    if (vm_of_[t] != from) continue;
    TaskState& ts = tasks_[t];
    if (!ts.started || ts.finished || ts.failed) continue;
    interrupt_running(from, t);
    stats_.wasted_compute += now_ - records_[t].start;
    ++records_[t].restarts;
    ++stats_.task_reexecutions;
    if (records_[t].restarts > options_.recovery.max_task_retries) fail_task(t);
  }

  // 2. Everything not finished (and not failed) must find a new home.
  std::vector<dag::TaskId>& pending = recovery_moved_;
  pending.clear();
  for (dag::TaskId t : plans_[from].tasks)
    if (vm_of_[t] == from && !tasks_[t].finished && !tasks_[t].failed) pending.push_back(t);
  if (pending.empty()) return;

  // 3. Pick the new home: a same-category replacement while the projected
  //    spend stays strictly below the recovery budget cap, otherwise degrade
  //    gracefully and re-pack onto a surviving already-paid VM.
  VmId target = invalid_vm;
  bool fresh = false;
  if (allow_provisioning) {
    const platform::VmCategory& category = vm_category(from);
    Instructions remaining = 0;
    for (dag::TaskId t : pending) remaining += wf_.task(t).conservative_weight();
    const Dollars projected = committed_vm_cost() + category.setup_cost +
                              (remaining / category.speed) * category.price_per_second;
    if (projected < options_.recovery.budget_cap)
      fresh = true;
    else
      stats_.degraded = true;
  }
  if (fresh) {
    target = add_vm(plans_[from].category, pending);
    vms_.back().recovery_vm = true;
  } else {
    // Survivor with the least pending work (ties to the lowest id).
    std::size_t best_load = 0;
    for (VmId v = 0; v < vms_.size(); ++v) {
      if (v == from || vms_[v].dead || vms_[v].boot == BootState::unrequested) continue;
      std::size_t load = 0;
      for (dag::TaskId t : plans_[v].tasks)
        if (vm_of_[t] == v && !tasks_[t].finished && !tasks_[t].failed) ++load;
      if (target == invalid_vm || load < best_load) {
        target = v;
        best_load = load;
      }
    }
    if (target == invalid_vm) {
      // No paid VM survives and provisioning is vetoed: terminal failures.
      for (dag::TaskId t : pending) fail_task(t);
      return;
    }
  }

  if (obs_)
    emit({.kind = obs::EventKind::fault_recovered,
          .time = now_,
          .vm = obs_vm(target),
          .detail = fresh ? "replacement_vm" : "repack",
          .value = static_cast<double>(pending.size())});
  for (dag::TaskId t : pending) {
    vm_of_[t] = target;
    records_[t].vm = target;
    if (obs_)
      emit({.kind = obs::EventKind::task_dispatch,
            .time = now_,
            .vm = obs_vm(target),
            .task = obs_task(t),
            .name = wf_.task(t).name,
            .detail = "recovery"});
  }

  if (!fresh) {
    // Merge the moved tasks into the unstarted tail of the survivor's list,
    // ordered by schedule priority.  Starts happen strictly in list order,
    // so the merged order must stay dependency-consistent; the priorities of
    // all built-in algorithms (bottom levels, decision order) are
    // topological, which guarantees exactly that.
    auto& plan = plans_[target].tasks;
    const auto head = static_cast<std::ptrdiff_t>(vms_[target].next_start_idx);
    std::vector<dag::TaskId>& tail = recovery_tail_;
    tail.assign(plan.begin() + head, plan.end());
    tail.insert(tail.end(), pending.begin(), pending.end());
    std::stable_sort(tail.begin(), tail.end(), [this](dag::TaskId a, dag::TaskId b) {
      return schedule_->priority(a) > schedule_->priority(b);
    });
    plan.resize(static_cast<std::size_t>(head));
    plan.insert(plan.end(), tail.begin(), tail.end());
  }

  // 4. Re-stage inputs.  Uploads are collected first and enqueued only after
  //    every counter is rebuilt: zero-byte jobs dispatch inline and could
  //    otherwise start a task whose pending-input counts are half-built.
  std::vector<TransferJob>& uploads = recovery_uploads_;
  uploads.clear();
  for (dag::TaskId t : pending) restage_task(t, uploads);

  // 5. Queued downloads of the dead host are void (in-flight ones are
  //    discarded on completion).
  links_[from].down.erase_if([this, from](std::size_t ji) {
    const TransferJob& j = jobs_[ji];
    return vm_of_[j.task] != from || tasks_[j.task].failed;
  });

  if (fresh) request_boot(target);
  for (TransferJob& job : uploads) enqueue_job(job);
  if (!fresh && vms_[target].boot == BootState::up) {
    enqueue_moved_downloads(target, pending);
    try_start_tasks(target);
  }
  // A still-booting survivor picks the moved tasks up in its boot scan.
}

void Simulator::Engine::restage_task(dag::TaskId task, std::vector<TransferJob>& uploads) {
  TaskState& ts = tasks_[task];
  ts.remote_in_pending = 0;
  ts.local_in_pending = 0;
  ts.dc_in_pending = 0;
  ts.gate_time = now_;
  ts.gate_task = dag::invalid_task;
  const VmId to = vm_of_[task];
  if (wf_.external_input_of(task) > 0) ++ts.remote_in_pending;  // re-fetch from the DC
  for (dag::EdgeId e : wf_.in_edges(task)) {
    const dag::Edge& edge = wf_.edge(e);
    if (vm_of_[edge.src] == to && !tasks_[edge.src].finished) {
      // The producer runs (or re-runs) on the same host: a local edge again.
      edge_needs_transfer_[e] = false;
      ++ts.local_in_pending;
      continue;
    }
    // The data must come through the datacenter.
    ++ts.remote_in_pending;
    if (edge_at_dc_[e] >= 0) {
      download_enqueued_[e] = false;  // re-download on the new host
    } else {
      ++ts.dc_in_pending;
      if (tasks_[edge.src].finished && !edge_needs_transfer_[e]) {
        // The output exists only on the producer's volume (possibly a dead
        // VM's persistent disk) — drain it through the datacenter now.
        edge_needs_transfer_[e] = true;
        uploads.push_back({JobKind::edge_upload, vm_of_[edge.src], e, edge.src, edge.bytes});
      } else {
        // An unfinished producer uploads on completion; a queued or
        // in-flight upload lands at the DC on its own.
        edge_needs_transfer_[e] = true;
      }
    }
  }
}

void Simulator::Engine::enqueue_moved_downloads(VmId vm, const std::vector<dag::TaskId>& moved) {
  for (dag::TaskId t : moved) {
    if (vm_of_[t] != vm || tasks_[t].failed) continue;
    if (wf_.external_input_of(t) > 0)
      enqueue_job({JobKind::ext_input_download, vm, 0, t, wf_.external_input_of(t)});
    for (dag::EdgeId e : wf_.in_edges(t)) {
      if (!edge_needs_transfer_[e] || download_enqueued_[e]) continue;
      if (edge_at_dc_[e] >= 0) {
        download_enqueued_[e] = true;
        enqueue_job({JobKind::edge_download, vm, e, t, wf_.edge(e).bytes});
      }
    }
  }
}

void Simulator::Engine::main_loop(Seconds until) {
  const obs::ProfileScope scope("sim.event_loop");
  const std::size_t processed = events_processed_;
  while (tasks_terminal_ < wf_.task_count() || fluid_.active_count() > 0 ||
         pending_retries_ > 0) {
    const Seconds flow_time = fluid_.next_completion();
    const Seconds event_time = events_.empty() ? infinity : events_.front().time;
    if (flow_time == infinity && event_time == infinity) {
      if (tasks_terminal_ < wf_.task_count()) report_deadlock();
      break;
    }
    if (std::min(flow_time, event_time) >= until) break;  // paused
    if (flow_time <= event_time) {
      now_ = flow_time;
      fluid_.advance(now_, completed_flows_);
      for (FlowId flow : completed_flows_) {
        ++events_processed_;
        on_flow_complete(flow);
      }
    } else {
      const Event event = pop_event();
      now_ = event.time;
      ++events_processed_;
      // Keep the fluid clock in sync so rates stay correct.
      fluid_.advance(now_, completed_flows_);
      for (FlowId flow : completed_flows_) {
        ++events_processed_;
        on_flow_complete(flow);
      }
      switch (event.kind) {
        case Event::Kind::boot_done: on_boot_done(event.vm); break;
        case Event::Kind::task_done:
          if (event.epoch == tasks_[event.task].epoch) on_task_done(event.vm, event.task);
          break;
        case Event::Kind::timeout:
          if (event.epoch == tasks_[event.task].epoch) on_timeout(event.vm, event.task);
          break;
        case Event::Kind::crash: on_crash(event.vm); break;
        case Event::Kind::transfer_retry: on_transfer_retry(event.job); break;
      }
    }
  }
  counters.events += events_processed_ - processed;
}

void Simulator::Engine::report_deadlock() const {
  std::ostringstream os;
  os << "Simulator: schedule deadlocked in workflow '" << wf_.name() << "'; stuck tasks:";
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) {
    const TaskState& ts = tasks_[t];
    if (ts.finished || ts.failed) continue;
    os << ' ' << wf_.task(t).name << "(remote=" << ts.remote_in_pending
       << ",local=" << ts.local_in_pending << ",dc=" << ts.dc_in_pending << ')';
  }
  throw ValidationError(os.str());
}

Simulator::Engine::Totals Simulator::Engine::totals() const {
  Totals totals;
  Seconds start_first = infinity;
  bool billed = false;
  for (VmId v = 0; v < vms_.size(); ++v) {
    const VmState& state = vms_[v];
    // Every VM that came *up* bills, including one abandoned by a migration
    // or killed by a crash; a provisioning that never succeeded is uncharged.
    if (state.boot != BootState::up) continue;
    billed = true;
    const Seconds end = std::max(state.end, state.boot_done);
    start_first = std::min(start_first, state.boot_request);
    totals.end_last = std::max(totals.end_last, end);
    const platform::VmCategory& category = vm_category(v);
    const Dollars vm_total =
        platform::vm_cost(category, state.boot_done, end, platform_.billing_quantum());
    totals.cost.vm_time += vm_total - category.setup_cost;
    totals.cost.vm_setup += category.setup_cost;
  }
  if (!billed) return totals;  // nothing ever came up
  totals.start_first = start_first;

  Bytes dc_footprint = wf_.external_input_bytes() + wf_.external_output_bytes();
  for (dag::EdgeId e = 0; e < wf_.edge_count(); ++e)
    if (edge_needs_transfer_[e]) dc_footprint += wf_.edge(e).bytes;
  const platform::CostBreakdown dc =
      platform::datacenter_cost(platform_, wf_.external_input_bytes(),
                                wf_.external_output_bytes(), start_first, totals.end_last,
                                dc_footprint);
  totals.cost.dc_time = dc.dc_time;
  totals.cost.dc_transfer = dc.dc_transfer;
  return totals;
}

MoveOutcome Simulator::Engine::outcome() const {
  const Totals sums = totals();
  return {sums.end_last - sums.start_first, sums.cost.total()};
}

SimResult Simulator::Engine::finalize() const {
  SimResult result;
  result.tasks = records_;
  result.vms.resize(vms_.size());
  result.migrations = migrations_;
  result.faults = stats_;
  result.events_processed = events_processed_;

  std::vector<obs::Event> tail_events;  // synthesized shutdown/billing events
  for (VmId v = 0; v < vms_.size(); ++v) {
    const VmState& state = vms_[v];
    VmRecord& record = result.vms[v];
    record.category = plans_[v].category;
    record.task_count = state.tasks_done;
    record.boot_attempts = state.boot_attempts;
    record.crashed = state.crashed;
    record.recovery = state.recovery_vm;
    if (state.boot == BootState::unrequested) continue;
    record.boot_request = state.boot_request;
    record.boot_done = state.boot_done;
    if (state.boot != BootState::up) continue;  // never billed (see totals())
    record.billed = true;
    record.end = std::max(state.end, state.boot_done);
    record.busy = state.busy;
    ++result.used_vms;
    const platform::VmCategory& category = platform_.category(record.category);
    if (state.recovery_vm)
      result.faults.recovery_cost +=
          platform::vm_cost(category, state.boot_done, record.end, platform_.billing_quantum());
    if (obs_) {
      // Billing-quantum boundaries crossed by this VM's billed interval,
      // synthesized at shutdown (the engine itself bills lazily).  Capped so
      // a pathological quantum cannot flood the trace.
      const Seconds quantum = platform_.billing_quantum();
      if (quantum > 0) {
        const double crossed = std::floor((record.end - state.boot_done) / quantum);
        const double ticks = std::min(crossed, 1000.0);
        for (double k = 1; k <= ticks; ++k)
          tail_events.push_back({.kind = obs::EventKind::billing_tick,
                                 .time = state.boot_done + k * quantum,
                                 .vm = obs_vm(v),
                                 .value = k});
      }
      tail_events.push_back({.kind = obs::EventKind::vm_shutdown,
                             .time = record.end,
                             .vm = obs_vm(v),
                             .detail = category.name,
                             .value = record.end - state.boot_done});
    }
  }
  // The synthesized shutdown/billing tail is gathered per VM (id order), so
  // it must be re-sorted before emission to honor the EventSink contract of
  // globally non-decreasing timestamps.  stable_sort keeps the per-VM
  // tick -> shutdown sequence for events sharing a timestamp.
  std::stable_sort(tail_events.begin(), tail_events.end(),
                   [](const obs::Event& a, const obs::Event& b) { return a.time < b.time; });
  for (const obs::Event& event : tail_events) emit(event);
  CLOUDWF_ASSERT(result.used_vms > 0 || stats_.failed_tasks > 0);

  const Totals sums = totals();
  result.start_first = sums.start_first;
  result.end_last = sums.end_last;
  result.makespan = sums.end_last - sums.start_first;
  result.cost = sums.cost;

  result.transfers.count = transfers_done_;
  result.transfers.bytes = transfer_bytes_;
  result.transfers.peak_concurrent = fluid_.peak_active();
  return result;
}

void Simulator::Engine::copy_state_from(const Engine& other) {
  EngineState::operator=(other);
  // The pools keep their entries past the copied VM count.
  if (plans_.size() < vms_.size()) {
    plans_.resize(vms_.size());
    links_.resize(vms_.size());
  }
  for (VmId v = 0; v < vms_.size(); ++v) {
    plans_[v] = other.plans_[v];
    links_[v] = other.links_[v];
  }
}

void Simulator::Engine::apply_move(dag::TaskId task, std::size_t from_index, VmId target,
                                   platform::CategoryId fresh_category, std::size_t to_index) {
  auto& from_tasks = plans_[vm_of_[task]].tasks;
  CLOUDWF_ASSERT(from_tasks[from_index] == task && !tasks_[task].started);
  from_tasks.erase(from_tasks.begin() + static_cast<std::ptrdiff_t>(from_index));
  if (target == invalid_vm) {
    target = add_vm(fresh_category, std::span(&task, 1));
  } else {
    auto& to_tasks = plans_[target].tasks;
    to_tasks.insert(to_tasks.begin() + static_cast<std::ptrdiff_t>(to_index), task);
  }
  vm_of_[task] = target;
  records_[task].vm = target;

  // Same-VM order: only the edges touching the task can break it; report
  // the first one in edge order, as Schedule::validate would.
  const auto& plan = plans_[target].tasks;
  const auto position = [&plan](dag::TaskId t) {
    return static_cast<std::size_t>(std::find(plan.begin(), plan.end(), t) - plan.begin());
  };
  constexpr dag::EdgeId none = std::numeric_limits<dag::EdgeId>::max();
  dag::EdgeId misordered = none;
  for (dag::EdgeId e : wf_.in_edges(task))
    if (vm_of_[wf_.edge(e).src] == target && position(wf_.edge(e).src) >= to_index)
      misordered = std::min(misordered, e);
  for (dag::EdgeId e : wf_.out_edges(task))
    if (vm_of_[wf_.edge(e).dst] == target && to_index >= position(wf_.edge(e).dst))
      misordered = std::min(misordered, e);
  if (misordered != none) throw_same_vm_order_error(wf_, wf_.edge(misordered));

  // The task has not started and none of its inputs has reached the DC
  // yet: its counters are those init() would set on the new VM.
  TaskState& ts = tasks_[task];
  ts.remote_in_pending = wf_.external_input_of(task) > 0 ? 1 : 0;
  ts.local_in_pending = 0;
  ts.dc_in_pending = 0;
  for (dag::EdgeId e : wf_.in_edges(task)) {
    const bool cross = vm_of_[wf_.edge(e).src] != target;
    edge_needs_transfer_[e] = cross;
    if (cross) {
      ++ts.remote_in_pending;
      ++ts.dc_in_pending;
    } else {
      ++ts.local_in_pending;
    }
  }

  // Consumers whose input from the task flips between local and cross-VM.
  for (dag::EdgeId e : wf_.out_edges(task)) {
    const dag::TaskId consumer = wf_.edge(e).dst;
    const bool cross = vm_of_[consumer] != target;
    if (cross == edge_needs_transfer_[e]) continue;
    edge_needs_transfer_[e] = cross;
    TaskState& cs = tasks_[consumer];
    if (cross) {
      --cs.local_in_pending;
      ++cs.remote_in_pending;
      ++cs.dc_in_pending;
      records_[consumer].inputs_at_dc = 0;  // not all at the DC any more
      continue;
    }
    ++cs.local_in_pending;
    --cs.remote_in_pending;
    if (--cs.dc_in_pending > 0) continue;
    // Its other cross-VM inputs are all at the DC: they completed the set
    // when the last of them arrived.
    Seconds at_dc = 0;
    for (dag::EdgeId in : wf_.in_edges(consumer))
      if (edge_needs_transfer_[in]) at_dc = std::max(at_dc, edge_at_dc_[in]);
    records_[consumer].inputs_at_dc = at_dc;
  }
}

/// The bound behind Simulator::makespan_lower_bound: the longest path
/// through constraints that every fault-free run without migrations obeys
/// (DESIGN.md Section 12, "Screened candidates"):
///  * a VM books once the cross-VM inputs of its first task are at the DC,
///    at time zero at the earliest, and is up one boot delay later;
///  * a task starts after its same-VM predecessors finish, after each
///    cross-VM input is uploaded and then downloaded, and after its
///    external input is downloaded; downloads start once the VM is up;
///  * starts follow list order, and on a single-processor VM each task
///    starts after its list predecessor finishes;
///  * the run ends once every task has finished and uploaded its external
///    output.
/// Every run books some VM at time zero, so the last of these ends bounds
/// the makespan.  A transfer of b bytes lasts at least b / bw less the
/// completion tolerance of the fluid network, which may end it that early.
///
/// The workflow is kept as flat adjacency arrays holding the transfer time
/// of every edge, and the loaded schedule's VM lists as per-task links,
/// which a candidate move patches the way Engine::apply_move patches an
/// engine and then restores.  Nothing allocates once the buffers are sized.
class Simulator::Bound {
 public:
  Bound(const dag::Workflow& wf, const platform::Platform& platform);

  /// Loads the VM lists of \p schedule, which assigns every task.
  void load(const Schedule& schedule);

  /// The bound for the loaded lists with \p weights, with \p task, unless
  /// it is dag::invalid_task, moved right behind \p after on \p target (to
  /// the head when \p after is dag::invalid_task), or onto a fresh VM of
  /// \p fresh_category when \p target is invalid_vm.  std::nullopt when
  /// the constraints form a cycle.  The loaded lists stay as they were.
  [[nodiscard]] std::optional<Seconds> longest_path(const dag::WeightRealization& weights,
                                                    dag::TaskId task, VmId target,
                                                    platform::CategoryId fresh_category,
                                                    dag::TaskId after);

 private:
  static constexpr dag::TaskId none = dag::invalid_task;

  void unlink(dag::TaskId task);
  void link(dag::TaskId task, VmId vm, dag::TaskId after);
  [[nodiscard]] std::optional<Seconds> longest_path(const dag::WeightRealization& weights);

  const platform::Platform& platform_;
  // The workflow: per task, its predecessors with the transfer time of
  // their edge and its successors (CSR), and its external transfer times.
  std::vector<std::size_t> in_begin_;
  std::vector<dag::TaskId> in_src_;
  std::vector<Seconds> in_transfer_;
  std::vector<std::size_t> out_begin_;
  std::vector<dag::TaskId> out_dst_;
  std::vector<Seconds> input_transfer_;
  std::vector<Seconds> output_transfer_;
  // The VM lists: per task its VM and list neighbours, per VM its
  // category and first task.
  std::vector<VmId> vm_of_;
  std::vector<dag::TaskId> prev_;
  std::vector<dag::TaskId> next_;
  std::vector<platform::CategoryId> category_;
  std::vector<dag::TaskId> head_;
  // Longest-path scratch.
  std::vector<std::size_t> waiting_;  // per task: constraints not yet final
  std::vector<dag::TaskId> ready_;
  std::vector<Seconds> start_;   // per task
  std::vector<Seconds> finish_;  // per task
  std::vector<Seconds> boot_;    // per VM: boot_done
};

Simulator::Bound::Bound(const dag::Workflow& wf, const platform::Platform& platform)
    : platform_(platform) {
  const BytesPerSec bandwidth = platform.bandwidth();
  const auto transfer = [bandwidth](Bytes bytes) {
    return std::max(0.0, bytes / bandwidth - completion_tolerance);
  };
  in_begin_.push_back(0);
  out_begin_.push_back(0);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    for (const dag::EdgeId e : wf.in_edges(t)) {
      in_src_.push_back(wf.edge(e).src);
      in_transfer_.push_back(transfer(wf.edge(e).bytes));
    }
    in_begin_.push_back(in_src_.size());
    for (const dag::EdgeId e : wf.out_edges(t)) out_dst_.push_back(wf.edge(e).dst);
    out_begin_.push_back(out_dst_.size());
    input_transfer_.push_back(transfer(wf.external_input_of(t)));
    output_transfer_.push_back(transfer(wf.external_output_of(t)));
  }
  vm_of_.resize(wf.task_count());
  prev_.resize(wf.task_count());
  next_.resize(wf.task_count());
  waiting_.resize(wf.task_count());
  start_.resize(wf.task_count());
  finish_.resize(wf.task_count());
}

void Simulator::Bound::load(const Schedule& schedule) {
  category_.clear();
  head_.clear();
  for (VmId v = 0; v < schedule.vm_count(); ++v) {
    const std::span<const dag::TaskId> tasks = schedule.vm_tasks(v);
    category_.push_back(schedule.vm_category(v));
    head_.push_back(tasks.empty() ? none : tasks.front());
    dag::TaskId previous = none;
    for (const dag::TaskId t : tasks) {
      vm_of_[t] = v;
      prev_[t] = previous;
      next_[t] = none;
      if (previous != none) next_[previous] = t;
      previous = t;
    }
  }
}

void Simulator::Bound::unlink(dag::TaskId task) {
  if (prev_[task] != none)
    next_[prev_[task]] = next_[task];
  else
    head_[vm_of_[task]] = next_[task];
  if (next_[task] != none) prev_[next_[task]] = prev_[task];
}

void Simulator::Bound::link(dag::TaskId task, VmId vm, dag::TaskId after) {
  const dag::TaskId follower = after != none ? next_[after] : head_[vm];
  prev_[task] = after;
  next_[task] = follower;
  if (after != none)
    next_[after] = task;
  else
    head_[vm] = task;
  if (follower != none) prev_[follower] = task;
  vm_of_[task] = vm;
}

std::optional<Seconds> Simulator::Bound::longest_path(const dag::WeightRealization& weights,
                                                      dag::TaskId task, VmId target,
                                                      platform::CategoryId fresh_category,
                                                      dag::TaskId after) {
  if (task == none) return longest_path(weights);
  const VmId home = vm_of_[task];
  const dag::TaskId home_after = prev_[task];
  const bool fresh = target == invalid_vm;
  if (fresh) {
    target = static_cast<VmId>(category_.size());
    category_.push_back(fresh_category);
    head_.push_back(none);
  }
  unlink(task);
  link(task, target, after);
  const std::optional<Seconds> bound = longest_path(weights);
  unlink(task);
  link(task, home, home_after);
  if (fresh) {
    category_.pop_back();
    head_.pop_back();
  }
  return bound;
}

std::optional<Seconds> Simulator::Bound::longest_path(const dag::WeightRealization& weights) {
  const std::vector<Instructions>& weight = weights.weights();
  const Seconds boot_delay = platform_.boot_delay();
  const std::size_t n = vm_of_.size();
  boot_.resize(category_.size());
  ready_.clear();
  for (dag::TaskId t = 0; t < n; ++t) {
    waiting_[t] = in_begin_[t + 1] - in_begin_[t] + (prev_[t] != none ? 1 : 0);
    if (waiting_[t] == 0) ready_.push_back(t);
  }

  // Tasks in a topological order of the constraints: a task is ready once
  // its predecessors and its list predecessor are final.
  Seconds makespan = 0;
  std::size_t done = 0;
  while (!ready_.empty()) {
    const dag::TaskId t = ready_.back();
    ready_.pop_back();
    ++done;
    const VmId v = vm_of_[t];
    const std::size_t first = in_begin_[t];
    const std::size_t last = in_begin_[t + 1];
    if (prev_[t] == none) {
      Seconds request = 0;
      for (std::size_t i = first; i < last; ++i)
        if (vm_of_[in_src_[i]] != v)
          request = std::max(request, finish_[in_src_[i]] + in_transfer_[i]);
      boot_[v] = request + boot_delay;
    }
    Seconds start = boot_[v] + input_transfer_[t];
    for (std::size_t i = first; i < last; ++i) {
      const dag::TaskId src = in_src_[i];
      if (vm_of_[src] == v) {
        start = std::max(start, finish_[src]);
      } else {
        const Seconds hop = in_transfer_[i];
        start = std::max(start, std::max(finish_[src] + hop, boot_[v]) + hop);
      }
    }
    const platform::VmCategory& category = platform_.category(category_[v]);
    if (prev_[t] != none)
      start = std::max(start, category.processors == 1 ? finish_[prev_[t]] : start_[prev_[t]]);
    start_[t] = start;
    finish_[t] = start + weight[t] / category.speed;
    makespan = std::max(makespan, finish_[t] + output_transfer_[t]);

    for (std::size_t i = out_begin_[t]; i < out_begin_[t + 1]; ++i)
      if (--waiting_[out_dst_[i]] == 0) ready_.push_back(out_dst_[i]);
    if (next_[t] != none && --waiting_[next_[t]] == 0) ready_.push_back(next_[t]);
  }
  if (done < n) return std::nullopt;  // a cycle: its tasks never become ready
  return makespan;
}

SimResult Simulator::Engine::run(const Schedule& schedule, const dag::WeightRealization& weights,
                                 const RunOptions& options) {
  init(schedule, weights, options);
  start();
  main_loop();
  SimResult result = finalize();
  if (obs_) bus_->flush();
  return result;
}

namespace {

/// Process-wide post-run hook (see simulator.hpp).  Relaxed ordering is
/// enough: installation happens once at startup, before any simulation.
std::atomic<PostRunCheck>& post_run_check_storage() {
  static std::atomic<PostRunCheck> hook{nullptr};
  return hook;
}

}  // namespace

void set_post_run_check(PostRunCheck hook) noexcept {
  post_run_check_storage().store(hook, std::memory_order_relaxed);
}

PostRunCheck post_run_check() noexcept {
  return post_run_check_storage().load(std::memory_order_relaxed);
}

Simulator::Simulator(const dag::Workflow& wf, const platform::Platform& platform,
                     obs::EventBus* bus)
    : wf_(wf), platform_(platform) {
  require(wf.frozen(), "Simulator: workflow must be frozen");
  engine_ = std::make_unique<Engine>(wf_, platform_, bus);
}

Simulator::~Simulator() = default;

SimResult Simulator::run(const Schedule& schedule, const dag::WeightRealization& weights,
                         const RunOptions& options) {
  require(!sweeping_, "Simulator: run during a move sweep of the same Simulator");
  if (options.online) options.online->validate();
  options.faults.validate();
  options.recovery.validate();
  require(!options.online || !options.faults.enabled(),
          "Simulator::run: online re-scheduling cannot be combined with fault injection");
  ++counters.runs;
  SimResult result = engine_->run(schedule, weights, options);
  if (const PostRunCheck hook = post_run_check()) hook(wf_, platform_, schedule, result);
  return result;
}

const dag::WeightRealization& Simulator::conservative_weights() {
  if (!conservative_) conservative_ = dag::conservative_weights(wf_);
  return *conservative_;
}

void move_task(Schedule& schedule, dag::TaskId task, const MoveTarget& target) {
  schedule.move(task, target.vm == invalid_vm ? schedule.add_vm(target.category) : target.vm);
}

const EngineCounters& engine_counters() { return counters; }

std::optional<Seconds> Simulator::makespan_lower_bound(const Schedule& schedule,
                                                       const dag::WeightRealization& weights,
                                                       dag::TaskId task,
                                                       const MoveTarget& target) {
  require(!sweeping_, "Simulator::makespan_lower_bound: called during a move sweep");
  require(schedule.task_count() == wf_.task_count() && schedule.complete(),
          "Simulator::makespan_lower_bound: the schedule must assign every task");
  require(weights.size() == wf_.task_count(),
          "Simulator::makespan_lower_bound: weight realization size differs from workflow");
  Bound& bound = load_bound(schedule);
  dag::TaskId after = dag::invalid_task;
  if (task != dag::invalid_task) {
    require(task < wf_.task_count(), "Simulator::makespan_lower_bound: task out of range");
    if (target.vm == invalid_vm) {
      require(target.category < platform_.category_count(),
              "Simulator::makespan_lower_bound: fresh VM category out of range");
    } else {
      require(target.vm < schedule.vm_count() && target.vm != schedule.vm_of(task),
              "Simulator::makespan_lower_bound: target must be another VM of the schedule");
      const std::size_t position = schedule.insert_position(task, target.vm);
      if (position > 0) after = schedule.vm_tasks(target.vm)[position - 1];
    }
  }
  return bound.longest_path(weights, task, target.vm, target.category, after);
}

Simulator::Bound& Simulator::load_bound(const Schedule& schedule) {
  if (!bound_) bound_ = std::make_unique<Bound>(wf_, platform_);
  bound_->load(schedule);
  return *bound_;
}

std::vector<MoveOutcome> Simulator::sweep_moves(const Schedule& base, const SimResult& base_result,
                                                dag::TaskId task,
                                                std::span<const MoveTarget> targets,
                                                Seconds threshold) {
  require(!engine_->has_bus(), "Simulator::sweep_moves: needs a Simulator without an event bus");
  require(!sweeping_, "Simulator::sweep_moves: a sweep is already in progress");
  require(task < wf_.task_count(), "Simulator::sweep_moves: task out of range");
  require(base_result.tasks.size() == wf_.task_count() &&
              base_result.vms.size() == base.vm_count() && base_result.success(),
          "Simulator::sweep_moves: base_result is not a fault-free run of base");
  const dag::WeightRealization& weights = conservative_weights();
  if (!probe_) probe_ = std::make_unique<Engine>(wf_, platform_, nullptr);

  // Divergence time of each candidate (DESIGN.md Section 12): before it,
  // the candidate's run is the base run event for event.
  const auto& tasks = base_result.tasks;
  const auto& vms = base_result.vms;
  const VmId from = base.vm_of(task);
  const std::span<const dag::TaskId> from_list = base.vm_tasks(from);
  const auto from_index =
      static_cast<std::size_t>(std::find(from_list.begin(), from_list.end(), task) -
                               from_list.begin());
  const bool external_input = wf_.external_input_of(task) > 0;
  Seconds common = wf_.in_edges(task).empty() ? 0 : infinity;  // 1. predecessors finish
  for (dag::EdgeId e : wf_.in_edges(task))
    common = std::min(common, tasks[wf_.edge(e).src].finish);
  if (from_index > 0) {  // 2. the previous task on the source VM starts
    common = std::min(common, tasks[from_list[from_index - 1]].start);
  } else {  // ... or the source VM, or its next task, would book without the task
    common = std::min(common, vms[from].boot_request);
    if (from_list.size() > 1) common = std::min(common, tasks[from_list[1]].inputs_at_dc);
  }
  if (external_input) common = std::min(common, vms[from].boot_done);  // 4. boot scan

  steps_.clear();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const MoveTarget& target = targets[i];
    SweepStep step{common, i, 0};
    if (target.vm == invalid_vm) {
      require(target.category < platform_.category_count(),
              "Simulator::sweep_moves: fresh VM category out of range");
    } else {
      require(target.vm < base.vm_count() && target.vm != from,
              "Simulator::sweep_moves: target must be another VM of the base schedule");
      step.insert_at = base.insert_position(task, target.vm);
      if (step.insert_at > 0)  // 3. the previous task on the target VM starts
        step.divergence = std::min(
            step.divergence, tasks[base.vm_tasks(target.vm)[step.insert_at - 1]].start);
      else  // ... or the target VM books
        step.divergence = std::min(step.divergence, vms[target.vm].boot_request);
      if (external_input) step.divergence = std::min(step.divergence, vms[target.vm].boot_done);
    }
    steps_.push_back(step);
  }
  std::sort(steps_.begin(), steps_.end(), [](const SweepStep& a, const SweepStep& b) {
    return a.divergence != b.divergence ? a.divergence < b.divergence : a.target < b.target;
  });

  std::vector<MoveOutcome> outcomes(targets.size());
  const PostRunCheck hook = post_run_check();
  Bound* const bound = hook != nullptr || threshold < infinity ? &load_bound(base) : nullptr;
  std::exception_ptr error;
  std::size_t error_target = targets.size();
  sweeping_ = true;
  const struct EndSweep {
    bool& flag;
    ~EndSweep() { flag = false; }
  } end_sweep{sweeping_};
  engine_->init(base, weights, {});
  bool started = false;  // T = 0 resumes before the time-zero boot pass
  for (const SweepStep& step : steps_) {
    const MoveTarget& target = targets[step.target];
    // Screening: a candidate whose bound exceeds the threshold is not run,
    // and the base run advances no further than the candidates that are.
    Seconds lower = -infinity;  // no bound: never screened
    if (bound != nullptr) {
      const dag::TaskId after = target.vm != invalid_vm && step.insert_at > 0
                                    ? base.vm_tasks(target.vm)[step.insert_at - 1]
                                    : dag::invalid_task;
      const std::optional<Seconds> path =
          bound->longest_path(weights, task, target.vm, target.category, after);
      lower = path.value_or(-infinity);
    }
    const bool screened = lower > threshold * (1 + bound_margin);
    if (screened) {
      ++counters.screened;
      outcomes[step.target] = {infinity, infinity};
      if (hook == nullptr) continue;
    }
    if (!started && step.divergence > 0) {
      engine_->start();
      started = true;
    }
    if (started) engine_->main_loop(step.divergence);
    try {
      probe_->copy_state_from(*engine_);
      probe_->apply_move(task, from_index, target.vm, target.category, step.insert_at);
      if (!started) probe_->start();
      probe_->main_loop();
      ++counters.simulated;
      if (hook == nullptr) {
        outcomes[step.target] = probe_->outcome();
        continue;
      }
      // Hand the candidate to the hook as a run of it would, then audit
      // the bound against the candidate's makespan.
      Schedule candidate = base;
      move_task(candidate, task, target);
      const SimResult result = probe_->finalize();
      hook(wf_, platform_, candidate, result);
      if (lower > result.makespan * (1 + bound_margin)) {
        std::ostringstream os;
        os.precision(17);
        os << "Simulator::sweep_moves: candidate makespan " << result.makespan
           << " is below its lower bound " << lower;
        throw InternalError(os.str());
      }
      if (!screened) outcomes[step.target] = {result.makespan, result.total_cost()};
    } catch (...) {
      if (step.target < error_target) {
        error = std::current_exception();
        error_target = step.target;
      }
    }
  }
  if (error) std::rethrow_exception(error);
  return outcomes;
}

std::vector<dag::TaskId> schedule_critical_path(const SimResult& result) {
  require(!result.tasks.empty(), "schedule_critical_path: empty result");
  dag::TaskId last = 0;
  for (dag::TaskId t = 0; t < result.tasks.size(); ++t)
    if (result.tasks[t].finish > result.tasks[last].finish) last = t;

  std::vector<dag::TaskId> path;
  dag::TaskId current = last;
  while (current != dag::invalid_task) {
    path.push_back(current);
    // Defensive cap: bound_by links cannot cycle (they point to strictly
    // earlier events), but guard against record corruption anyway.
    require(path.size() <= result.tasks.size(), "schedule_critical_path: bound_by cycle");
    current = result.tasks[current].bound_by;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cloudwf::sim
