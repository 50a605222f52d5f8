#pragma once

/// \file tracer.hpp
/// \brief In-memory spans and work counters for the traced run, recorded
/// from outside the library around each call into one layer.
///
/// Spans carry a layer, start, end, their parent on the same thread and the
/// campaign cell (request index) they belong to.  They stay in per-thread
/// buffers until the run ends, when write_chrome_trace() writes them once.
/// A layer's self time is its spans' durations minus their same-thread
/// children's.
///
/// Work counters come only from public hooks: sim::set_post_run_check
/// counts simulations and engine events per thread, sched::probe_count()
/// counts placement probes and refine_by_resimulation returns its moves
/// (journal appends come from CheckpointJournal::recorded()).

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/evaluate.hpp"
#include "sched/plan.hpp"

namespace cloudwf::bench {

struct Campaign;

enum class Layer : std::uint8_t {
  round,          ///< exp.runner: one whole campaign round (main thread)
  dag_load,       ///< dag: load_json / load_dax
  budget_levels,  ///< exp.budget_levels: compute_budget_levels
  cell,           ///< exp.cell: one request, parent of the layers below
  plan,           ///< sched.plan: PlanCache::get
  list,           ///< sched.list: list pass (non-refining schedule() incl. prediction)
  refine,         ///< sched.refine: refinement + final prediction (all of CG+)
  sim,            ///< sim: evaluate_schedule's repetitions
  journal,        ///< exp.checkpoint: CheckpointJournal::record
  csv,            ///< exp.runner.csv: write_results_csv
};
inline constexpr std::size_t layer_count = 10;

using Clock = std::chrono::steady_clock;

class Tracer {
  struct Buffer;

 public:
  /// Opens a span on the calling thread; closes it on destruction.  A null
  /// tracer records nothing.  \p cell < 0 inherits the enclosing span's.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, std::int64_t cell = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buffer_ = nullptr;
    std::size_t index_ = 0;
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans opened from now on belong to round \p round.
  void set_round(std::uint32_t round);

  /// Self time (ms) per layer of one round, summed over threads.
  [[nodiscard]] std::array<double, layer_count> self_ms(std::uint32_t round) const;

  /// Writes every span as Chrome trace-event JSON (loadable in Perfetto).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  Buffer& local_buffer();

  Clock::time_point origin_ = Clock::now();
  std::uint32_t round_ = 0;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Per-thread simulation counters fed by the post-run hook.
struct SimCounts {
  std::size_t runs = 0;
  std::size_t events = 0;
  std::size_t tasks = 0;
  std::size_t failed_tasks = 0;
  std::size_t transfer_retries = 0;

  SimCounts& operator+=(const SimCounts& other);
  [[nodiscard]] SimCounts operator-(const SimCounts& other) const;
};

/// Installs / removes the counting post-run hook (process-wide; the same
/// slot the CLOUDWF_CHECK invariant checker uses).
void install_sim_counter();
void uninstall_sim_counter();
/// The calling thread's totals since it started.
[[nodiscard]] SimCounts thread_sim_counts();

/// Work counted inside the cell layers of one round.
struct CellWork {
  std::size_t plan_gets = 0;
  std::size_t list_calls = 0;
  std::size_t list_tasks = 0;  ///< tasks scheduled by those calls
  std::size_t probes = 0;
  SimCounts refine;
  std::size_t refine_moves = 0;
  SimCounts sim;

  CellWork& operator+=(const CellWork& other);
};

/// One campaign cell made layer by layer, with the same calls and results
/// as exp::evaluate under the runner: PlanCache::get, the scheduler (the
/// base list pass and refine_by_resimulation separately for refining
/// algorithms), evaluate_schedule and, with a journal, record().
[[nodiscard]] exp::EvalResult traced_cell(const Campaign& campaign, std::size_t index,
                                          sched::PlanCache& plans,
                                          exp::CheckpointJournal* journal, Tracer& tracer,
                                          CellWork& work);

}  // namespace cloudwf::bench
