#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "exp/checkpoint.hpp"
#include "exp/result_fields.hpp"
#include "sched/plan.hpp"

namespace cloudwf::exp {

namespace {

std::atomic<bool> interrupt_flag{false};

extern "C" void cloudwf_on_signal(int) { interrupt_flag.store(true); }

void check_requests(std::span<const RunRequest> requests) {
  for (const RunRequest& request : requests) {
    require(request.wf != nullptr, "runner: RunRequest without a workflow");
    require(request.wf->frozen(), "runner: workflow must be frozen");
    require(!request.algorithm.empty(), "runner: RunRequest without an algorithm");
  }
}

/// Placeholder cell for a request whose evaluation failed: no sample data,
/// zero fractions, the error taxonomy filled in.
EvalResult degraded_result(const RunRequest& request, RunStatus status,
                           const std::exception& error) {
  EvalResult result;
  result.algorithm = request.algorithm;
  result.budget = request.budget;
  result.status = status;
  result.error_kind = classify_error(error);
  result.error_message = error.what();
  result.deadline_fraction = 0;
  result.success_fraction = 0;
  return result;
}

/// Evaluates one request under \p policy: journal replay, watchdog,
/// exception capture, journal record.  Interrupted always propagates.
/// \p plans shares budget-independent workflow analyses across the matrix
/// (bit-identical results; see sched/plan.hpp).
EvalResult evaluate_request(const platform::Platform& platform, const RunRequest& request,
                            const RunPolicy& policy, sched::PlanCache& plans) {
  throw_if_interrupted();
  std::string fingerprint;
  if (policy.journal != nullptr) {
    fingerprint = fingerprint_request(request, policy.fingerprint_salt);
    if (const EvalResult* cached = policy.journal->find(fingerprint)) return *cached;
  }
  EvalConfig config = request.config;
  if (policy.run_timeout > 0) config.run_timeout = policy.run_timeout;
  if (config.plan_cache == nullptr) config.plan_cache = &plans;
  EvalResult result;
  try {
    result = evaluate(*request.wf, platform, request.algorithm, request.budget, config);
  } catch (const Interrupted&) {
    throw;
  } catch (const TimeoutError& error) {
    if (!policy.capture_errors) throw;
    result = degraded_result(request, RunStatus::timed_out, error);
  } catch (const std::exception& error) {
    if (!policy.capture_errors) throw;
    result = degraded_result(request, RunStatus::errored, error);
  }
  // Only completed cells become durable; degraded ones are retried on
  // resume (a transient OOM or timeout should not poison future runs).
  if (policy.journal != nullptr && result.ok()) policy.journal->record(fingerprint, result);
  return result;
}

/// Per-cell progress reporting for long matrices: done/total, wall time so
/// far, a naive linear ETA, and the metrics of the cell that just landed.
/// Emitted at `info` (invisible by default; CLOUDWF_LOG=info shows it) on
/// stderr, so machine-readable stdout stays byte-identical.
class Heartbeat {
 public:
  explicit Heartbeat(std::size_t total) : total_(total) {}

  void cell_done(const RunRequest& request, const EvalResult& result) {
    if (LogLevel::info < log_threshold()) return;  // skip the formatting work
    const std::size_t done = 1 + done_.fetch_add(1, std::memory_order_relaxed);
    const double elapsed = std::chrono::duration<double>(Clock::now() - start_).count();
    const double eta =
        done > 0 ? elapsed / static_cast<double>(done) *
                       static_cast<double>(total_ - done)
                 : 0.0;
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << "cell " << done << "/" << total_ << " ("
       << elapsed << " s elapsed, ~" << eta << " s left): " << request.wf->name() << "/"
       << result.algorithm << " b=" << std::setprecision(4) << result.budget << " "
       << to_string(result.status);
    if (result.ok())
      os << std::setprecision(1) << " makespan=" << result.makespan.mean()
         << " cost=" << std::setprecision(4) << result.cost.mean()
         << " valid=" << std::setprecision(2) << result.valid_fraction
         << " util=" << result.vm_util_mean;
    log_info_c("runner", os.str());
  }

 private:
  using Clock = std::chrono::steady_clock;

  const std::size_t total_;
  std::atomic<std::size_t> done_{0};
  const Clock::time_point start_ = Clock::now();
};

}  // namespace

void install_interrupt_handlers() {
  std::signal(SIGINT, cloudwf_on_signal);
  std::signal(SIGTERM, cloudwf_on_signal);
}

void request_interrupt() noexcept { interrupt_flag.store(true); }

void clear_interrupt() noexcept { interrupt_flag.store(false); }

bool interrupt_requested() noexcept { return interrupt_flag.load(); }

void throw_if_interrupted() {
  if (interrupt_flag.load())
    throw Interrupted("runner: stop requested (SIGINT/SIGTERM); journaled cells are durable");
}

std::vector<EvalResult> run_parallel(const platform::Platform& platform,
                                     std::span<const RunRequest> requests, ThreadPool& pool,
                                     const RunPolicy& policy) {
  check_requests(requests);
  std::vector<EvalResult> results(requests.size());
  Heartbeat heartbeat(requests.size());
  sched::PlanCache plans;  // shared across cells; PlanCache::get is thread-safe
  pool.parallel_for(requests.size(), [&](std::size_t i) {
    results[i] = evaluate_request(platform, requests[i], policy, plans);
    heartbeat.cell_done(requests[i], results[i]);
  });
  return results;
}

std::vector<EvalResult> run_serial(const platform::Platform& platform,
                                   std::span<const RunRequest> requests,
                                   const RunPolicy& policy) {
  check_requests(requests);
  std::vector<EvalResult> results;
  results.reserve(requests.size());
  Heartbeat heartbeat(requests.size());
  sched::PlanCache plans;
  for (const RunRequest& request : requests) {
    results.push_back(evaluate_request(platform, request, policy, plans));
    heartbeat.cell_done(request, results.back());
  }
  return results;
}

void write_results_csv(std::ostream& out, std::span<const RunRequest> requests,
                       std::span<const EvalResult> results) {
  require(requests.size() == results.size(), "write_results_csv: size mismatch");
  CsvWriter csv(out);
  std::vector<std::string> header;
  for (const ResultField& field : result_fields)
    if (field.csv_column != no_column) header.emplace_back(field.name);
  csv.header(header);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (const ResultField& field : result_fields) {
      if (field.csv_column == no_column) continue;
      if (field.degraded == Degraded::nan && !results[i].ok()) {
        csv.field(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      visit_field(field, requests[i], results[i], [&](const auto& value) {
        using T = std::remove_cvref_t<decltype(value)>;
        if constexpr (std::is_enum_v<T>)
          csv.field(to_string(value));
        else if constexpr (std::is_same_v<T, bool>)
          csv.field(value ? 1 : 0);
        else if constexpr (!std::is_same_v<T, Summary>)
          csv.field(value);
      });
    }
    csv.end_row();
  }
}

}  // namespace cloudwf::exp
