/// \file test_runner.cpp
/// \brief Tests of the parallel experiment runner (exp/runner).

#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "exp/campaign.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"

namespace cloudwf::exp {
namespace {

std::vector<RunRequest> make_matrix(const dag::Workflow& wf) {
  std::vector<RunRequest> requests;
  for (const std::string algorithm : {"heft", "heft-budg", "cg"}) {
    for (const double budget : {1.0, 2.0, 4.0}) {
      RunRequest request;
      request.wf = &wf;
      request.algorithm = algorithm;
      request.budget = budget;
      request.config.repetitions = 4;
      request.config.seed = 11;
      request.tag = algorithm + "@" + std::to_string(budget);
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

TEST(Runner, ParallelMatchesSerialBitForBit) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {20, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);

  const auto serial = run_serial(platform, requests);
  ThreadPool pool(4);
  const auto parallel = run_parallel(platform, requests, pool);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].makespan.mean(), parallel[i].makespan.mean()) << i;
    EXPECT_DOUBLE_EQ(serial[i].cost.mean(), parallel[i].cost.mean()) << i;
    EXPECT_EQ(serial[i].used_vms, parallel[i].used_vms) << i;
    EXPECT_DOUBLE_EQ(serial[i].valid_fraction, parallel[i].valid_fraction) << i;
  }
}

TEST(Runner, FaultInjectionParallelMatchesSerialBitForBit) {
  // Repetition r draws its faults from faults.for_repetition(r), so the
  // outcome must not depend on how repetitions are spread across threads.
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {20, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  for (RunRequest& request : requests) {
    request.config.faults.lambda_crash = 2.0;
    request.config.faults.p_transfer_fail = 0.05;
    request.config.recovery.budget_cap = 3.0 * request.budget;
  }

  const auto serial = run_serial(platform, requests);
  ThreadPool pool(4);
  const auto parallel = run_parallel(platform, requests, pool);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].makespan.mean(), parallel[i].makespan.mean()) << i;
    EXPECT_DOUBLE_EQ(serial[i].cost.mean(), parallel[i].cost.mean()) << i;
    EXPECT_DOUBLE_EQ(serial[i].success_fraction, parallel[i].success_fraction) << i;
    EXPECT_DOUBLE_EQ(serial[i].crashes_mean, parallel[i].crashes_mean) << i;
    EXPECT_DOUBLE_EQ(serial[i].failed_tasks_mean, parallel[i].failed_tasks_mean) << i;
    EXPECT_DOUBLE_EQ(serial[i].recovery_cost_mean, parallel[i].recovery_cost_mean) << i;
    EXPECT_DOUBLE_EQ(serial[i].wasted_compute_mean, parallel[i].wasted_compute_mean) << i;
  }
}

TEST(Runner, ResultsAreIndexAligned) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::ligo, {22, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  ThreadPool pool(3);
  const auto results = run_parallel(platform, requests, pool);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(results[i].algorithm, requests[i].algorithm) << i;
}

TEST(Runner, RejectsMalformedRequests) {
  const auto platform = platform::paper_platform();
  std::vector<RunRequest> requests(1);  // null workflow
  EXPECT_THROW((void)run_serial(platform, requests), InvalidArgument);
}

TEST(Runner, CsvContainsOneRowPerRequest) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  const auto results = run_serial(platform, requests);

  std::ostringstream os;
  write_results_csv(os, requests, results);
  const std::string csv = os.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            requests.size() + 1);  // header + rows
  EXPECT_NE(csv.find("makespan_p95"), std::string::npos);
  EXPECT_NE(csv.find("heft-budg@"), std::string::npos);
}

TEST(Runner, CsvRoundTripsThroughParser) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  // Tags with separators, quotes and newlines must survive a write -> parse
  // round trip (plot scripts read these files back).
  requests[0].tag = "b=1.0, \"quick\" look";
  requests[1].tag = "multi\nline tag";
  const auto results = run_serial(platform, requests);

  std::ostringstream os;
  write_results_csv(os, requests, results);
  const auto rows = parse_csv(os.str());

  ASSERT_EQ(rows.size(), requests.size() + 1);
  const std::vector<std::string>& header = rows[0];
  EXPECT_EQ(header.size(), 34u);  // 27 original + 7 appended obs columns
  for (const char* column : {"status", "error_kind", "error_message", "success_fraction",
                             "budget_violation_fraction", "crashes_mean", "failed_tasks_mean",
                             "recovery_cost_mean", "wasted_compute_mean", "queue_wait_p50",
                             "queue_wait_p95", "queue_wait_p99", "vm_util_mean",
                             "transfer_retries_mean", "budget_headroom_mean",
                             "sim_events_per_sec"})
    EXPECT_NE(std::find(header.begin(), header.end(), column), header.end()) << column;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(rows[i + 1].size(), header.size()) << i;
    EXPECT_EQ(rows[i + 1][3], requests[i].tag) << i;  // tag column, unescaped
    EXPECT_EQ(rows[i + 1][4], "ok") << i;             // status column
    EXPECT_EQ(rows[i + 1][5], "none") << i;           // error_kind column
    EXPECT_EQ(rows[i + 1][6], "") << i;               // error_message column
  }
}

/// A result with a distinct value in every field, so a swapped, dropped or
/// re-formatted column shows up in an exact comparison.
EvalResult distinct_result(RunStatus status) {
  EvalResult r;
  r.algorithm = "heft-budg";
  r.budget = 100000;
  r.status = status;
  r.error_kind = status == RunStatus::ok ? ErrorKind::none : ErrorKind::invalid_argument;
  r.error_message = status == RunStatus::ok ? "" : "bad, \"quoted\" input";
  r.predicted_makespan = 1.5;
  r.predicted_cost = 2.25;
  r.predicted_feasible = true;
  r.used_vms = 100000;
  r.makespan = Summary({10, 20, 40});
  r.cost = Summary({1, 3, 4});
  r.valid_fraction = 0.75;
  r.deadline_fraction = 0.625;
  r.objective_fraction = 0.5;
  r.success_fraction = 0.375;
  r.crashes_mean = 3.5;
  r.failed_tasks_mean = 4.5;
  r.recovery_cost_mean = 5.5;
  r.wasted_compute_mean = 6.5;
  r.schedule_seconds = 0.125;
  r.queue_wait_p50 = 7.5;
  r.queue_wait_p95 = 8.5;
  r.queue_wait_p99 = 9.5;
  r.vm_util_mean = 0.0625;
  r.transfer_retries_mean = 11.5;
  r.budget_headroom_mean = 0.25;
  r.sim_events_per_sec = 1e6;
  return r;
}

/// The results CSV as lines: the header, then one row per result.
std::vector<std::string> csv_lines(const dag::Workflow& wf, std::vector<EvalResult> results) {
  std::vector<RunRequest> requests(results.size());
  for (RunRequest& request : requests) {
    request.wf = &wf;
    request.tag = "inst=0;b=1";
  }
  std::ostringstream os;
  write_results_csv(os, requests, results);
  std::vector<std::string> lines;
  std::istringstream in(os.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Runner, CsvHeaderLineIsPinned) {
  // plot scripts and positional consumers read these names; the first 27
  // columns never move, the seven observability ones follow them.
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto lines = csv_lines(wf, {distinct_result(RunStatus::ok)});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "workflow,algorithm,budget,tag,status,error_kind,error_message,repetitions,"
            "predicted_makespan,predicted_cost,predicted_feasible,used_vms,makespan_mean,"
            "makespan_stddev,makespan_p95,cost_mean,cost_stddev,valid_fraction,"
            "deadline_fraction,objective_fraction,success_fraction,budget_violation_fraction,"
            "crashes_mean,failed_tasks_mean,recovery_cost_mean,wasted_compute_mean,"
            "schedule_seconds,queue_wait_p50,queue_wait_p95,queue_wait_p99,vm_util_mean,"
            "transfer_retries_mean,budget_headroom_mean,sim_events_per_sec");
}

TEST(Runner, CsvRowsArePinnedForOkAndDegradedCells) {
  // Integer columns print as integers (100000, not 1e+05); a degraded cell
  // shows nan exactly where its value would be meaningless.
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto lines = csv_lines(
      wf, {distinct_result(RunStatus::ok), distinct_result(RunStatus::errored)});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1],
            "montage-n15-s4,heft-budg,1e+05,inst=0;b=1,ok,none,,3,1.5,2.25,1,100000,"
            "23.333333333333332,15.275252316519467,38,2.6666666666666665,1.5275252316519465,"
            "0.75,0.625,0.5,0.375,0.25,3.5,4.5,5.5,6.5,0.125,7.5,8.5,9.5,0.0625,11.5,0.25,"
            "1e+06");
  EXPECT_EQ(lines[2],
            "montage-n15-s4,heft-budg,1e+05,inst=0;b=1,errored,invalid_argument,"
            "\"bad, \"\"quoted\"\" input\",3,nan,nan,1,100000,nan,nan,nan,nan,nan,0.75,0.625,"
            "0.5,0.375,0.25,3.5,4.5,5.5,6.5,0.125,nan,nan,nan,nan,nan,nan,nan");
}

TEST(Runner, ThrowingAlgorithmBecomesErroredCellMidMatrix) {
  // The robustness regression: one bad algorithm name in the middle of a
  // parallel matrix must degrade exactly its own cell, not tear down the
  // whole campaign with an exception out of parallel_for.
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  const std::size_t bad = requests.size() / 2;
  requests[bad].algorithm = "no-such-algorithm";

  ThreadPool pool(4);
  const auto results = run_parallel(platform, requests, pool);

  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == bad) {
      EXPECT_EQ(results[i].status, RunStatus::errored);
      EXPECT_EQ(results[i].error_kind, ErrorKind::invalid_argument);
      EXPECT_FALSE(results[i].error_message.empty());
      EXPECT_TRUE(results[i].makespan.empty());
    } else {
      EXPECT_EQ(results[i].status, RunStatus::ok) << i;
      EXPECT_GT(results[i].makespan.count(), 0u) << i;
    }
  }

  // The degraded cell survives a CSV round trip with parseable columns.
  std::ostringstream os;
  write_results_csv(os, requests, results);
  const auto rows = parse_csv(os.str());
  EXPECT_EQ(rows[1 + bad][4], "errored");
  EXPECT_EQ(parse_error_kind(rows[1 + bad][5]), ErrorKind::invalid_argument);
  EXPECT_EQ(rows[1 + bad][12], "nan");  // makespan_mean column
}

TEST(Runner, CaptureErrorsOffPropagatesTheException) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  requests[0].algorithm = "no-such-algorithm";
  RunPolicy policy;
  policy.capture_errors = false;
  EXPECT_THROW((void)run_serial(platform, requests, policy), InvalidArgument);
}

TEST(Runner, WatchdogTimeoutBecomesTimedOutCell) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  std::vector<RunRequest> requests(1);
  requests[0].wf = &wf;
  requests[0].algorithm = "heft";
  requests[0].budget = 4.0;
  requests[0].config.repetitions = 4;
  RunPolicy policy;
  policy.run_timeout = 1e-9;  // expires before the first deadline check
  const auto results = run_serial(platform, requests, policy);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::timed_out);
  EXPECT_EQ(results[0].error_kind, ErrorKind::timeout);
  EXPECT_TRUE(results[0].makespan.empty());
}

TEST(Runner, InterruptStopsTheSweep) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  request_interrupt();
  // Interrupted is a shutdown request, not a per-cell failure: it must
  // propagate even though capture_errors defaults to true.
  EXPECT_THROW((void)run_serial(platform, requests), Interrupted);
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
  EXPECT_EQ(run_serial(platform, requests).size(), requests.size());
}

TEST(Runner, CsvRejectsMismatchedSpans) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  auto results = run_serial(platform, requests);
  results.pop_back();
  std::ostringstream os;
  EXPECT_THROW(write_results_csv(os, requests, results), InvalidArgument);
}

TEST(Runner, CampaignReportsDegradedCellsAndCompletes) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "no-such-algorithm"};

  const CampaignResult result = run_campaign(platform::paper_platform(), config);
  EXPECT_EQ(result.errored_cells, 2u * 3u);  // every (instance, budget) of the bad algorithm
  EXPECT_EQ(result.timed_out_cells, 0u);
  ASSERT_EQ(result.cells.size(), 2u);
  for (std::size_t b = 0; b < result.cells[0].size(); ++b) {
    EXPECT_EQ(result.cells[0][b].degraded(), 0u) << b;
    EXPECT_EQ(result.cells[0][b].makespan.count(), 2u) << b;  // healthy algorithm intact
    EXPECT_EQ(result.cells[1][b].errored, 2u) << b;
    EXPECT_EQ(result.cells[1][b].makespan.count(), 0u) << b;

    // The table renderer must not choke on empty accumulators.
  }
  std::ostringstream os;
  print_campaign_table(os, result, "makespan", "degraded campaign");
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
  EXPECT_NE(os.str().find("degraded cells excluded"), std::string::npos);
}

TEST(Runner, CampaignParallelMatchesSerial) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "heft-budg"};

  config.threads = 1;
  const CampaignResult serial = run_campaign(platform::paper_platform(), config);
  config.threads = 4;
  const CampaignResult parallel = run_campaign(platform::paper_platform(), config);

  for (std::size_t a = 0; a < serial.cells.size(); ++a) {
    for (std::size_t b = 0; b < serial.cells[a].size(); ++b) {
      EXPECT_DOUBLE_EQ(serial.cells[a][b].makespan.mean(),
                       parallel.cells[a][b].makespan.mean());
      EXPECT_DOUBLE_EQ(serial.cells[a][b].cost.mean(), parallel.cells[a][b].cost.mean());
    }
  }
}

}  // namespace
}  // namespace cloudwf::exp
