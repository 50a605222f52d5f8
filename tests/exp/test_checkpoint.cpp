/// \file test_checkpoint.cpp
/// \brief Tests of journaled checkpoint/resume (exp/checkpoint).

#include "exp/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "exp/campaign.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"

namespace cloudwf::exp {
namespace {

namespace fs = std::filesystem;

/// Field-by-field exact equality (operator== on double is deliberate: the
/// journal must replay results *bit-identically*, not approximately).
void expect_results_identical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error_kind, b.error_kind);
  EXPECT_EQ(a.error_message, b.error_message);
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan);
  EXPECT_EQ(a.predicted_cost, b.predicted_cost);
  EXPECT_EQ(a.predicted_feasible, b.predicted_feasible);
  EXPECT_EQ(a.used_vms, b.used_vms);
  EXPECT_EQ(a.makespan.values(), b.makespan.values());
  EXPECT_EQ(a.cost.values(), b.cost.values());
  EXPECT_EQ(a.valid_fraction, b.valid_fraction);
  EXPECT_EQ(a.deadline_fraction, b.deadline_fraction);
  EXPECT_EQ(a.objective_fraction, b.objective_fraction);
  EXPECT_EQ(a.success_fraction, b.success_fraction);
  EXPECT_EQ(a.crashes_mean, b.crashes_mean);
  EXPECT_EQ(a.failed_tasks_mean, b.failed_tasks_mean);
  EXPECT_EQ(a.recovery_cost_mean, b.recovery_cost_mean);
  EXPECT_EQ(a.wasted_compute_mean, b.wasted_compute_mean);
  EXPECT_EQ(a.schedule_seconds, b.schedule_seconds);
  EXPECT_EQ(a.queue_wait_p50, b.queue_wait_p50);
  EXPECT_EQ(a.queue_wait_p95, b.queue_wait_p95);
  EXPECT_EQ(a.queue_wait_p99, b.queue_wait_p99);
  EXPECT_EQ(a.vm_util_mean, b.vm_util_mean);
  EXPECT_EQ(a.transfer_retries_mean, b.transfer_retries_mean);
  EXPECT_EQ(a.budget_headroom_mean, b.budget_headroom_mean);
  EXPECT_EQ(a.sim_events_per_sec, b.sim_events_per_sec);
}

/// Campaign aggregate equality, excluding sched_time (wall-clock noise for
/// freshly computed cells).
void expect_campaigns_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.mean_budgets.size(), b.mean_budgets.size());
  for (std::size_t i = 0; i < a.mean_budgets.size(); ++i)
    EXPECT_EQ(a.mean_budgets[i], b.mean_budgets[i]) << i;
  EXPECT_EQ(a.min_cost.mean(), b.min_cost.mean());
  EXPECT_EQ(a.timed_out_cells, b.timed_out_cells);
  EXPECT_EQ(a.errored_cells, b.errored_cells);
  for (std::size_t alg = 0; alg < a.cells.size(); ++alg) {
    ASSERT_EQ(a.cells[alg].size(), b.cells[alg].size());
    for (std::size_t bud = 0; bud < a.cells[alg].size(); ++bud) {
      const CampaignCell& ca = a.cells[alg][bud];
      const CampaignCell& cb = b.cells[alg][bud];
      EXPECT_EQ(ca.makespan.count(), cb.makespan.count()) << alg << "," << bud;
      EXPECT_EQ(ca.makespan.mean(), cb.makespan.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.makespan.stddev(), cb.makespan.stddev()) << alg << "," << bud;
      EXPECT_EQ(ca.cost.mean(), cb.cost.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.used_vms.mean(), cb.used_vms.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.valid.mean(), cb.valid.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.timed_out, cb.timed_out) << alg << "," << bud;
      EXPECT_EQ(ca.errored, cb.errored) << alg << "," << bud;
    }
  }
}

EvalResult sample_result() {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 5;
  config.seed = 1234;
  config.measure_cpu_time = true;
  return evaluate(wf, platform, "heft-budg", 3.0, config);
}

CampaignConfig small_campaign() {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "heft-budg"};
  return config;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each TEST as its own process, possibly in
    // parallel, so a shared fixture directory would let one test's
    // SetUp/TearDown remove_all the journal another test is replaying.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("cloudwf_checkpoint_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string journal_path() const { return (dir_ / "journal.jsonl").string(); }

  fs::path dir_;
};

TEST_F(CheckpointTest, EvalResultJsonRoundTripIsExact) {
  const EvalResult original = sample_result();
  // Serialize -> text -> parse -> deserialize: exactly what a journal line
  // goes through, including shortest-round-trip double formatting.
  const Json reparsed = Json::parse(eval_result_to_json(original).dump());
  expect_results_identical(original, eval_result_from_json(reparsed));
}

TEST_F(CheckpointTest, EvalResultJsonIsPinned) {
  // Journal lines are a byte format: key order and the "obs" block must not
  // move, or journals written by one build stop matching another's.
  EvalResult r;
  r.algorithm = "heft-budg";
  r.budget = 2.5;
  r.status = RunStatus::ok;
  r.error_kind = ErrorKind::none;
  r.error_message = "msg";
  r.predicted_makespan = 1.5;
  r.predicted_cost = 2.25;
  r.predicted_feasible = true;
  r.used_vms = 7;
  r.makespan = Summary({10, 20});
  r.cost = Summary({1, 3});
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
  const std::string dump = eval_result_to_json(r).dump();
  EXPECT_EQ(dump,
            R"({"algorithm":"heft-budg","budget":2.5,"status":"ok","error_kind":"none",)"
            R"("error_message":"msg","predicted_makespan":1.5,"predicted_cost":2.25,)"
            R"("predicted_feasible":true,"used_vms":7,"makespan":[10,20],"cost":[1,3],)"
            R"("valid_fraction":0.75,"deadline_fraction":0.625,"objective_fraction":0.5,)"
            R"("success_fraction":0.375,"crashes_mean":3.5,"failed_tasks_mean":4.5,)"
            R"("recovery_cost_mean":5.5,"wasted_compute_mean":6.5,"schedule_seconds":0.125,)"
            R"("obs":{"queue_wait_p50":7.5,"queue_wait_p95":8.5,"queue_wait_p99":9.5,)"
            R"("vm_util_mean":0.0625,"transfer_retries_mean":11.5,)"
            R"("budget_headroom_mean":0.25,"sim_events_per_sec":1000000}})");
  expect_results_identical(r, eval_result_from_json(Json::parse(dump)));
}

TEST_F(CheckpointTest, DegradedResultRoundTrips) {
  EvalResult degraded;
  degraded.algorithm = "heft";
  degraded.budget = 2.5;
  degraded.status = RunStatus::timed_out;
  degraded.error_kind = ErrorKind::timeout;
  degraded.error_message = "watchdog deadline of 0.5 s expired, with \"quotes\"\nand newline";
  const Json reparsed = Json::parse(eval_result_to_json(degraded).dump());
  expect_results_identical(degraded, eval_result_from_json(reparsed));
}

TEST_F(CheckpointTest, UsedVmsOutsideSizeRangeRejected) {
  for (const double used_vms : {-1.0, 2.5, 1e300}) {
    Json json = eval_result_to_json(sample_result());
    json.as_object()["used_vms"] = used_vms;
    EXPECT_THROW((void)eval_result_from_json(json), ValidationError);
  }
}

TEST_F(CheckpointTest, FingerprintSeparatesRequests) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  RunRequest base;
  base.wf = &wf;
  base.algorithm = "heft";
  base.budget = 2.0;
  base.tag = "inst=0;b=0";

  const std::string fp = fingerprint_request(base, 42);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, fingerprint_request(base, 42));  // deterministic

  RunRequest other = base;
  other.algorithm = "heft-budg";
  EXPECT_NE(fingerprint_request(other, 42), fp);
  other = base;
  other.budget = 2.0000001;
  EXPECT_NE(fingerprint_request(other, 42), fp);
  other = base;
  other.tag = "inst=1;b=0";
  EXPECT_NE(fingerprint_request(other, 42), fp);
  other = base;
  other.config.seed += 1;
  EXPECT_NE(fingerprint_request(other, 42), fp);
  EXPECT_NE(fingerprint_request(base, 43), fp);  // different campaign salt
}

TEST_F(CheckpointTest, JournalRecordsAndReloads) {
  const EvalResult result = sample_result();
  {
    CheckpointJournal journal(journal_path(), /*resume=*/false);
    EXPECT_EQ(journal.cached(), 0u);
    journal.record("fp-1", result);
    EXPECT_EQ(journal.recorded(), 1u);
  }
  CheckpointJournal reloaded(journal_path(), /*resume=*/true);
  EXPECT_EQ(reloaded.cached(), 1u);
  EXPECT_EQ(reloaded.skipped_lines(), 0u);
  ASSERT_NE(reloaded.find("fp-1"), nullptr);
  expect_results_identical(result, *reloaded.find("fp-1"));
  EXPECT_EQ(reloaded.find("fp-2"), nullptr);
}

TEST_F(CheckpointTest, FreshJournalTruncatesExisting) {
  {
    CheckpointJournal journal(journal_path(), /*resume=*/false);
    journal.record("fp-1", sample_result());
  }
  CheckpointJournal fresh(journal_path(), /*resume=*/false);
  EXPECT_EQ(fresh.cached(), 0u);
  EXPECT_EQ(fs::file_size(journal_path()), 0u);
}

TEST_F(CheckpointTest, TornTrailingLineIsSkippedNotFatal) {
  const EvalResult result = sample_result();
  {
    CheckpointJournal journal(journal_path(), /*resume=*/false);
    journal.record("fp-1", result);
    journal.record("fp-2", result);
  }
  // Simulate a SIGKILL mid-append: chop the file mid-way through the last
  // line, leaving valid line 1 plus a torn prefix of line 2.
  std::string content;
  {
    std::ifstream in(journal_path(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    content = os.str();
  }
  const std::size_t first_end = content.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  std::ofstream(journal_path(), std::ios::binary | std::ios::trunc)
      << content.substr(0, first_end + 1 + 20);

  CheckpointJournal recovered(journal_path(), /*resume=*/true);
  EXPECT_EQ(recovered.cached(), 1u);
  EXPECT_EQ(recovered.skipped_lines(), 1u);
  ASSERT_NE(recovered.find("fp-1"), nullptr);
  expect_results_identical(result, *recovered.find("fp-1"));
  EXPECT_EQ(recovered.find("fp-2"), nullptr);  // torn cell: recompute
}

TEST_F(CheckpointTest, GarbageLinesAreSkipped) {
  std::ofstream(journal_path()) << "not json at all\n{\"fp\": \"x\"}\n";
  CheckpointJournal journal(journal_path(), /*resume=*/true);
  EXPECT_EQ(journal.cached(), 0u);
  EXPECT_EQ(journal.skipped_lines(), 2u);
}

TEST_F(CheckpointTest, JournalLinesOfOlderBuildsLoadOrSkip) {
  const std::string head =
      R"({"fp":"FP","result":{"algorithm":"heft","budget":2,"status":"ok","error_kind":"none",)"
      R"("error_message":"","predicted_makespan":10,"predicted_cost":1.5,)"
      R"("predicted_feasible":true,"used_vms":3,"makespan":[11,12],"cost":[1.25,1.75],)"
      R"("valid_fraction":1,"deadline_fraction":1,"objective_fraction":1,)"
      R"("success_fraction":1,"crashes_mean":0,"failed_tasks_mean":0,)"
      R"("recovery_cost_mean":0,"wasted_compute_mean":0,"schedule_seconds":0.5)";
  const auto line = [&](const std::string& fp, const std::string& tail) {
    std::string text = head;
    text.replace(text.find("FP"), 2, fp);
    return text + tail + "}}\n";
  };
  // Builds before the observability aggregates wrote no "obs" block: the
  // line loads with every aggregate 0.  A block that lacks a key is corrupt:
  // the line is skipped and its cell recomputed.
  std::ofstream(journal_path())
      << line("no-obs", "")
      << line("short-obs",
              R"(,"obs":{"queue_wait_p50":1,"queue_wait_p95":2,"queue_wait_p99":3,)"
              R"("vm_util_mean":0.5,"transfer_retries_mean":0,"budget_headroom_mean":0.25})");
  CheckpointJournal journal(journal_path(), /*resume=*/true);
  EXPECT_EQ(journal.cached(), 1u);
  EXPECT_EQ(journal.skipped_lines(), 1u);
  EXPECT_EQ(journal.find("short-obs"), nullptr);
  const EvalResult* old = journal.find("no-obs");
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->used_vms, 3u);
  EXPECT_EQ(old->makespan.values(), (std::vector<double>{11, 12}));
  EXPECT_EQ(old->schedule_seconds, 0.5);
  EXPECT_EQ(old->queue_wait_p50, 0.0);
  EXPECT_EQ(old->queue_wait_p95, 0.0);
  EXPECT_EQ(old->queue_wait_p99, 0.0);
  EXPECT_EQ(old->vm_util_mean, 0.0);
  EXPECT_EQ(old->transfer_retries_mean, 0.0);
  EXPECT_EQ(old->budget_headroom_mean, 0.0);
  EXPECT_EQ(old->sim_events_per_sec, 0.0);
}

TEST_F(CheckpointTest, CampaignJournalPathIsPinned) {
  // The file name embeds the configuration hash: a build that named it
  // differently would silently start over instead of resuming.
  CampaignConfig config = small_campaign();
  config.instances = 1;
  config.budget_points = 2;
  config.repetitions = 1;
  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult result = run_campaign(platform::paper_platform(), config);
  EXPECT_EQ(fs::path(result.journal_path).filename().string(), "campaign-montage-13e7e6c092e9956b.jsonl");
}

TEST_F(CheckpointTest, CampaignWithCheckpointMatchesPlainRun) {
  CampaignConfig config = small_campaign();
  const CampaignResult plain = run_campaign(platform::paper_platform(), config);

  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult journaled = run_campaign(platform::paper_platform(), config);
  expect_campaigns_identical(plain, journaled);
  EXPECT_FALSE(journaled.journal_path.empty());
  EXPECT_TRUE(fs::exists(journaled.journal_path));
  EXPECT_EQ(journaled.replayed_cells, 0u);

  // Parallel execution against the same (already complete) journal.
  config.resume = true;
  config.threads = 4;
  const CampaignResult replayed = run_campaign(platform::paper_platform(), config);
  expect_campaigns_identical(plain, replayed);
  EXPECT_EQ(replayed.replayed_cells, 2u * 3u * 2u);  // every cell came from the journal
}

TEST_F(CheckpointTest, ResumeAfterTruncationIsBitIdentical) {
  CampaignConfig config = small_campaign();
  const CampaignResult reference = run_campaign(platform::paper_platform(), config);

  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult first = run_campaign(platform::paper_platform(), config);

  // Simulate a mid-campaign kill: keep only the first half of the journal
  // (a whole number of cells — the post-kill state fsync guarantees).
  std::vector<std::string> lines;
  {
    std::ifstream in(first.journal_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 12u);  // 2 instances x 3 budgets x 2 algorithms
  {
    std::ofstream out(first.journal_path, std::ios::trunc);
    for (std::size_t i = 0; i < lines.size() / 2; ++i) out << lines[i] << "\n";
  }

  config.resume = true;
  const CampaignResult resumed = run_campaign(platform::paper_platform(), config);
  EXPECT_EQ(resumed.replayed_cells, 6u);
  expect_campaigns_identical(reference, resumed);
}

TEST_F(CheckpointTest, ResumeIgnoresJournalOfDifferentConfig) {
  CampaignConfig config = small_campaign();
  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult first = run_campaign(platform::paper_platform(), config);

  // A different seed is a different campaign: the journal file name embeds
  // the config hash, so nothing gets replayed (and nothing explodes).
  config.seed += 1;
  config.resume = true;
  const CampaignResult other = run_campaign(platform::paper_platform(), config);
  EXPECT_NE(other.journal_path, first.journal_path);
  EXPECT_EQ(other.replayed_cells, 0u);
}

}  // namespace
}  // namespace cloudwf::exp
